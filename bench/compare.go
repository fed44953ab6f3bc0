package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readRecords loads the -out records of untraced runs, grouped by
// workload and metric: one value per run.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Traced {
			continue // layer metrics have no bound to compare against
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d failed its correctness gate", path, line, r.Workload, r.Seed)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareBound is the bound -compare judges a pairing with. BENCHMARK.json
// can carry one bound per metric, which has to cover the metric's
// noisiest workload on a noisy host; -compare holds each workload to what
// the issue asked of it: a tenth on the live metrics, a hundredth on
// wan16's throughput, which is exact per commit. Where the host does not
// resolve that, the row reads unresolved instead of ok.
func compareBound(workload string, def metricDef) float64 {
	switch {
	case def.Name == "setup_s":
		return def.Bound
	case workload == "wan16" && def.Name == "committed_mb_s":
		return 0.01
	}
	return 0.10
}

// verdict judges one (workload, metric) pairing: b is worse when its
// median is worse than a's by more than the bound; but when either
// side's run-to-run spread (interquartile distance over median) is wider
// than the bound, the runs cannot resolve a change of that size and the
// pairing is unresolved rather than ok.
func verdict(def metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	change := 0.0
	if ma != 0 {
		change = (mb - ma) / ma
		if def.Better == "higher" {
			change = -change
		}
	}
	switch {
	case spreadShare(a) > def.Bound || spreadShare(b) > def.Bound:
		return "unresolved", change
	case change > def.Bound:
		return "worse", change
	}
	return "ok", change
}

// compareFiles prints one row per (workload, metric) with both medians,
// both spreads, the change in the metric's worse direction, the bound
// and the verdict. It reports whether any row is worse or unresolved.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tA median\tA spread\tB median\tB spread\tworse by\tbound\tverdict\t")
	bad := false
	for _, wl := range workloads {
		for _, def := range endToEnd {
			va, vb := a[wl.Name][def.Name], b[wl.Name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			def.Bound = compareBound(wl.Name, def)
			v, change := verdict(def, va, vb)
			if def.Name == "setup_s" && v == "unresolved" {
				// Set-up spread is reported, not gated: only its median may
				// not get worse.
				if v = "ok"; change > def.Bound {
					v = "worse"
				}
			}
			bad = bad || v != "ok"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.6g\t%.1f%%\t%.6g\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\t\n",
				wl.Name, def.Name, def.Unit, len(va), len(vb),
				median(va), 100*spreadShare(va), median(vb), 100*spreadShare(vb),
				100*change, 100*def.Bound, v)
		}
	}
	return bad, tw.Flush()
}
