package main

// dlbench -diff: compare two BENCH_*.json snapshots and flag
// regressions beyond a noise threshold. This is the perf-trajectory
// tool the snapshots exist for: CI runs the quick benchmark on every
// PR, diffs it against the committed baseline, and fails the build on
// any metric that regressed by more than the threshold, or that a
// record present in both snapshots no longer reports. Emulated timings
// are seed-stable, so a change that legitimately moves a number
// refreshes the committed baseline in the same PR.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricDirection classifies how a metric's change should be judged.
type metricDirection int

const (
	higherBetter metricDirection = iota
	lowerBetter
	neutral // structural/shape metrics: reported, never a regression
)

// directionOf maps metric names to the direction of goodness.
func directionOf(name string) metricDirection {
	switch {
	case strings.Contains(name, "throughput"),
		strings.Contains(name, "epoch_rate"),
		strings.Contains(name, "confirmed"):
		return higherBetter
	case strings.HasSuffix(name, "_ms"),
		strings.HasSuffix(name, "_frac"),          // fig2 per-message overhead fractions
		strings.HasSuffix(name, "_amplification"): // bytes downloaded per byte delivered
		return lowerBetter
	default:
		return neutral
	}
}

// recordKey identifies one benchmark point across snapshots.
func recordKey(r benchRecord) string {
	params := make([]string, 0, len(r.Params))
	for k, v := range r.Params {
		params = append(params, fmt.Sprintf("%s=%g", k, v))
	}
	sort.Strings(params)
	return r.Experiment + "|" + r.Mode + "|" + strings.Join(params, ",")
}

// diffLine is one compared metric.
type diffLine struct {
	Key, Metric string
	Old, New    float64
	Change      float64 // relative, signed
	Regression  bool
	// Missing marks a baseline metric the new record no longer reports;
	// it fails the diff like a regression.
	Missing bool
}

// diffSnapshots compares two parsed snapshots. noise is the relative
// change below which a move is ignored (e.g. 0.1 = 10%).
func diffSnapshots(oldF, newF *benchFile, noise float64) (lines []diffLine, missing, added int) {
	oldRecs := map[string]benchRecord{}
	for _, r := range oldF.Records {
		oldRecs[recordKey(r)] = r
	}
	seen := map[string]bool{}
	for _, nr := range newF.Records {
		key := recordKey(nr)
		seen[key] = true
		or, ok := oldRecs[key]
		if !ok {
			added++
			continue
		}
		metrics := make([]string, 0, len(or.Metrics))
		for m := range or.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			ov := or.Metrics[m]
			nv, ok := nr.Metrics[m]
			if !ok {
				lines = append(lines, diffLine{Key: key, Metric: m, Old: ov, Missing: true})
				continue
			}
			var change float64
			switch {
			case ov == nv:
				change = 0
			case ov == 0:
				change = 1 // appeared from zero; treat as full move
			default:
				change = (nv - ov) / ov
			}
			if change == 0 {
				continue
			}
			l := diffLine{Key: key, Metric: m, Old: ov, New: nv, Change: change}
			switch directionOf(m) {
			case higherBetter:
				l.Regression = change < -noise
			case lowerBetter:
				l.Regression = change > noise
			}
			if l.Regression || abs(change) > noise {
				lines = append(lines, l)
			}
		}
	}
	for key := range oldRecs {
		if !seen[key] {
			missing++
		}
	}
	return lines, missing, added
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func loadBench(path string) (*benchFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runDiff implements `dlbench -diff old.json new.json`; returns the
// process exit code (1 on regression).
func runDiff(stdout, stderr io.Writer, oldPath, newPath string, noise float64) int {
	oldF, err := loadBench(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "dlbench:", err)
		return 2
	}
	newF, err := loadBench(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "dlbench:", err)
		return 2
	}
	lines, missing, added := diffSnapshots(oldF, newF, noise)
	fmt.Fprintf(stdout, "bench diff: %s (%s) -> %s (%s), noise threshold %.0f%%\n",
		oldPath, oldF.GeneratedAt, newPath, newF.GeneratedAt, noise*100)
	if missing > 0 || added > 0 {
		fmt.Fprintf(stdout, "  %d baseline points missing from the new snapshot, %d new points\n", missing, added)
	}
	regressions, absent := 0, 0
	for _, l := range lines {
		if l.Missing {
			absent++
			fmt.Fprintf(stdout, "  %-10s %s %s: %.4g -> absent\n", "MISSING", l.Key, l.Metric, l.Old)
			continue
		}
		tag := "moved"
		if l.Regression {
			tag = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(stdout, "  %-10s %s %s: %.4g -> %.4g (%+.1f%%)\n",
			tag, l.Key, l.Metric, l.Old, l.New, l.Change*100)
	}
	if regressions > 0 || absent > 0 {
		fmt.Fprintf(stdout, "%d regression(s) beyond the %.0f%% noise threshold, %d baseline metric(s) missing\n",
			regressions, noise*100, absent)
		return 1
	}
	if len(lines) == 0 {
		fmt.Fprintln(stdout, "  no metric moved beyond the noise threshold")
	}
	return 0
}
