// Command dlbench regenerates every table and figure of the
// DispersedLedger paper's evaluation on the network emulator and prints
// them in the paper's shape. See EXPERIMENTS.md for the experiment
// inventory and the recorded paper-vs-measured comparison.
//
// Usage:
//
//	dlbench                 # quick pass (scaled durations, minutes of CPU)
//	dlbench -full           # longer runs, larger cluster sweep
//	dlbench -exp fig8,fig10 # a subset of experiments
//	dlbench -exp abl-batch  # one of the four design ablations (abl-*)
//	dlbench -telemetry      # instrument nodes; fig10 adds the stage panel
//	dlbench -json           # also write machine-readable BENCH_<stamp>.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"dledger/internal/core"
	"dledger/internal/harness"
	"dledger/internal/trace"
)

// benchRecord is one measured point in the machine-readable output. The
// perf trajectory across PRs accumulates from these files: each CI or
// local `dlbench -json` run appends a BENCH_*.json snapshot that later
// tooling can diff.
type benchRecord struct {
	Experiment string             `json:"experiment"`
	Mode       string             `json:"mode,omitempty"`
	Params     map[string]float64 `json:"params,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

type benchFile struct {
	GeneratedAt string        `json:"generated_at"`
	Seed        int64         `json:"seed"`
	Full        bool          `json:"full"`
	DurationSec float64       `json:"duration_sec"`
	Records     []benchRecord `json:"records"`
	// Runtime is the Go runtime panel sampled at the end of the run (GC
	// pause quantiles, heap occupancy). Top-level on purpose: -diff
	// compares Records[].Metrics only, so these host-dependent numbers
	// inform without ever tripping a regression gate.
	Runtime map[string]float64 `json:"runtime,omitempty"`
}

func durationMeanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(time.Millisecond)
}

// metricsOf maps one run to the named metrics of its record. Every
// figure reads the same GeoResult and picks its own set; a record
// carries exactly the names it asks for, except that a zero
// retrieve_amplification (the HoneyBadger modes have no retrieval
// class) is left out.
func metricsOf(r *harness.GeoResult, names ...string) map[string]float64 {
	var confirmed float64
	for i := range r.Progress {
		confirmed += r.Confirmed(i, r.Duration)
	}
	all := map[string]float64{
		"mean_throughput_mbps":   r.Mean,
		"std_mbps":               r.Std,
		"retrieve_amplification": r.RetrieveAmplification,
		"epoch_rate":             r.EpochRate,
		"dispersal_fraction":     r.DispersalFraction,
		"final_lag_epochs":       r.FinalLag,
		// Fig 9's headline scalar: total confirmed bytes across nodes at
		// the horizon, not the full series.
		"confirmed_gb_at_horizon": confirmed / float64(1<<30),
		"local_p50_ms":            durationMeanMs(r.P50),
		"local_p95_ms":            durationMeanMs(r.P95),
		"local_p99_ms":            durationMeanMs(r.P99),
		"all_p50_ms":              durationMeanMs(r.AllP50),
		"all_p95_ms":              durationMeanMs(r.AllP95),
		"fast_p50_ms":             float64(r.P50[0]) / float64(time.Millisecond),
		// A point whose backlog grows is not in steady state: its
		// percentiles rise with the run length.
		"retrieve_backlog_slope": r.BacklogSlope,
		"steady_state":           b2f(r.Steady()),
	}
	m := map[string]float64{}
	for _, name := range names {
		if name != "retrieve_amplification" || r.RetrieveAmplification > 0 {
			m[name] = all[name]
		}
	}
	return m
}

// The metric sets more than one figure's records carry.
var (
	geoSet        = []string{"mean_throughput_mbps", "retrieve_amplification"}
	controlledSet = []string{"mean_throughput_mbps", "std_mbps", "epoch_rate"}
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is dlbench with its arguments and output streams; it returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "run the full-size sweeps (slower)")
	exp := fs.String("exp", "", "comma-separated experiment ids to run (fig2, fig8, fig9, fig10, fig11a, fig11b, fig12, fig13, fig14, fig15, fig16, abl-priority, abl-batch, abl-lag); empty = all")
	telem := fs.Bool("telemetry", false, "instrument every emulated node (metrics registry + lifecycle tracing); fig10 then also records the per-stage latency panel")
	seed := fs.Int64("seed", 1, "base random seed")
	jsonOut := fs.Bool("json", false, "write a machine-readable BENCH_<stamp>.json next to the printed tables")
	jsonPath := fs.String("jsonpath", "", "override the -json output path")
	diff := fs.Bool("diff", false, "compare two BENCH_*.json snapshots (old new) and exit non-zero on a regression beyond -noise")
	noise := fs.Float64("noise", 0.10, "with -diff: relative change below this is noise (0.10 = 10%)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dlbench: -diff needs exactly two snapshot paths: old.json new.json")
			return 2
		}
		return runDiff(stdout, stderr, fs.Arg(0), fs.Arg(1), *noise)
	}

	var records []benchRecord
	record := func(r benchRecord) { records = append(records, r) }

	d := 30 * time.Second
	nSweep := []int{16, 31}
	fig2N := []int{4, 16, 40, 64}
	if *full {
		d = 120 * time.Second
		nSweep = []int{16, 31, 64, 127}
		fig2N = []int{4, 16, 40, 64, 100, 128}
	}

	// geo runs one figure point; every experiment below is a set of them.
	geo := func(p harness.GeoParams) (*harness.GeoResult, error) {
		if p.Duration == 0 {
			p.Duration = d
		}
		p.Seed = *seed
		return harness.RunGeo(p)
	}

	// The abl-* experiments are not paper figures: each sweeps one design
	// parameter the paper fixes (DL only) and records both sides of its
	// tradeoff, so a policy change shows up as a diff of records. point
	// prints one row, metrics under their record names, and records it.
	point := func(id, label string, params, metrics map[string]float64) {
		names := make([]string, 0, len(metrics))
		for name := range metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(stdout, "  %-16s", label)
		for _, name := range names {
			fmt.Fprintf(stdout, "  %s %.3f", name, metrics[name])
		}
		fmt.Fprintln(stdout)
		record(benchRecord{Experiment: id, Mode: core.ModeDL.String(), Params: params, Metrics: metrics})
	}

	experiments := []struct {
		id  string
		run func() error
	}{
		{"fig2", func() error {
			pts, err := harness.RunFig2(fig2N, []int{100 << 10, 1 << 20})
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, harness.FormatFig2(pts))
			for _, p := range pts {
				record(benchRecord{
					Experiment: "fig2",
					Params:     map[string]float64{"n": float64(p.N), "block_bytes": float64(p.BlockSize)},
					Metrics: map[string]float64{
						"avidm_frac": p.AVIDM, "avidfp_frac": p.AVIDFP, "lower_bound": p.LowerBound,
					},
				})
			}
			return nil
		}},

		{"fig8", func() error {
			var results []*harness.GeoResult
			for _, m := range []core.Mode{core.ModeHB, core.ModeHBLink, core.ModeDL, core.ModeDLCoupled} {
				r, err := geo(harness.GeoParams{Mode: m, Telemetry: *telem})
				if err != nil {
					return err
				}
				results = append(results, r)
				record(benchRecord{Experiment: "fig8", Mode: m.String(), Metrics: metricsOf(r, geoSet...)})
			}
			fmt.Fprint(stdout, harness.FormatGeo(results))
			fmt.Fprint(stdout, harness.FormatHeadline(results[0], results[1], results[2], results[3]))
			// Paper-scale point: DL on the 16-city profile tiled to 64 sites
			// (§6 runs up to 128 servers). The per-node mean rises with n —
			// DispersedLedger's balanced dispersal load is the headline — and
			// this record tracks it across PRs. Three parameters differ from
			// the 16-city runs above, each forced by the larger cluster:
			// ScalabilityScale (1/8, not the default 1/64) because
			// per-message fixed costs are Θ(N²) per epoch and do not shrink
			// with the scale factor — at 1/64 they dominate the scaled
			// bandwidth; MaxEpochLag 8 because under infinite backlog at
			// large N unbounded dispersal pipelining starves retrieval (the
			// §4.5 lag guard, same as the Fig 12 sweep); and a fixed 45 s
			// horizon with a 15 s warmup because the 64-node ramp-up is
			// longer and a short window under-credits the asynchronous
			// retrieval tail.
			big, err := geo(harness.GeoParams{
				Mode:        core.ModeDL,
				Cities:      trace.ExtendCities(trace.AWSCities, 64),
				Scale:       harness.ScalabilityScale,
				MaxEpochLag: 8,
				Duration:    45 * time.Second,
				Warmup:      15 * time.Second,
				Telemetry:   *telem,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "DL n=64 mean throughput: %.3f MB/s per node\n", big.Mean)
			record(benchRecord{
				Experiment: "fig8", Mode: core.ModeDL.String(),
				Params:  map[string]float64{"n": 64},
				Metrics: metricsOf(big, geoSet...),
			})
			return nil
		}},

		{"fig9", func() error {
			for _, m := range []core.Mode{core.ModeDL, core.ModeHBLink} {
				r, err := geo(harness.GeoParams{Mode: m, Telemetry: *telem})
				if err != nil {
					return err
				}
				fmt.Fprint(stdout, harness.FormatProgress(r, d/10, d))
				record(benchRecord{Experiment: "fig9", Mode: m.String(), Metrics: metricsOf(r, "confirmed_gb_at_horizon")})
			}
			return nil
		}},

		{"fig10", func() error {
			loads := []float64{2, 6, 10, 15}
			for _, m := range []core.Mode{core.ModeDL, core.ModeHB} {
				var results []*harness.GeoResult
				for _, l := range loads {
					r, err := geo(harness.GeoParams{
						Mode: m, Scale: harness.LatencyScale, Telemetry: *telem,
						LoadPerNode: l / 16 * trace.MB, // paper loads are system-wide over 16 nodes
					})
					if err != nil {
						return err
					}
					results = append(results, r)
					metrics := metricsOf(r, "local_p50_ms", "local_p95_ms", "local_p99_ms",
						"all_p50_ms", "all_p95_ms", "retrieve_backlog_slope", "steady_state")
					// With -telemetry, the lifecycle panel rides along: per-
					// stage p50/p95 from dl_epoch_stage_seconds. The _ms
					// suffix makes -diff gate them as lower-is-better.
					for seg, sl := range r.Stages {
						metrics["stage_"+seg+"_p50_ms"] = sl.P50Ms
						metrics["stage_"+seg+"_p95_ms"] = sl.P95Ms
					}
					// The sampled transaction-journey decomposition rides
					// along the same way: where a tx's inclusion-to-commit
					// latency goes, phase by phase.
					for ph, sl := range r.Phases {
						metrics["phase_"+ph+"_p50_ms"] = sl.P50Ms
						metrics["phase_"+ph+"_p95_ms"] = sl.P95Ms
					}
					record(benchRecord{
						Experiment: "fig10", Mode: m.String(),
						Params:  map[string]float64{"system_load_mbps": l},
						Metrics: metrics,
					})
				}
				fmt.Fprint(stdout, harness.FormatLatency(results))
				if *telem {
					printPanel(stdout, fmt.Sprintf("stage panel (%s) — lifecycle segment latency, p50/p95 ms", m), results,
						func(r *harness.GeoResult) map[string]harness.StageLatency { return r.Stages },
						"disperse", "ba", "retrieve", "e2e")
					printPanel(stdout, fmt.Sprintf("phase panel (%s) — sampled tx journey decomposition, p50/p95 ms", m), results,
						func(r *harness.GeoResult) map[string]harness.StageLatency { return r.Phases },
						"mempool_wait", "disperse", "ba", "retrieve", "deliver")
				}
			}
			return nil
		}},

		{"fig11a", func() error {
			var results []*harness.GeoResult
			for _, m := range []core.Mode{core.ModeHB, core.ModeHBLink, core.ModeDL} {
				r, err := geo(harness.GeoParams{Mode: m, Links: trace.Spatial(16, 10*trace.MB*harness.Scale)})
				if err != nil {
					return err
				}
				results = append(results, r)
				record(benchRecord{Experiment: "fig11a", Mode: m.String(), Metrics: metricsOf(r, controlledSet...)})
			}
			fmt.Fprint(stdout, harness.FormatControlled(
				"Fig 11a — spatial variation (node i capped at 10+0.5i MB/s)", results))
			return nil
		}},

		{"fig11b", func() error {
			for _, temporal := range []bool{false, true} {
				links := trace.Uniform(16, 10*trace.MB*harness.Scale)
				title := "Fig 11b — fixed 10 MB/s"
				if temporal {
					links = trace.Temporal(16, 10*trace.MB*harness.Scale, d, *seed)
					title = "Fig 11b — Gauss-Markov (b=10, σ=5, α=0.98)"
				}
				var results []*harness.GeoResult
				for _, m := range []core.Mode{core.ModeHB, core.ModeHBLink, core.ModeDL} {
					r, err := geo(harness.GeoParams{Mode: m, Links: links})
					if err != nil {
						return err
					}
					results = append(results, r)
					record(benchRecord{
						Experiment: "fig11b", Mode: m.String(),
						Params:  map[string]float64{"temporal": b2f(temporal)},
						Metrics: metricsOf(r, controlledSet...),
					})
				}
				fmt.Fprint(stdout, harness.FormatControlled(title, results))
			}
			return nil
		}},

		{"fig12", func() error {
			var pts []*harness.GeoResult
			for _, n := range nSweep {
				for _, bs := range []int{500 << 10, 1 << 20} {
					// The sweep enables the §4.5 lag guard (P = 8): with
					// fixed-size blocks and infinite backlog, unbounded
					// dispersal pipelining would otherwise starve retrieval
					// entirely at large N, where the Θ(N²) per-epoch
					// agreement traffic is a large fraction of each node's
					// (scaled) bandwidth.
					r, err := geo(harness.GeoParams{
						Links: trace.Uniform(n, 10*trace.MB*harness.ScalabilityScale), Scale: harness.ScalabilityScale,
						FixedBlockBytes: bs, MaxEpochLag: 8,
					})
					if err != nil {
						return err
					}
					pts = append(pts, r)
					record(benchRecord{
						Experiment: "fig12",
						Params:     map[string]float64{"n": float64(n), "block_bytes": float64(bs)},
						Metrics:    metricsOf(r, "mean_throughput_mbps", "std_mbps", "dispersal_fraction"),
					})
				}
			}
			fmt.Fprint(stdout, harness.FormatScale(pts))
			return nil
		}},

		{"fig13", func() error {
			// No JSON record of its own: fig12's records carry the
			// dispersal_fraction metric this figure plots.
			fmt.Fprintln(stdout, "Fig 13 shares fig12's runs; see the 'dispersal frac' column above.")
			return nil
		}},

		{"fig14", func() error {
			for _, m := range []core.Mode{core.ModeDL, core.ModeHB} {
				r, err := geo(harness.GeoParams{
					Mode: m, Scale: harness.LatencyScale,
					LoadPerNode: 12.0 / 16 * trace.MB, // near capacity
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "Fig 14 (%s) — all-tx vs local-tx latency (median/p95)\n", m)
				for i, name := range r.Names {
					fmt.Fprintf(stdout, "  %-12s local %8s/%8s   all %8s/%8s\n", name,
						r.P50[i].Round(time.Millisecond), r.P95[i].Round(time.Millisecond),
						r.AllP50[i].Round(time.Millisecond), r.AllP95[i].Round(time.Millisecond))
				}
				record(benchRecord{
					Experiment: "fig14", Mode: m.String(),
					Metrics: metricsOf(r, "local_p50_ms", "local_p95_ms", "all_p50_ms", "all_p95_ms"),
				})
			}
			return nil
		}},

		{"fig15", func() error {
			var results []*harness.GeoResult
			for _, m := range []core.Mode{core.ModeHB, core.ModeHBLink, core.ModeDL} {
				r, err := geo(harness.GeoParams{Cities: trace.VultrCities, Mode: m})
				if err != nil {
					return err
				}
				results = append(results, r)
				record(benchRecord{Experiment: "fig15", Mode: m.String(), Metrics: metricsOf(r, geoSet...)})
			}
			fmt.Fprint(stdout, harness.FormatGeo(results))
			return nil
		}},

		{"fig16", func() error {
			// Not recorded in JSON: this is an input-trace illustration, not
			// a performance measurement.
			tr := trace.GaussMarkov(trace.GaussMarkovParams{
				Mean: 10 * trace.MB, Sigma: 5 * trace.MB, Alpha: 0.98, Tick: time.Second,
			}, 300, *seed)
			fmt.Fprintln(stdout, "Fig 16 — example Gauss-Markov bandwidth trace (MB/s, one sample per 10 s)")
			for i := 0; i < len(tr.Rates); i += 10 {
				fmt.Fprintf(stdout, "  t=%3ds  %6.2f\n", i, tr.Rates[i]/trace.MB)
			}
			return nil
		}},

		{"abl-priority", func() error {
			// The dispersal:retrieval priority weight T (§5 uses 30). High T
			// protects the dispersal pipeline's epoch rate — what lets every
			// node keep voting while retrieval is backlogged; low T hands that
			// bandwidth to retrieval, raising confirmed throughput at the cost
			// of consensus progress.
			fmt.Fprintln(stdout, "Ablation — priority weight T on Gauss-Markov links")
			for _, T := range []float64{1, 3, 30, 300} {
				r, err := geo(harness.GeoParams{
					Links: trace.Temporal(16, 10*trace.MB*harness.Scale, d, *seed), PriorityWeight: T,
				})
				if err != nil {
					return err
				}
				point("abl-priority", fmt.Sprintf("T=%g", T), map[string]float64{"priority_weight": T},
					metricsOf(r, "mean_throughput_mbps", "epoch_rate"))
			}
			return nil
		}},

		{"abl-batch", func() error {
			// The batching tradeoff behind §5's rate control. With the paper's
			// 100 ms delay gate, proposals ride the epoch cadence and batch
			// size adapts to load (the first row). Pinning the delay gate high
			// and forcing byte thresholds (paper-equivalent 150 KB / 600 KB)
			// trades confirmation latency for fewer, larger blocks.
			fmt.Fprintln(stdout, "Ablation — proposal batching at 4 MB/s system load, fastest node's local p50")
			for _, tc := range []struct {
				name  string
				delay time.Duration
				bytes int
			}{
				{"adaptive-100ms", 100 * time.Millisecond, 0},
				{"batch=150KB", time.Hour, 150 << 10},
				{"batch=600KB", time.Hour, 600 << 10},
			} {
				r, err := geo(harness.GeoParams{
					Scale: harness.LatencyScale, LoadPerNode: 4.0 / 16 * trace.MB,
					BatchDelay: tc.delay, BatchBytes: tc.bytes,
				})
				if err != nil {
					return err
				}
				point("abl-batch", tc.name,
					map[string]float64{"batch_delay_ms": float64(tc.delay / time.Millisecond), "batch_kb": float64(tc.bytes >> 10)},
					metricsOf(r, "fast_p50_ms"))
			}
			return nil
		}},

		{"abl-lag", func() error {
			// The §4.5 bound P ("stop proposing when more than P epochs
			// behind") on a saturated fixed-block cluster: P=0 (pure DL) lets
			// dispersal run arbitrarily ahead of retrieval — the lag grows
			// with the run — and a small P throttles the pipeline to the
			// retrieval drain rate.
			fmt.Fprintln(stdout, "Ablation — §4.5 lag guard P, n=16, 500 KB blocks, infinite backlog")
			for _, P := range []uint64{0, 2, 8, 32} {
				r, err := geo(harness.GeoParams{
					Links: trace.Uniform(16, 10*trace.MB*harness.ScalabilityScale), Scale: harness.ScalabilityScale,
					FixedBlockBytes: 500 << 10, MaxEpochLag: P,
				})
				if err != nil {
					return err
				}
				point("abl-lag", fmt.Sprintf("P=%d", P), map[string]float64{"max_epoch_lag": float64(P)},
					metricsOf(r, "mean_throughput_mbps", "final_lag_epochs"))
			}
			return nil
		}},
	}

	selected := map[string]bool{}
	if *exp != "" {
		known := map[string]bool{}
		var ids []string
		for _, e := range experiments {
			known[e.id] = true
			ids = append(ids, e.id)
		}
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				fmt.Fprintf(stderr, "dlbench: unknown experiment id %q in -exp; valid ids: %s\n", id, strings.Join(ids, ", "))
				return 2
			}
			selected[id] = true
		}
	}
	for _, e := range experiments {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		fmt.Fprintf(stdout, "=== %s ===\n", e.id)
		start := time.Now()
		if err := e.run(); err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", e.id, err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s in %s)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}

	panel := runtimePanel()
	printRuntimePanel(stdout, panel)

	if *jsonOut || *jsonPath != "" {
		now := time.Now().UTC()
		path := *jsonPath
		if path == "" {
			path = "BENCH_" + now.Format("20060102T150405Z") + ".json"
		}
		blob, err := json.MarshalIndent(benchFile{
			GeneratedAt: now.Format(time.RFC3339),
			Seed:        *seed,
			Full:        *full,
			DurationSec: d.Seconds(),
			Records:     records,
			Runtime:     panel,
		}, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d records)\n", path, len(records))
	}
	return 0
}

// printPanel prints one row per load point of a latency panel: the
// p50/p95 of each named series the point observed.
func printPanel(w io.Writer, title string, results []*harness.GeoResult, panel func(*harness.GeoResult) map[string]harness.StageLatency, series ...string) {
	fmt.Fprintln(w, title)
	for _, r := range results {
		fmt.Fprintf(w, "  load %4.1f MB/s:", r.LoadPerNode*16/trace.MB)
		for _, s := range series {
			if sl, ok := panel(r)[s]; ok {
				fmt.Fprintf(w, "  %s %.0f/%.0f", s, sl.P50Ms, sl.P95Ms)
			}
		}
		fmt.Fprintln(w)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
