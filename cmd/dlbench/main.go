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

// geoMetrics is the record of one fig8/fig15 run. The HoneyBadger modes
// have no retrieval class and so no amplification to record.
func geoMetrics(r *harness.GeoResult) map[string]float64 {
	m := map[string]float64{"mean_throughput_mbps": r.Mean}
	if r.RetrieveAmplification > 0 {
		m["retrieve_amplification"] = r.RetrieveAmplification
	}
	return m
}

func main() {
	full := flag.Bool("full", false, "run the full-size sweeps (slower)")
	exp := flag.String("exp", "", "comma-separated experiment ids to run (fig2, fig8, fig9, fig10, fig11a, fig11b, fig12, fig13, fig14, fig15, fig16, abl-priority, abl-batch, abl-lag); empty = all")
	telem := flag.Bool("telemetry", false, "instrument every emulated node (metrics registry + lifecycle tracing); fig10 then also records the per-stage latency panel")
	seed := flag.Int64("seed", 1, "base random seed")
	jsonOut := flag.Bool("json", false, "write a machine-readable BENCH_<stamp>.json next to the printed tables")
	jsonPath := flag.String("jsonpath", "", "override the -json output path")
	diff := flag.Bool("diff", false, "compare two BENCH_*.json snapshots (old new) and exit non-zero on a regression beyond -noise")
	noise := flag.Float64("noise", 0.10, "with -diff: relative change below this is noise (0.10 = 10%)")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "dlbench: -diff needs exactly two snapshot paths: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), *noise))
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

	expSet := map[string]bool{}
	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			expSet[strings.TrimSpace(id)] = true
		}
	}
	run := func(id string, fn func() error) {
		if len(expSet) > 0 && !expSet[id] {
			return
		}
		fmt.Printf("=== %s ===\n", id)
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	run("fig2", func() error {
		pts, err := harness.RunFig2(fig2N, []int{100 << 10, 1 << 20})
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatFig2(pts))
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
	})

	var geo [4]*harness.GeoResult
	run("fig8", func() error {
		modes := []core.Mode{core.ModeHB, core.ModeHBLink, core.ModeDL, core.ModeDLCoupled}
		var results []*harness.GeoResult
		for i, m := range modes {
			r, err := harness.RunGeo(harness.GeoParams{
				Mode: m, Duration: d, Seed: *seed, Telemetry: *telem,
			})
			if err != nil {
				return err
			}
			geo[i] = r
			results = append(results, r)
			record(benchRecord{Experiment: "fig8", Mode: m.String(), Metrics: geoMetrics(r)})
		}
		fmt.Print(harness.FormatGeo(results))
		fmt.Print(harness.FormatHeadline(geo[0], geo[1], geo[2], geo[3]))
		// Paper-scale point: DL on the 16-city profile tiled to 64 sites
		// (§6 runs up to 128 servers). The per-node mean rises with n —
		// DispersedLedger's balanced dispersal load is the headline — and
		// this record tracks it across PRs. Three parameters differ from
		// the 16-city runs above, each forced by the larger cluster:
		// Scale 1/8 (not the default 1/64) because per-message fixed
		// costs are Θ(N²) per epoch and do not shrink with the scale
		// factor — at 1/64 they dominate the scaled bandwidth (see
		// ScalabilityScale); MaxEpochLag 8 because under infinite
		// backlog at large N unbounded dispersal pipelining starves
		// retrieval (the §4.5 lag guard, same as the Fig 12 sweep); and
		// a fixed 45 s horizon with a 15 s warmup because the 64-node
		// ramp-up is longer and a short window under-credits the
		// asynchronous retrieval tail.
		big, err := harness.RunGeo(harness.GeoParams{
			Mode:        core.ModeDL,
			Cities:      trace.ExtendCities(trace.AWSCities, 64),
			Scale:       1.0 / 8,
			MaxEpochLag: 8,
			Duration:    45 * time.Second,
			Warmup:      15 * time.Second,
			Seed:        *seed, Telemetry: *telem,
		})
		if err != nil {
			return err
		}
		fmt.Printf("DL n=64 mean throughput: %.3f MB/s per node\n", big.Mean)
		record(benchRecord{
			Experiment: "fig8", Mode: core.ModeDL.String(),
			Params:  map[string]float64{"n": 64},
			Metrics: geoMetrics(big),
		})
		return nil
	})

	run("fig9", func() error {
		for _, m := range []core.Mode{core.ModeDL, core.ModeHBLink} {
			r, err := harness.RunProgress(harness.GeoParams{
				Mode: m, Duration: d, Seed: *seed, Telemetry: *telem,
			})
			if err != nil {
				return err
			}
			fmt.Print(harness.FormatProgress(r, d/10, d))
			// The JSON record keeps the headline scalar (total confirmed
			// bytes across nodes at the horizon), not the full series.
			var total float64
			for _, ts := range r.Series {
				total += ts.At(d)
			}
			record(benchRecord{
				Experiment: "fig9", Mode: m.String(),
				Metrics: map[string]float64{"confirmed_gb_at_horizon": total / float64(1<<30)},
			})
		}
		return nil
	})

	run("fig10", func() error {
		loads := []float64{2, 6, 10, 15}
		for _, m := range []core.Mode{core.ModeDL, core.ModeHB} {
			var results []*harness.LatencyResult
			for _, l := range loads {
				r, err := harness.RunLatency(harness.LatencyParams{
					Mode: m, Duration: d, Seed: *seed, Telemetry: *telem,
					LoadPerNode: l / 16 * trace.MB, // paper loads are system-wide over 16 nodes
				})
				if err != nil {
					return err
				}
				results = append(results, r)
				metrics := map[string]float64{
					"local_p50_ms": durationMeanMs(r.P50),
					"local_p95_ms": durationMeanMs(r.P95),
					"local_p99_ms": durationMeanMs(r.P99),
					"all_p50_ms":   durationMeanMs(r.AllP50),
					"all_p95_ms":   durationMeanMs(r.AllP95),
					// A point whose backlog grows is not in steady state:
					// its percentiles rise with the run length.
					"retrieve_backlog_slope": r.BacklogSlope,
					"steady_state":           b2f(r.Steady()),
				}
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
			fmt.Print(harness.FormatLatency(results))
			if *telem {
				fmt.Printf("stage panel (%s) — lifecycle segment latency, p50/p95 ms\n", m)
				for _, r := range results {
					fmt.Printf("  load %4.1f MB/s:", r.LoadPerNode*16/trace.MB)
					for _, seg := range []string{"disperse", "ba", "retrieve", "e2e"} {
						if sl, ok := r.Stages[seg]; ok {
							fmt.Printf("  %s %.0f/%.0f", seg, sl.P50Ms, sl.P95Ms)
						}
					}
					fmt.Println()
				}
				fmt.Printf("phase panel (%s) — sampled tx journey decomposition, p50/p95 ms\n", m)
				for _, r := range results {
					fmt.Printf("  load %4.1f MB/s:", r.LoadPerNode*16/trace.MB)
					for _, ph := range []string{"mempool_wait", "disperse", "ba", "retrieve", "deliver"} {
						if sl, ok := r.Phases[ph]; ok {
							fmt.Printf("  %s %.0f/%.0f", ph, sl.P50Ms, sl.P95Ms)
						}
					}
					fmt.Println()
				}
			}
		}
		return nil
	})

	run("fig11a", func() error {
		var results []*harness.ControlledResult
		for _, m := range []core.Mode{core.ModeHB, core.ModeHBLink, core.ModeDL} {
			r, err := harness.RunControlled(harness.ControlledParams{
				Mode: m, Spatial: true, Duration: d, Seed: *seed,
			})
			if err != nil {
				return err
			}
			results = append(results, r)
			record(benchRecord{
				Experiment: "fig11a", Mode: m.String(),
				Metrics: map[string]float64{
					"mean_throughput_mbps": r.Mean, "std_mbps": r.Std, "epoch_rate": r.EpochRate,
				},
			})
		}
		fmt.Print(harness.FormatControlled(
			"Fig 11a — spatial variation (node i capped at 10+0.5i MB/s)", results))
		return nil
	})

	run("fig11b", func() error {
		for _, temporal := range []bool{false, true} {
			var results []*harness.ControlledResult
			for _, m := range []core.Mode{core.ModeHB, core.ModeHBLink, core.ModeDL} {
				r, err := harness.RunControlled(harness.ControlledParams{
					Mode: m, Temporal: temporal, Duration: d, Seed: *seed,
				})
				if err != nil {
					return err
				}
				results = append(results, r)
				record(benchRecord{
					Experiment: "fig11b", Mode: m.String(),
					Params: map[string]float64{"temporal": b2f(temporal)},
					Metrics: map[string]float64{
						"mean_throughput_mbps": r.Mean, "std_mbps": r.Std, "epoch_rate": r.EpochRate,
					},
				})
			}
			title := "Fig 11b — fixed 10 MB/s"
			if temporal {
				title = "Fig 11b — Gauss-Markov (b=10, σ=5, α=0.98)"
			}
			fmt.Print(harness.FormatControlled(title, results))
		}
		return nil
	})

	run("fig12", func() error {
		var pts []*harness.ScaleResult
		for _, n := range nSweep {
			for _, bs := range []int{500 << 10, 1 << 20} {
				// The sweep enables the §4.5 lag guard (P = 8): with
				// fixed-size blocks and infinite backlog, unbounded
				// dispersal pipelining would otherwise starve retrieval
				// entirely at large N, where the Θ(N²) per-epoch
				// agreement traffic is a large fraction of each node's
				// (scaled) bandwidth.
				r, err := harness.RunScalability(harness.ScaleParams{
					N: n, BlockBytes: bs, Duration: d, Seed: *seed, MaxEpochLag: 8,
				})
				if err != nil {
					return err
				}
				pts = append(pts, r)
				record(benchRecord{
					Experiment: "fig12",
					Params:     map[string]float64{"n": float64(n), "block_bytes": float64(bs)},
					Metrics: map[string]float64{
						"mean_throughput_mbps": r.Throughput,
						"std_mbps":             r.ThroughputStd,
						"dispersal_fraction":   r.DispersalFraction,
					},
				})
			}
		}
		fmt.Print(harness.FormatScale(pts))
		return nil
	})

	run("fig13", func() error {
		// No JSON record of its own: fig12's records carry the
		// dispersal_fraction metric this figure plots.
		fmt.Println("Fig 13 shares fig12's runs; see the 'dispersal frac' column above.")
		return nil
	})

	run("fig14", func() error {
		for _, m := range []core.Mode{core.ModeDL, core.ModeHB} {
			r, err := harness.RunLatency(harness.LatencyParams{
				Mode: m, Duration: d, Seed: *seed,
				LoadPerNode: 12.0 / 16 * trace.MB, // near capacity
			})
			if err != nil {
				return err
			}
			fmt.Printf("Fig 14 (%s) — all-tx vs local-tx latency (median/p95)\n", m)
			for i, name := range r.Names {
				fmt.Printf("  %-12s local %8s/%8s   all %8s/%8s\n", name,
					r.P50[i].Round(time.Millisecond), r.P95[i].Round(time.Millisecond),
					r.AllP50[i].Round(time.Millisecond), r.AllP95[i].Round(time.Millisecond))
			}
			record(benchRecord{
				Experiment: "fig14", Mode: m.String(),
				Metrics: map[string]float64{
					"local_p50_ms": durationMeanMs(r.P50), "local_p95_ms": durationMeanMs(r.P95),
					"all_p50_ms": durationMeanMs(r.AllP50), "all_p95_ms": durationMeanMs(r.AllP95),
				},
			})
		}
		return nil
	})

	run("fig15", func() error {
		var results []*harness.GeoResult
		for _, m := range []core.Mode{core.ModeHB, core.ModeHBLink, core.ModeDL} {
			r, err := harness.RunGeo(harness.GeoParams{
				Cities: trace.VultrCities, Mode: m, Duration: d, Seed: *seed,
			})
			if err != nil {
				return err
			}
			results = append(results, r)
			record(benchRecord{Experiment: "fig15", Mode: m.String(), Metrics: geoMetrics(r)})
		}
		fmt.Print(harness.FormatGeo(results))
		return nil
	})

	run("fig16", func() error {
		// Not recorded in JSON: this is an input-trace illustration, not
		// a performance measurement.
		tr := trace.GaussMarkov(trace.GaussMarkovParams{
			Mean: 10 * trace.MB, Sigma: 5 * trace.MB, Alpha: 0.98, Tick: time.Second,
		}, 300, *seed)
		fmt.Println("Fig 16 — example Gauss-Markov bandwidth trace (MB/s, one sample per 10 s)")
		for i := 0; i < len(tr.Rates); i += 10 {
			fmt.Printf("  t=%3ds  %6.2f\n", i, tr.Rates[i]/trace.MB)
		}
		return nil
	})

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
		fmt.Printf("  %-16s", label)
		for _, name := range names {
			fmt.Printf("  %s %.3f", name, metrics[name])
		}
		fmt.Println()
		record(benchRecord{Experiment: id, Mode: core.ModeDL.String(), Params: params, Metrics: metrics})
	}

	run("abl-priority", func() error {
		// The dispersal:retrieval priority weight T (§5 uses 30). High T
		// protects the dispersal pipeline's epoch rate — what lets every
		// node keep voting while retrieval is backlogged; low T hands that
		// bandwidth to retrieval, raising confirmed throughput at the cost
		// of consensus progress.
		fmt.Println("Ablation — priority weight T on Gauss-Markov links")
		for _, T := range []float64{1, 3, 30, 300} {
			r, err := harness.RunControlled(harness.ControlledParams{
				Mode: core.ModeDL, Temporal: true, Duration: d, Seed: *seed, PriorityWeight: T,
			})
			if err != nil {
				return err
			}
			point("abl-priority", fmt.Sprintf("T=%g", T), map[string]float64{"priority_weight": T},
				map[string]float64{"mean_throughput_mbps": r.Mean, "epoch_rate": r.EpochRate})
		}
		return nil
	})

	run("abl-batch", func() error {
		// The batching tradeoff behind §5's rate control. With the paper's
		// 100 ms delay gate, proposals ride the epoch cadence and batch
		// size adapts to load (the first row). Pinning the delay gate high
		// and forcing byte thresholds (paper-equivalent 150 KB / 600 KB)
		// trades confirmation latency for fewer, larger blocks.
		fmt.Println("Ablation — proposal batching at 4 MB/s system load, fastest node's local p50")
		for _, tc := range []struct {
			name  string
			delay time.Duration
			bytes int
		}{
			{"adaptive-100ms", 100 * time.Millisecond, 0},
			{"batch=150KB", time.Hour, 150 << 10},
			{"batch=600KB", time.Hour, 600 << 10},
		} {
			r, err := harness.RunLatency(harness.LatencyParams{
				Mode: core.ModeDL, Duration: d, Seed: *seed,
				LoadPerNode: 4.0 / 16 * trace.MB,
				BatchDelay:  tc.delay, BatchBytes: tc.bytes,
			})
			if err != nil {
				return err
			}
			point("abl-batch", tc.name,
				map[string]float64{"batch_delay_ms": float64(tc.delay / time.Millisecond), "batch_kb": float64(tc.bytes >> 10)},
				map[string]float64{"fast_p50_ms": float64(r.P50[0]) / float64(time.Millisecond)})
		}
		return nil
	})

	run("abl-lag", func() error {
		// The §4.5 bound P ("stop proposing when more than P epochs
		// behind") on a saturated fixed-block cluster: P=0 (pure DL) lets
		// dispersal run arbitrarily ahead of retrieval — the lag grows
		// with the run — and a small P throttles the pipeline to the
		// retrieval drain rate.
		fmt.Println("Ablation — §4.5 lag guard P, n=16, 500 KB blocks, infinite backlog")
		for _, P := range []uint64{0, 2, 8, 32} {
			r, err := harness.RunScalability(harness.ScaleParams{
				N: 16, BlockBytes: 500 << 10, Duration: d, Seed: *seed, MaxEpochLag: P,
			})
			if err != nil {
				return err
			}
			point("abl-lag", fmt.Sprintf("P=%d", P), map[string]float64{"max_epoch_lag": float64(P)},
				map[string]float64{"mean_throughput_mbps": r.Throughput, "final_lag_epochs": r.FinalLag})
		}
		return nil
	})

	panel := runtimePanel()
	printRuntimePanel(os.Stdout, panel)

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
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d records)\n", path, len(records))
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
