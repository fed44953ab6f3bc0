// Command dlsim runs a single emulated DispersedLedger experiment with
// configurable parameters — a workbench for exploring the protocol
// beyond the paper's fixed configurations.
//
// Examples:
//
//	dlsim -mode DL -n 16 -duration 30s            # geo profile throughput
//	dlsim -mode HB -spatial -duration 20s         # Fig 11a-style run
//	dlsim -mode DL -temporal -priority 1          # priority ablation
//	dlsim -mode DL -load 0.5                      # latency at 0.5 MB/s/node
//	dlsim -chaos -n 7 -seed 42                    # one adversarial run
//	dlsim -chaos -seeds 100                       # seeded chaos sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dledger/internal/chaos"
	"dledger/internal/core"
	"dledger/internal/harness"
	"dledger/internal/trace"
)

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "DL":
		return core.ModeDL, nil
	case "DL-Coupled", "DLC":
		return core.ModeDLCoupled, nil
	case "HB":
		return core.ModeHB, nil
	case "HB-Link", "HBL":
		return core.ModeHBLink, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (DL, DL-Coupled, HB, HB-Link)", s)
	}
}

func main() {
	modeStr := flag.String("mode", "DL", "protocol: DL, DL-Coupled, HB, HB-Link")
	n := flag.Int("n", 0, "cluster size for controlled runs (0 = 16-city geo profile)")
	duration := flag.Duration("duration", 30*time.Second, "simulated duration")
	seed := flag.Int64("seed", 1, "random seed")
	spatial := flag.Bool("spatial", false, "controlled run with 10+0.5i MB/s spatial variation")
	temporal := flag.Bool("temporal", false, "controlled run with Gauss-Markov temporal variation")
	load := flag.Float64("load", 0, "offered load per node in MB/s (0 = infinite backlog throughput run)")
	priority := flag.Float64("priority", 0, "dispersal:retrieval priority weight T (0 = paper's 30)")
	scale := flag.Float64("scale", 0, "bandwidth down-scaling factor (0 = default)")
	chaosRun := flag.Bool("chaos", false, "run seeded adversarial simulation (partitions, Byzantine nodes, crashes) instead of a performance experiment")
	seeds := flag.Int("seeds", 1, "with -chaos: sweep this many seeds starting at -seed")
	lossy := flag.Bool("lossy", false, "with -chaos: allow message-destroying faults (safety checks only)")
	clients := flag.Int("clients", 0, "with -chaos: attach this many gateway clients per node and check the gateway invariants (proof verification, exactly-once commitment)")
	sync := flag.Bool("sync", false, "with -chaos: enable state sync and schedule outage-beyond-horizon events (long crashes, fresh joins)")
	voteCrash := flag.Bool("votecrash", false, "with -chaos: generate the BA vote-persistence schedule (flip-votes Byzantine peers plus a crash restarted mid-round)")
	join := flag.Bool("join", false, "demo: run an emulated cluster where one configured member first boots mid-run with an empty store and state-syncs in")
	flag.Parse()

	mode, err := parseMode(*modeStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *join {
		// Pass -duration through only when the user set it: the demo's
		// scenario default (40s) leaves the joiner a full tail to sync,
		// catch up AND land a committed proposal; dlsim's general 30s
		// default is not a statement about this scenario.
		d := time.Duration(0)
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "duration" {
				d = *duration
			}
		})
		runJoinDemo(*seed, d)
		return
	}
	if *chaosRun {
		runChaos(mode, *n, *seed, *seeds, *duration, *lossy, *clients, *sync, *voteCrash)
		return
	}

	switch {
	case *load > 0:
		r, err := harness.RunLatency(harness.LatencyParams{
			Mode: mode, Duration: *duration, Seed: *seed,
			LoadPerNode: *load * trace.MB, Scale: *scale,
		})
		fail(err)
		fmt.Print(harness.FormatLatency([]*harness.LatencyResult{r}))
	case *n > 0 || *spatial || *temporal:
		r, err := harness.RunControlled(harness.ControlledParams{
			N: *n, Mode: mode, Duration: *duration, Seed: *seed,
			Spatial: *spatial, Temporal: *temporal,
			PriorityWeight: *priority, Scale: *scale,
		})
		fail(err)
		fmt.Print(harness.FormatControlled(
			fmt.Sprintf("Controlled run: %s, spatial=%v temporal=%v T=%v",
				mode, *spatial, *temporal, *priority), []*harness.ControlledResult{r}))
	default:
		r, err := harness.RunGeo(harness.GeoParams{
			Mode: mode, Duration: *duration, Seed: *seed, Scale: *scale,
		})
		fail(err)
		fmt.Print(harness.FormatGeo([]*harness.GeoResult{r}))
	}
}

// runChaos sweeps [seed, seed+count) through chaos.Explore and exits
// nonzero if any invariant is violated; each failing seed's report
// carries the exact replay command.
func runChaos(mode core.Mode, n int, seed int64, count int, duration time.Duration, lossy bool, clients int, sync, voteCrash bool) {
	cfg := chaos.Config{Mode: mode, Lossy: lossy, Clients: clients, StateSync: sync, VoteCrash: voteCrash}
	if n > 0 {
		cfg.N = n
	}
	if duration > 0 {
		cfg.Horizon = duration
	}
	failures := 0
	for s := seed; s < seed+int64(count); s++ {
		r, err := chaos.Explore(s, cfg)
		fail(err)
		if r.Failed() || count == 1 {
			fmt.Print(r.Report())
		} else {
			fmt.Printf("chaos seed %d: ok (fingerprint %016x, epochs %v)\n",
				s, r.Fingerprint, r.EpochsDelivered)
		}
		if r.Failed() {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d seeds violated invariants\n", failures, count)
		os.Exit(1)
	}
}

// runJoinDemo runs the fixed join plan: node 0 of a 4-node emulated
// cluster first boots at 22 s with an empty store (`dlnode -join`'s
// emulated twin) and must state-sync in under every chaos invariant.
func runJoinDemo(seed int64, duration time.Duration) {
	cfg := chaos.Config{N: 4, Horizon: 40 * time.Second, Rate: 2 * trace.MB,
		LoadPerNode: 50 << 10, StateSync: true}
	if duration > 0 {
		cfg.Horizon = duration
	}
	r, err := chaos.Run(&chaos.Plan{Seed: seed, Joins: []chaos.Join{{Node: 0, At: 22 * time.Second}}}, cfg)
	fail(err)
	fmt.Print(r.Report())
	if r.Failed() {
		os.Exit(1)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
