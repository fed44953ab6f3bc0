// Command dlsim runs DispersedLedger's emulated adversarial scenarios:
// the seeded chaos explorer (partitions, Byzantine nodes, crashes and,
// with -sync, state-sync outages) and the fixed join demo. The paper's
// figures are cmd/dlbench's.
//
// Examples:
//
//	dlsim -chaos -n 7 -seed 42                    # one adversarial run
//	dlsim -chaos -seeds 100                       # seeded chaos sweep
//	dlsim -join                                   # a member boots mid-run and state-syncs in
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dledger/internal/chaos"
	"dledger/internal/core"
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
	n := flag.Int("n", 0, "with -chaos: cluster size (0 = 7)")
	duration := flag.Duration("duration", 30*time.Second, "simulated duration")
	seed := flag.Int64("seed", 1, "random seed")
	chaosRun := flag.Bool("chaos", false, "run seeded adversarial simulation (partitions, Byzantine nodes, crashes)")
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
	fmt.Fprintln(os.Stderr, "dlsim: pass -chaos or -join (the paper's figures are cmd/dlbench's)")
	flag.Usage()
	os.Exit(2)
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
