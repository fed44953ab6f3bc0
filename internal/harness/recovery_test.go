// The recovery scenarios — a crash-restart, an outage past the
// retention horizon and a fresh join — are fixed chaos Plans run
// through chaos.Run. chaos imports harness, so these tests live in the
// external test package.
package harness_test

import (
	"testing"
	"time"

	"dledger/internal/chaos"
	"dledger/internal/harness"
	"dledger/internal/simnet"
	"dledger/internal/trace"
)

// Node 0 of a four-node cluster leaves and comes back, judged against
// node 1, which never fails. Each plan runs under every chaos
// invariant; the tests add the scenario's own claims.
const victim, witness = 0, 1

// recoveryConfig sizes the fixed plans: 2 MB/s per node under 50 KB/s
// of offered load per node.
func recoveryConfig(stateSync bool, horizon time.Duration, clients int) chaos.Config {
	return chaos.Config{N: 4, Horizon: horizon, Rate: 2 * trace.MB, LoadPerNode: 50 << 10,
		StateSync: stateSync, Clients: clients}
}

// outagePlan keeps the victim down from 6 s to 22 s, long enough that
// every peer prunes its position.
func outagePlan(seed int64) *chaos.Plan {
	return &chaos.Plan{Seed: seed, Crashes: []chaos.Crash{{Node: victim, At: 6 * time.Second, RestartAt: 22 * time.Second}}}
}

// runPlan runs p twice under cfg, requires every invariant to hold and
// both runs to produce the same fingerprint, and returns the first run.
// A violated invariant does not stop the test, so the scenario's own
// checks still report.
func runPlan(t *testing.T, p *chaos.Plan, cfg chaos.Config) *chaos.Result {
	t.Helper()
	var runs [2]*chaos.Result
	for k := range runs {
		r, err := chaos.Run(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed() && k == 0 {
			t.Errorf("invariants violated:\n%s", r.Report())
		}
		runs[k] = r
	}
	if a, b := runs[0].Fingerprint, runs[1].Fingerprint; a != b {
		t.Fatalf("replay diverged: fingerprint %016x vs %016x", a, b)
	}
	return runs[0]
}

func lastEpoch(log []harness.LogEntry) uint64 {
	if len(log) == 0 {
		return 0
	}
	return log[len(log)-1].Epoch
}

// checkCaughtUp requires the victim to end within two epochs of the
// witness's delivery frontier.
func checkCaughtUp(t *testing.T, r *chaos.Result) {
	t.Helper()
	if v, w := lastEpoch(r.Logs[victim]), lastEpoch(r.Logs[witness]); v+2 < w {
		t.Errorf("victim did not catch up: delivered through epoch %d, witness %d", v, w)
	}
}

// checkSyncedBack requires the victim to have reached the log through
// state sync and returned to full participation: it completed a
// checkpoint bootstrap, its log skips a nonzero stretch of the
// witness's, the witness committed a block the victim proposed after
// its return, and the victim caught up.
func checkSyncedBack(t *testing.T, r *chaos.Result) {
	t.Helper()
	syncs := r.StateSyncs[victim]
	if syncs < 1 {
		t.Errorf("victim completed %d state syncs, want >= 1", syncs)
	}
	vlog, wlog := r.Logs[victim], r.Logs[witness]
	skipped, violations := harness.CheckSegmentedAgreement(victim, vlog, witness, wlog, int(syncs))
	if len(violations) > 0 {
		t.Errorf("victim log does not re-attach to the witness's: %v", violations)
	}
	if skipped == 0 {
		t.Error("victim's log shows no skipped gap: it replayed history instead of syncing past it")
	}
	// The victim's log leaves the witness's at the synced-over gap. Its
	// pre-outage incarnation never reached the epoch where the log
	// re-attaches, so a victim block the witness delivered from there on
	// was proposed after the return.
	k := 0
	for k < len(vlog) && k < len(wlog) && vlog[k] == wlog[k] {
		k++
	}
	if k == len(vlog) {
		t.Fatalf("victim delivered nothing past the gap (%d blocks, witness %d)", len(vlog), len(wlog))
	}
	proposedAfter := false
	for _, e := range wlog {
		if e.Proposer == victim && e.Epoch >= vlog[k].Epoch {
			proposedAfter = true
			break
		}
	}
	if !proposedAfter {
		t.Errorf("witness never delivered a block the victim proposed after re-attaching at epoch %d", vlog[k].Epoch)
	}
	checkCaughtUp(t, r)
	t.Logf("victim: %d state syncs, %d witness positions skipped, %d blocks (witness %d)",
		syncs, skipped, len(vlog), len(wlog))
}

// TestCrashRestartScenario kills a node (the emulator drops, not
// buffers, its traffic) after it has delivered, restarts it from its
// store, and requires it to catch back up. Run's prefix agreement and
// recovery invariants require its log to continue the witnesses' with
// nothing re-delivered, skipped or reordered, and to grow after the
// restart.
func TestCrashRestartScenario(t *testing.T) {
	crash := chaos.Crash{Node: victim, At: 8 * time.Second}
	// The same schedule with the node left down, stopped mid-outage: the
	// victim's log at its crash.
	pre := runPlan(t, &chaos.Plan{Seed: 7, Crashes: []chaos.Crash{crash}}, recoveryConfig(false, 12*time.Second, 0)).Logs[victim]
	if len(pre) == 0 {
		t.Fatal("victim delivered nothing before the crash")
	}
	crash.RestartAt = 16 * time.Second
	r := runPlan(t, &chaos.Plan{Seed: 7, Crashes: []chaos.Crash{crash}}, recoveryConfig(false, 30*time.Second, 0))
	checkCaughtUp(t, r)
	t.Logf("blocks delivered per node: victim %d (%d before the crash), others %d %d %d",
		len(r.Logs[victim]), len(pre), len(r.Logs[1]), len(r.Logs[2]), len(r.Logs[3]))
}

// TestOutageBeyondHorizon is the acceptance scenario for state sync: a
// node down long enough that every peer pruned its position must rejoin
// through a checkpoint bootstrap and return to full participation.
func TestOutageBeyondHorizon(t *testing.T) {
	checkSyncedBack(t, runPlan(t, outagePlan(1), recoveryConfig(true, 40*time.Second, 0)))
}

// TestStateSyncDeterminism replays a second outage seed on a shorter
// horizon: a run that state-syncs must still be fully determined by its
// seed, or a failing seed could not be replayed.
func TestStateSyncDeterminism(t *testing.T) {
	r := runPlan(t, outagePlan(7), recoveryConfig(true, 32*time.Second, 0))
	if syncs := r.StateSyncs[victim]; syncs < 1 {
		t.Errorf("victim completed %d state syncs, want >= 1: the replay did not cover a sync", syncs)
	}
}

// TestFreshNodeJoins boots a configured member mid-run with an empty
// store (the emulated `dlnode -join`).
func TestFreshNodeJoins(t *testing.T) {
	r := runPlan(t, &chaos.Plan{Seed: 3, Joins: []chaos.Join{{Node: victim, At: 22 * time.Second}}},
		recoveryConfig(true, 40*time.Second, 0))
	checkSyncedBack(t, r)
}

// TestJoinWithClients joins with gateway clients attached: the joiner's
// committed-hash memory is seeded from the manifest, so resubmissions
// of synced-over commits stay idempotent, and Run's gateway invariants
// require every proof to verify.
func TestJoinWithClients(t *testing.T) {
	r := runPlan(t, &chaos.Plan{Seed: 5, Joins: []chaos.Join{{Node: victim, At: 22 * time.Second}}},
		recoveryConfig(true, 40*time.Second, 1))
	checkSyncedBack(t, r)
}

// TestWholeClusterRestart crashes every node, node 0 first and the rest
// a second later with its traffic still in flight, and restarts all four
// from their stores at once. Run's recovery invariant requires each to
// deliver again, and prefix agreement requires each log to continue
// where it stopped. The schedule guards the whole-cluster restart path;
// it does not reproduce the stall the live-cluster restart tests of
// package transport hit now and then: 84 of 84 variants of it (seeds
// 1–7, first crash at 6, 8 or 10 s, nodes 1–3 down 0 or 1 s later,
// restart 2 or 4 s after that) stayed live in the emulator.
//
// The "withheld" plan aims at the dispersal half of that stall: for 3 s
// before all four nodes crash together, proposer 1's traffic to node 3
// is cut (node 3 never gets its chunks) and nodes 0 and 3 reach nodes 1
// and 2 only through up to J of jitter (their Readys may arrive after
// the crash). A committed block whose chunks only uncompleted servers
// held is lost to a restart that forgets what those servers said. The
// emulator's link rules cannot withhold one message kind, and 482
// variants stayed live even before servers journaled their chunks:
// crash at 8, 8.5, 9, 9.5 or 10 s after a 1.5 or 3 s window, seeds
// 1–10, J of 0.5, 1, 2 or 4 s, with the chunk link held, cut or
// jittered and the links into node 1 jittered, held or cut. The
// engine-level twin, which withholds exactly the chunk and the Readys,
// is core's TestWholeClusterRestartCommittedBlockStaysRetrievable. The
// cut makes the plan lossy, so Run checks no liveness on it; the test
// requires every node to end within two epochs of the cluster's
// frontier.
func TestWholeClusterRestart(t *testing.T) {
	wholeCluster := func(first, rest, restart time.Duration) []chaos.Crash {
		var crashes []chaos.Crash
		for node := 0; node < 4; node++ {
			at := rest
			if node == 0 {
				at = first
			}
			crashes = append(crashes, chaos.Crash{Node: node, At: at, RestartAt: restart})
		}
		return crashes
	}
	withheld := []chaos.LinkRule{{From: 1, To: 3, At: 6 * time.Second, Until: 9 * time.Second, Fault: simnet.LinkFault{Cut: true}}}
	for _, from := range []int{0, 3} {
		for _, to := range []int{1, 2} {
			withheld = append(withheld, chaos.LinkRule{From: from, To: to, At: 6 * time.Second, Until: 9 * time.Second,
				Fault: simnet.LinkFault{Jitter: 2 * time.Second}})
		}
	}
	for _, tc := range []struct {
		name string
		plan *chaos.Plan
	}{
		{"staggered", &chaos.Plan{Seed: 11, Crashes: wholeCluster(8*time.Second, 9*time.Second, 12*time.Second)}},
		{"withheld", &chaos.Plan{Seed: 3, Links: withheld, Crashes: wholeCluster(9*time.Second, 9*time.Second, 11*time.Second)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := runPlan(t, tc.plan, recoveryConfig(false, 30*time.Second, 0))
			var frontier uint64
			for _, log := range r.Logs {
				frontier = max(frontier, lastEpoch(log))
			}
			for node, log := range r.Logs {
				if lastEpoch(log)+2 < frontier {
					t.Errorf("node %d stopped at epoch %d after the restart; the frontier is %d", node, lastEpoch(log), frontier)
				}
			}
			t.Logf("blocks delivered per node: %d %d %d %d",
				len(r.Logs[0]), len(r.Logs[1]), len(r.Logs[2]), len(r.Logs[3]))
		})
	}
}
