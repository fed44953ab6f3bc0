package chaos

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dledger/internal/simnet"
	"dledger/internal/trace"
	"dledger/internal/wire"
)

// seedFlag replays one specific seed:
//
//	go test ./internal/chaos -run Explore -seed=42
//
// The test runs the seed twice and verifies the runs are byte-for-byte
// identical (same fault schedule, same final logs), then asserts the
// invariants — exactly what a failing sweep's "replay:" line asks for.
var seedFlag = flag.Int64("seed", 0, "replay this chaos seed (0 = default seed set)")

// TestExploreReplayByteForByte verifies the subsystem's foundational
// property: a seed fully determines the run. Without it, a failing seed
// from CI could not be debugged locally.
func TestExploreReplayByteForByte(t *testing.T) {
	seeds := []int64{1, 2, 4}
	if *seedFlag != 0 {
		seeds = []int64{*seedFlag}
	}
	for _, seed := range seeds {
		r1, err := Explore(seed, Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r2, err := Explore(seed, Config{})
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if !bytes.Equal(r1.Plan.Encode(), r2.Plan.Encode()) {
			t.Errorf("seed %d generated two different fault schedules", seed)
		}
		if !reflect.DeepEqual(r1.Logs, r2.Logs) {
			t.Errorf("seed %d produced two different delivery logs", seed)
		}
		if r1.Fingerprint != r2.Fingerprint {
			t.Errorf("seed %d fingerprints differ: %016x vs %016x", seed, r1.Fingerprint, r2.Fingerprint)
		}
		t.Log(r1.Report())
		if r1.Failed() {
			t.Errorf("seed %d violated invariants:\n%s", seed, r1.Report())
		}
	}
}

// TestExploreSweepQuick is the fast randomized sweep that runs on every
// PR; CI's nightly job extends the seed range via -chaos.seeds in
// cmd/dlsim. Every seed must hold every invariant.
func TestExploreSweepQuick(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r, err := Explore(seed, Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Failed() {
			t.Errorf("seed %d:\n%s", seed, r.Report())
		}
	}
}

// TestExploreWithGatewayClients runs the randomized sweep with gateway
// clients attached to every node: on top of the consensus invariants,
// every streamed commit proof must verify, no honest node may commit a
// client transaction twice (dedup across retries and crash-restarts),
// and every accepted transaction must commit by the horizon. The replay
// determinism that makes failing seeds debuggable must survive the
// client machinery too.
func TestExploreWithGatewayClients(t *testing.T) {
	cfg := Config{Clients: 2}
	for seed := int64(7); seed <= 11; seed++ {
		r, err := Explore(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Failed() {
			t.Errorf("seed %d:\n%s", seed, r.Report())
		}
		commits := 0
		for _, rep := range r.Clients {
			commits += rep.Commits
		}
		if commits == 0 {
			t.Errorf("seed %d: no client commit ever flowed", seed)
		}
	}
	// Replay determinism with clients enabled.
	r1, err := Explore(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Explore(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Errorf("client-traffic fingerprints differ: %016x vs %016x", r1.Fingerprint, r2.Fingerprint)
	}
	if !reflect.DeepEqual(r1.Clients, r2.Clients) {
		t.Error("client reports differ across replays of one seed")
	}
}

// TestByzantinePartitionMatrix pins down the acceptance scenarios: each
// Byzantine behavior, at full strength (f nodes), under a partition
// that cuts honest nodes off mid-run and heals — across cluster sizes
// 7..16. Invariants must hold everywhere.
func TestByzantinePartitionMatrix(t *testing.T) {
	cases := []struct {
		n        int
		behavior Behavior
	}{
		{7, Equivocate},
		{10, WithholdChunks},
		{13, BadShares},
		{16, FlipVotes},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("N%d_%s", tc.n, tc.behavior), func(t *testing.T) {
			cfg := Config{N: tc.n, Horizon: 15 * time.Second, LoadPerNode: 40 << 10}
			cfg = cfg.withDefaults()
			p := &Plan{Seed: int64(tc.n), Byzantine: map[int]Behavior{}}
			// Full fault budget of one behavior, on the highest ids.
			for k := 0; k < cfg.f(); k++ {
				p.Byzantine[cfg.N-1-k] = tc.behavior
			}
			// Partition two honest nodes away for 5 emulated seconds.
			p.Partitions = []Partition{{
				Side: []int{0, 1}, At: 3 * time.Second, Heal: 8 * time.Second,
			}}
			r, err := Run(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed() {
				t.Fatalf("invariants violated:\n%s", r.Report())
			}
			// The run must have made real progress for the checks to mean
			// anything.
			if r.EpochsDelivered[0] < 3 {
				t.Fatalf("partitioned node delivered only %d epochs", r.EpochsDelivered[0])
			}
		})
	}
}

// TestCrashRestartWithByzantinePeers drives PR 1's recovery path under
// active Byzantine interference: an honest node crashes and must rejoin
// through the status catch-up protocol while a vote-flipper and an
// equivocator keep lying to it.
func TestCrashRestartWithByzantinePeers(t *testing.T) {
	cfg := Config{N: 10, Horizon: 20 * time.Second, LoadPerNode: 40 << 10}
	cfg = cfg.withDefaults()
	p := &Plan{
		Seed:      99,
		Byzantine: map[int]Behavior{8: FlipVotes, 9: Equivocate},
		Crashes:   []Crash{{Node: 2, At: 5 * time.Second, RestartAt: 9 * time.Second}},
	}
	r, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("invariants violated:\n%s", r.Report())
	}
	if r.EpochsDelivered[2] < 3 {
		t.Fatalf("restarted node delivered only %d epochs", r.EpochsDelivered[2])
	}
}

// TestLossyPartitionSafety destroys messages outright (lossy partition
// plus iid drop links). Liveness is forfeit by assumption — the paper
// assumes a reliable transport — but agreement, integrity and validity
// must survive arbitrary loss.
func TestLossyPartitionSafety(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r, err := Explore(seed, Config{Lossy: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Failed() {
			t.Errorf("seed %d:\n%s", seed, r.Report())
		}
	}
}

// TestGenerateRespectsFaultBudget checks the plan generator's contract:
// byzantine + crashed nodes never exceed f, byzantine nodes never
// crash, and every fault heals before the quiet tail.
func TestGenerateRespectsFaultBudget(t *testing.T) {
	cfg := Config{}.withDefaults()
	quiet := cfg.Horizon * 3 / 5
	for seed := int64(1); seed <= 500; seed++ {
		p := Generate(seed, cfg)
		if len(p.Byzantine)+len(p.Crashes) > cfg.f() {
			t.Fatalf("seed %d: %d byzantine + %d crashes exceeds F=%d",
				seed, len(p.Byzantine), len(p.Crashes), cfg.f())
		}
		for _, cr := range p.Crashes {
			if _, byz := p.Byzantine[cr.Node]; byz {
				t.Fatalf("seed %d: node %d both byzantine and crashed", seed, cr.Node)
			}
			if cr.RestartAt > quiet {
				t.Fatalf("seed %d: restart at %v after quiet point %v", seed, cr.RestartAt, quiet)
			}
		}
		for _, pt := range p.Partitions {
			if pt.Heal > quiet {
				t.Fatalf("seed %d: partition heals at %v after quiet point %v", seed, pt.Heal, quiet)
			}
			if pt.Lossy {
				t.Fatalf("seed %d: lossy partition without Lossy config", seed)
			}
		}
		for _, l := range p.Links {
			if l.Fault.Drop > 0 {
				t.Fatalf("seed %d: drop rule without Lossy config", seed)
			}
			if l.Until > quiet {
				t.Fatalf("seed %d: link rule clears at %v after quiet point %v", seed, l.Until, quiet)
			}
		}
	}
}

// TestOverlappingFaultWindowsMerge: two windows claiming the same link
// must not clobber each other — the earlier window's heal used to strip
// the later, still-active fault. The claim layer keeps the link faulted
// until the last claim ends, with Cut dominating Hold.
func TestOverlappingFaultWindowsMerge(t *testing.T) {
	sim := simnet.NewSim()
	net := simnet.NewNetwork(sim, simnet.Config{
		N:      2,
		Delay:  func(int, int) time.Duration { return time.Millisecond },
		Egress: []trace.Trace{trace.Constant(1e9), trace.Constant(1e9)},
	})
	got := 0
	net.SetHandler(1, func(wire.Envelope) { got++ })
	send := func() {
		net.Send(0, 1, wire.Envelope{From: 0, Epoch: 1, Proposer: 0,
			Payload: wire.GotChunk{}}, wire.PrioDispersal, 0)
	}
	lc := newLinkClaims(net)
	lc.add(0, 1, 1, simnet.LinkFault{Hold: true})
	lc.add(0, 1, 2, simnet.LinkFault{Hold: true})
	send()
	sim.Run(100 * time.Millisecond)
	lc.remove(0, 1, 1) // first window heals; second still active
	send()
	sim.Run(200 * time.Millisecond)
	if got != 0 {
		t.Fatalf("link delivered %d packets while a claim was still active", got)
	}
	lc.remove(0, 1, 2) // last claim ends: held packets release
	sim.Run(300 * time.Millisecond)
	if got != 2 {
		t.Fatalf("delivered %d packets after all claims ended, want 2", got)
	}

	// Cut dominates Hold: packets are destroyed, not queued, and ending
	// the Cut claim leaves the Hold claim in force.
	lc.add(0, 1, 3, simnet.LinkFault{Hold: true})
	lc.add(0, 1, 4, simnet.LinkFault{Cut: true})
	send()
	sim.Run(400 * time.Millisecond)
	lc.remove(0, 1, 4)
	send()
	sim.Run(500 * time.Millisecond)
	if got != 2 {
		t.Fatalf("got %d deliveries during cut/hold overlap, want still 2", got)
	}
	lc.remove(0, 1, 3)
	sim.Run(600 * time.Millisecond)
	if got != 3 {
		t.Fatalf("got %d deliveries after heal; the cut packet must be gone, the held one delivered", got)
	}
}

// TestTinyHorizonDoesNotPanic: -duration on the CLI feeds Horizon
// directly; sub-window horizons must clamp, not crash the generator.
func TestTinyHorizonDoesNotPanic(t *testing.T) {
	r, err := Explore(3, Config{Horizon: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("clamped-horizon run failed:\n%s", r.Report())
	}
}

// TestDegenerateClusterSizeClamps: -n 2 from the CLI must clamp, not
// panic the partition generator with rand.Intn(0).
func TestDegenerateClusterSizeClamps(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p := Generate(seed, Config{N: 2})
		if len(p.Byzantine) == 0 && len(p.Partitions) == 0 && len(p.Crashes) == 0 && len(p.Links) == 0 {
			continue
		}
	}
	if got := (Config{N: 2}).withDefaults().N; got < 4 {
		t.Fatalf("withDefaults kept degenerate N=%d", got)
	}
}

// TestReplayCommandCarriesConfig: a failure report from a non-default
// sweep must name the flags that reproduce its plan, not just the seed.
func TestReplayCommandCarriesConfig(t *testing.T) {
	r := &Result{Seed: 9, Cfg: Config{}.withDefaults()}
	if got := r.replayCommand(); got != "go test ./internal/chaos -run Explore -seed=9" {
		t.Fatalf("default-config replay = %q", got)
	}
	r = &Result{Seed: 9, Cfg: Config{N: 10, Lossy: true}.withDefaults()}
	want := "go run ./cmd/dlsim -chaos -seed 9 -n 10 -duration 25s -lossy"
	if got := r.replayCommand(); got != want {
		t.Fatalf("replay = %q, want %q", got, want)
	}
}

// TestHonestMaskAndEncodeStability: Encode must be canonical (stable
// across calls) since fingerprints and replay comparisons rest on it.
func TestHonestMaskAndEncodeStability(t *testing.T) {
	p := Generate(7, Config{}.withDefaults())
	if !bytes.Equal(p.Encode(), p.Encode()) {
		t.Fatal("Plan.Encode is not stable")
	}
	mask := p.HonestMask(7)
	for i, b := range p.Byzantine {
		if b != BehaviorNone && mask[i] {
			t.Fatalf("byzantine node %d marked honest", i)
		}
	}
}

// TestExploreStateSync runs the randomized sweep with the checkpoint
// subsystem enabled: the generator schedules outage-beyond-horizon
// events (a crash the cluster prunes past, or a brand-new member
// joining mid-run), and every such node must return to participation
// with its log re-attaching as a window of a full node's log.
func TestExploreStateSync(t *testing.T) {
	cfg := Config{StateSync: true}
	events := 0
	for seed := int64(1); seed <= 6; seed++ {
		r, err := Explore(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Failed() {
			t.Errorf("seed %d:\n%s", seed, r.Report())
		}
		events += len(r.Plan.Joins) + len(r.Plan.Crashes)
	}
	if events == 0 {
		t.Error("no seed scheduled any outage event — the sweep exercised nothing")
	}
	// Replay determinism must survive the sync machinery.
	r1, err := Explore(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Explore(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatalf("state-sync replay diverged: %016x vs %016x", r1.Fingerprint, r2.Fingerprint)
	}
}

// TestExploreStateSyncWithClients layers gateway clients on top: the
// joiner's committed-hash memory is seeded from the manifest, so dedup
// and proof verification must hold across the synced-over gap.
func TestExploreStateSyncWithClients(t *testing.T) {
	cfg := Config{StateSync: true, Clients: 1}
	for seed := int64(51); seed <= 54; seed++ {
		r, err := Explore(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Failed() {
			t.Errorf("seed %d:\n%s", seed, r.Report())
		}
	}
}

// TestStateSyncClientsCommitEveryAcceptedTx replays the nightly
// `dlsim -chaos -sync -clients 2` sweep on seeds 25 and 500, at dlsim's
// 30 s horizon. In both, a restarted node's status catch-up adopts the
// epochs it missed one at a time: a proposal into the slot after its
// last one was once judged at the first adoption, as a slot still open,
// and then went out with transactions once the catch-up reached the
// frontier. That slot was decided, so the block never committed, and
// neither did the accepted transactions it carried.
func TestStateSyncClientsCommitEveryAcceptedTx(t *testing.T) {
	cfg := Config{StateSync: true, Clients: 2, Horizon: 30 * time.Second}
	for _, seed := range []int64{25, 500} {
		r, err := Explore(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Failed() {
			t.Errorf("seed %d:\n%s", seed, r.Report())
		}
	}
}

// TestJoinRequiresStateSync: a plan with a Join under a non-sync config
// must be rejected, not silently run a node that can never catch up.
func TestJoinRequiresStateSync(t *testing.T) {
	p := &Plan{Seed: 1, Joins: []Join{{Node: 1, At: 5 * time.Second}}}
	if _, err := Run(p, Config{}); err == nil {
		t.Fatal("join without StateSync accepted")
	}
	if _, err := Run(p, Config{StateSync: true}); err != nil {
		t.Fatalf("join with StateSync rejected: %v", err)
	}
}

// TestMalformedCrashRejected: a crash outside the cluster or a restart
// not after its crash is refused before the run starts.
func TestMalformedCrashRejected(t *testing.T) {
	for _, tc := range []struct {
		crash Crash
		want  string
	}{
		{Crash{Node: 9, At: 5 * time.Second}, "crash node 9 out of range"},
		{Crash{Node: -1, At: 5 * time.Second}, "crash node -1 out of range"},
		{Crash{Node: 1, At: 5 * time.Second, RestartAt: 3 * time.Second}, "not after its crash"},
		{Crash{Node: 1, At: 5 * time.Second, RestartAt: 5 * time.Second}, "not after its crash"},
	} {
		_, err := Run(&Plan{Seed: 1, Crashes: []Crash{tc.crash}}, Config{N: 4})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want one containing %q", tc.crash, err, tc.want)
		}
	}
}

// TestVoteCrashSweep is the BA vote-persistence regression net: the
// generated schedule pairs flip-votes Byzantine peers with an honest
// node crashed and restarted MID-round, the exact window where a
// vote-less restart (the pre-vote-persistence code) could re-send
// BVal/Aux inconsistent with its pre-crash votes and hand the flippers
// an f+1-th effectively-faulty node. With WAL-backed vote restore the
// restart re-sends byte-identical votes, so every seed must hold
// agreement, integrity, liveness and recovery.
func TestVoteCrashSweep(t *testing.T) {
	cfg := Config{VoteCrash: true, Horizon: 15 * time.Second}
	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= seeds; seed++ {
		r, err := Explore(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Failed() {
			t.Errorf("seed %d:\n%s", seed, r.Report())
		}
		// The schedule must actually exercise the window: a crash with a
		// short outage, plus flip-votes peers whenever F > 1 allows.
		if len(r.Plan.Crashes) != 1 || r.Plan.Crashes[0].RestartAt == 0 {
			t.Fatalf("seed %d: vote-crash plan without a restarting crash: %s", seed, r.Plan)
		}
		if outage := r.Plan.Crashes[0].RestartAt - r.Plan.Crashes[0].At; outage > 2*time.Second {
			t.Fatalf("seed %d: outage %v too long to land mid-round", seed, outage)
		}
		if r.Cfg.f() > 1 && len(r.Plan.Byzantine) == 0 {
			t.Fatalf("seed %d: no flip-votes peers in the schedule", seed)
		}
		for n, b := range r.Plan.Byzantine {
			if b != FlipVotes {
				t.Fatalf("seed %d: node %d has behavior %s, want flip-votes", seed, n, b)
			}
		}
	}
	// Replay determinism for the new generator.
	r1, err := Explore(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Explore(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Errorf("vote-crash fingerprints differ: %016x vs %016x", r1.Fingerprint, r2.Fingerprint)
	}
}

// TestFailureEmitsFlightDump forces a deterministic invariant failure —
// two of four nodes crash forever, stalling a cluster that tolerates
// one fault — and verifies the failure report carries the cross-node
// flight-recorder post-mortem, while the fingerprint (plan + logs only)
// stays independent of the dump.
func TestFailureEmitsFlightDump(t *testing.T) {
	p := &Plan{
		Seed: 1,
		Crashes: []Crash{
			{Node: 0, At: time.Second},
			{Node: 1, At: time.Second},
			{Node: 2, At: time.Second},
			{Node: 3, At: time.Second},
		},
	}
	cfg := Config{N: 4, Horizon: 6 * time.Second}
	r, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Failed() {
		t.Fatalf("a whole-cluster permanent crash must violate liveness:\n%s", r.Report())
	}
	if r.FlightDump == "" {
		t.Fatal("failing run produced no flight-recorder dump")
	}
	for node := 0; node < cfg.N; node++ {
		if want := fmt.Sprintf("node %d:", node); !strings.Contains(r.FlightDump, want) {
			t.Errorf("dump missing %q section:\n%.600s", want, r.FlightDump)
		}
	}
	// The healthy prefix recorded real protocol events.
	for _, want := range []string{"chunk_sent", "vote_cast"} {
		if !strings.Contains(r.FlightDump, want) {
			t.Errorf("dump has no %q events:\n%.600s", want, r.FlightDump)
		}
	}
	report := r.Report()
	if !strings.Contains(report, "flight recorder (protocol events around the violation):") {
		t.Errorf("Report() does not render the dump:\n%.600s", report)
	}

	// Same plan, same fingerprint, dump or no dump: the dump must never
	// leak into the replay identity.
	r2, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Fingerprint != r.Fingerprint {
		t.Errorf("fingerprints differ across replays: %016x vs %016x", r.Fingerprint, r2.Fingerprint)
	}
}
