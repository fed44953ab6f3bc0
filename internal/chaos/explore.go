package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"dledger/internal/core"
	"dledger/internal/harness"
	"dledger/internal/replica"
	"dledger/internal/trace"
)

// Config bounds what Explore's random plans may do and sizes the
// emulated cluster. The zero value is a sensible 7-node configuration.
type Config struct {
	// N sizes the cluster (default 7); it tolerates f() = floor((N-1)/3)
	// faults.
	N int
	// Mode is the protocol variant (default ModeDL).
	Mode core.Mode
	// Horizon is the emulated duration (default 25s). All faults are
	// scheduled in the first half and heal by 60%, leaving the tail for
	// the liveness and recovery invariants to settle.
	Horizon time.Duration
	// Rate is each node's egress/ingress bandwidth (default 4 MB/s);
	// LoadPerNode the offered Poisson load (default 60 KB/s).
	Rate, LoadPerNode float64
	// Lossy permits message-destroying faults: lossy partitions and iid
	// drop rules. The implementation (like the paper's) assumes a
	// reliable transport, so liveness is NOT checked on lossy runs —
	// only safety (agreement, integrity, validity).
	Lossy bool
	// StateSync runs the cluster with the checkpoint-transfer subsystem
	// on (core.Config.StateSync, RetainEpochs=8, sync points every 8
	// epochs) and lets the generator schedule outage-beyond-horizon
	// events: a long crash whose victim must bootstrap from a peer
	// checkpoint, or a fresh member joining mid-run with an empty store.
	// Crash victims' and joiners' logs are then checked with the window
	// form of agreement (their pre-outage prefix must match, and their
	// post-sync log must re-attach as a contiguous window of a full
	// node's log — the synced-over gap simply absent).
	StateSync bool
	// VoteCrash generates the BA vote-persistence regression schedule
	// instead of a fully random plan: every Byzantine assignment is
	// flip-votes (F−1 of them, keeping one fault-budget slot for the
	// victim) and one honest node crashes mid-run with a SHORT outage —
	// restarted within ~2s, while the epochs it was voting in are still
	// in flight cluster-wide. That restart window is exactly where a
	// node without durable votes could re-send BVal/Aux inconsistent
	// with its pre-crash votes, handing the vote-flipping peers an
	// f+1-th effectively-faulty node; with WAL vote persistence the
	// restart re-sends byte-identical votes and the sweep must hold
	// agreement/integrity/liveness. Random link delay/jitter rules keep
	// the rounds honestly asynchronous.
	VoteCrash bool
	// Clients attaches this many emulated gateway clients to every node
	// (0 = none): Poisson submissions through each node's gateway.Hub,
	// receipt-driven backoff, post-restart resubmission, and proof
	// verification. The run then also checks the gateway invariants:
	// every proof verifies, honest nodes never double-commit a client
	// transaction, and (non-lossy) every accepted transaction of an
	// honest node's client commits by the horizon (each client offers
	// harness.ClusterOptions' default 20 KB/s).
	Clients int
}

// Bounds on what Generate's random plans may do. Byzantine assignments
// are capped at f() — beyond f the paper promises nothing; crash
// victims are honest and restart before the quiet tail.
const (
	maxCrashes    = 1
	maxPartitions = 2
	maxLinkRules  = 3 // random delay/jitter/duplication rules
)

// f is the cluster's fault budget, floor((N-1)/3).
func (c Config) f() int { return (c.N - 1) / 3 }

func (c Config) withDefaults() Config {
	if c.N < 4 {
		// Below N=4 there is no fault budget (N >= 3F+1 forces F=0) and
		// the partition generator has no legal side size; clamp rather
		// than crash — an adversarial test of a cluster that cannot
		// tolerate an adversary is meaningless anyway.
		c.N = 7
	}
	if c.Horizon == 0 {
		c.Horizon = 25 * time.Second
	}
	if c.Horizon < 5*time.Second {
		// The generator schedules faults inside [1s, Horizon/2) and needs
		// a quiet tail for the liveness invariant; shorter horizons would
		// leave no legal window (and divide by zero in the scheduler).
		c.Horizon = 5 * time.Second
	}
	if c.Rate == 0 {
		c.Rate = 4 * trace.MB
	}
	if c.LoadPerNode == 0 {
		c.LoadPerNode = 60 << 10
	}
	return c
}

// Result reports one adversarial run.
type Result struct {
	Seed int64
	Cfg  Config
	Plan *Plan
	// Honest lists the nodes held to the correctness invariants.
	Honest []int
	// Logs are the recorded delivery logs of all nodes.
	Logs [][]harness.LogEntry
	// EpochsDelivered per node, at the horizon.
	EpochsDelivered []int64
	// StateSyncs per node: checkpoint bootstraps its final incarnation
	// completed.
	StateSyncs []int64
	// Clients are the gateway-client reports (when Config.Clients > 0).
	Clients []harness.ClientReport
	// Violations is empty iff every checked invariant held.
	Violations []string
	// FlightDump is the cross-node flight-recorder post-mortem, rendered
	// only when a violation fired: every node's protocol-event journal
	// filtered to the epochs the violations name (everything when no
	// violation names one). It rides outside the fingerprint — the
	// fingerprint digests the fault schedule and delivery logs only.
	FlightDump string
	// Fingerprint digests the fault schedule and every honest log —
	// two runs of the same seed must produce identical fingerprints.
	Fingerprint uint64

	// generated marks a plan that came from Generate(Seed, Cfg), i.e.
	// the seed+config fully determine the run and a replay command
	// exists. Hand-built plans reproduce via the printed plan instead.
	generated bool
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Report renders a human-readable summary, including the replay line
// for failing seeds.
func (r *Result) Report() string {
	s := fmt.Sprintf("chaos seed %d: N=%d F=%d mode=%s fingerprint=%016x\n",
		r.Seed, r.Cfg.N, r.Cfg.f(), r.Cfg.Mode, r.Fingerprint)
	s += r.Plan.String()
	s += fmt.Sprintf("  epochs delivered per node: %v\n", r.EpochsDelivered)
	if r.Cfg.StateSync {
		s += fmt.Sprintf("  state syncs per node: %v\n", r.StateSyncs)
	}
	if len(r.Clients) > 0 {
		var acc, commits, busy, dup, resub int
		for _, rep := range r.Clients {
			acc += rep.Accepted
			commits += rep.Commits
			busy += rep.RejectedBusy
			dup += rep.RejectedDup
			resub += rep.Resubmitted
		}
		s += fmt.Sprintf("  gateway clients: %d accepted, %d commits verified, %d busy, %d dup, %d resubmits\n",
			acc, commits, busy, dup, resub)
	}
	if !r.Failed() {
		return s + "  all invariants held\n"
	}
	for _, v := range r.Violations {
		s += "  VIOLATION: " + v + "\n"
	}
	if r.FlightDump != "" {
		s += "  flight recorder (protocol events around the violation):\n"
		for _, line := range strings.Split(strings.TrimRight(r.FlightDump, "\n"), "\n") {
			s += "    " + line + "\n"
		}
	}
	if r.generated {
		s += "  replay: " + r.replayCommand() + "\n"
	} else {
		s += "  replay: hand-built plan — re-run chaos.Run with the plan printed above\n"
	}
	return s
}

// replayCommand renders the exact command reproducing a generated run.
// The plan (and hence the fingerprint) is a function of seed AND
// config, so a failure from a non-default sweep must carry its flags —
// a bare seed would replay a different plan.
func (r *Result) replayCommand() string {
	def := Config{}.withDefaults()
	if r.Cfg == def {
		return fmt.Sprintf("go test ./internal/chaos -run Explore -seed=%d", r.Seed)
	}
	// dlsim can express N, Mode, Horizon, Lossy and Clients; everything
	// else must match what dlsim (and this config) derive by default, or
	// no CLI command reproduces the run.
	cliCfg := Config{N: r.Cfg.N, Mode: r.Cfg.Mode, Horizon: r.Cfg.Horizon,
		Lossy: r.Cfg.Lossy, Clients: r.Cfg.Clients, StateSync: r.Cfg.StateSync,
		VoteCrash: r.Cfg.VoteCrash}.withDefaults()
	if r.Cfg != cliCfg {
		return fmt.Sprintf("chaos.Explore(%d, <the identical Config>)", r.Seed)
	}
	cmd := fmt.Sprintf("go run ./cmd/dlsim -chaos -seed %d -n %d -duration %s",
		r.Seed, r.Cfg.N, r.Cfg.Horizon)
	if r.Cfg.Mode != core.ModeDL {
		cmd += " -mode " + r.Cfg.Mode.String()
	}
	if r.Cfg.Lossy {
		cmd += " -lossy"
	}
	if r.Cfg.Clients > 0 {
		cmd += fmt.Sprintf(" -clients %d", r.Cfg.Clients)
	}
	if r.Cfg.StateSync {
		cmd += " -sync"
	}
	if r.Cfg.VoteCrash {
		cmd += " -votecrash"
	}
	return cmd
}

// Generate builds the random fault plan for a seed under cfg's bounds.
// Exposed so tests can inspect schedules without running them.
func Generate(seed int64, cfg Config) *Plan {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	if cfg.VoteCrash {
		return generateVoteCrash(rng, seed, cfg)
	}
	p := &Plan{Seed: seed, Byzantine: map[int]Behavior{}}

	// Fault window: everything starts in [1s, half) and ends by 60%.
	half := cfg.Horizon / 2
	quiet := cfg.Horizon * 3 / 5
	window := func() (at, until time.Duration) {
		at = time.Second + time.Duration(rng.Int63n(int64(half-time.Second)))
		until = at + time.Duration(rng.Int63n(int64(quiet-at)))
		if until <= at {
			until = at + time.Millisecond
		}
		return at, until
	}

	// Byzantine assignments, then crashes among the remaining honest
	// nodes: the total of byzantine + concurrently-down (crashed or
	// not-yet-joined) stays <= F so liveness remains guaranteed once
	// everything heals.
	nodes := rng.Perm(cfg.N)
	byz := rng.Intn(cfg.f() + 1)
	for _, i := range nodes[:byz] {
		p.Byzantine[i] = Behaviors[rng.Intn(len(Behaviors))]
	}
	budget := cfg.f() - byz
	next := byz // next unassigned node in the permutation

	// With state sync on, schedule one beyond-horizon event when the
	// fault budget allows: either a fresh member joining mid-run, or a
	// crash long enough that the cluster prunes past the victim.
	if cfg.StateSync && budget > 0 {
		victim := nodes[next]
		next++
		budget--
		// Land the event in [40%, 55%] of the horizon: late enough that
		// sync points exist and the cluster has pruned, early enough
		// that the quiet tail can absorb the bootstrap and catch-up.
		at := cfg.Horizon*2/5 + time.Duration(rng.Int63n(int64(cfg.Horizon*3/20)))
		if rng.Intn(2) == 0 {
			p.Joins = append(p.Joins, Join{Node: victim, At: at})
		} else {
			crashAt := time.Second + time.Duration(rng.Int63n(int64(cfg.Horizon/5)))
			p.Crashes = append(p.Crashes, Crash{Node: victim, At: crashAt, RestartAt: at})
		}
	}

	crashes := rng.Intn(maxCrashes + 1)
	if crashes > budget {
		crashes = budget
	}
	for k := 0; k < crashes; k++ {
		at, until := window()
		p.Crashes = append(p.Crashes, Crash{Node: nodes[next+k], At: at, RestartAt: until})
	}

	for k := rng.Intn(maxPartitions + 1); k > 0; k-- {
		sideSize := 1 + rng.Intn((cfg.N-1)/2)
		perm := rng.Perm(cfg.N)
		at, heal := window()
		p.Partitions = append(p.Partitions, Partition{
			Side: append([]int(nil), perm[:sideSize]...),
			At:   at, Heal: heal,
			Lossy: cfg.Lossy && rng.Intn(2) == 0,
		})
	}

	for k := rng.Intn(maxLinkRules + 1); k > 0; k-- {
		from := rng.Intn(cfg.N)
		to := rng.Intn(cfg.N)
		if to == from {
			to = (to + 1) % cfg.N
		}
		at, until := window()
		rule := LinkRule{From: from, To: to, At: at, Until: until}
		rule.Fault.Delay = time.Duration(rng.Int63n(int64(300 * time.Millisecond)))
		rule.Fault.Jitter = time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
		rule.Fault.Duplicate = rng.Float64() * 0.3
		if cfg.Lossy && rng.Intn(2) == 0 {
			rule.Fault.Drop = rng.Float64() * 0.3
		}
		p.Links = append(p.Links, rule)
	}
	return p
}

// generateVoteCrash builds the Config.VoteCrash schedule: flip-votes
// Byzantine peers plus one short-outage crash that restarts mid-round.
func generateVoteCrash(rng *rand.Rand, seed int64, cfg Config) *Plan {
	p := &Plan{Seed: seed, Byzantine: map[int]Behavior{}}
	nodes := rng.Perm(cfg.N)
	byz := cfg.f() - 1 // one budget slot stays reserved for the crash victim
	if byz < 0 {
		byz = 0
	}
	for _, i := range nodes[:byz] {
		p.Byzantine[i] = FlipVotes
	}
	// Crash inside the first half; restart 0.5–2s later — epochs the
	// victim was mid-round in are still undecided when it comes back.
	victim := nodes[byz]
	crashAt := 2*time.Second + time.Duration(rng.Int63n(int64(cfg.Horizon/2-2*time.Second)))
	restartAt := crashAt + 500*time.Millisecond + time.Duration(rng.Int63n(int64(1500*time.Millisecond)))
	p.Crashes = append(p.Crashes, Crash{Node: victim, At: crashAt, RestartAt: restartAt})
	// Delay/jitter rules around the crash window stress message
	// reordering across the restart boundary (never loss: the liveness
	// and recovery invariants stay checkable).
	for k := 1 + rng.Intn(maxLinkRules); k > 0; k-- {
		from := rng.Intn(cfg.N)
		to := rng.Intn(cfg.N)
		if to == from {
			to = (to + 1) % cfg.N
		}
		until := restartAt + time.Duration(rng.Int63n(int64(2*time.Second)))
		rule := LinkRule{From: from, To: to, At: time.Second, Until: until}
		rule.Fault.Delay = time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
		rule.Fault.Jitter = time.Duration(rng.Int63n(int64(150 * time.Millisecond)))
		p.Links = append(p.Links, rule)
	}
	return p
}

// Explore generates a random fault plan from seed, runs a full emulated
// cluster under it, and checks the global invariants. The run is
// deterministic: calling Explore twice with the same seed and config
// produces identical fault schedules, logs, and fingerprints.
func Explore(seed int64, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res, err := Run(Generate(seed, cfg), cfg)
	if res != nil {
		res.generated = true
	}
	return res, err
}

// Run executes one specific plan under cfg and checks invariants.
func Run(p *Plan, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	traces := make([]trace.Trace, cfg.N)
	for i := range traces {
		traces[i] = trace.Constant(cfg.Rate)
	}
	cc := core.Config{
		N: cfg.N, F: cfg.f(), Mode: cfg.Mode,
		CoinSecret: []byte("chaos exploration coin"),
	}
	if cfg.StateSync {
		cc.StateSync = true
		cc.RetainEpochs = 8
		cc.SyncPointEvery = 8
	}
	c, err := harness.NewCluster(harness.ClusterOptions{
		Core:        cc,
		Replica:     replica.Params{BatchDelay: 100 * time.Millisecond},
		Egress:      traces,
		TxSize:      250,
		LoadPerNode: cfg.LoadPerNode,
		Durable:     true,
		Clients:     cfg.Clients,
		// Stop client submissions when the fault window closes so the
		// quiet tail can drain every accepted transaction.
		ClientStop: cfg.Horizon * 3 / 5,
		// Telemetry rides along on every chaos run so the
		// trace-completeness invariant below can hold span timelines and
		// counters to the recorded delivery logs.
		Telemetry: true,
		Seed:      p.Seed,
	})
	if err != nil {
		return nil, err
	}
	lr := harness.NewLogRecorder(c)
	vr := harness.NewVoteRecorder()
	st, err := apply(c, cc, lr, vr, p)
	if err != nil {
		return nil, err
	}
	c.Start()
	c.Run(cfg.Horizon)
	if st.restartErr != nil {
		return nil, st.restartErr
	}

	res := &Result{Seed: p.Seed, Cfg: cfg, Plan: p, Logs: lr.Logs()}
	honestMask := p.HonestMask(cfg.N)
	for i, h := range honestMask {
		if h {
			res.Honest = append(res.Honest, i)
		}
	}
	for i := 0; i < cfg.N; i++ {
		res.EpochsDelivered = append(res.EpochsDelivered, c.Replicas[i].Stats.EpochsDelivered)
		res.StateSyncs = append(res.StateSyncs, c.Replicas[i].Stats.StateSyncs)
	}

	// Safety invariants hold under every fault plan. With state sync any
	// node may have legitimately bootstrapped past history — restarted
	// victims, fresh joiners, and live laggards the cluster pruned past
	// all do — so a node that completed installs is held to segmented
	// agreement (one gap allowed per install) against the nodes that
	// never synced, which keep position-for-position prefix equality.
	// The install counter is node-local and does not survive a crash,
	// so a restarted victim gets one extra gap of budget per restart:
	// its pre-crash incarnation may have synced without the final
	// incarnation's counter knowing.
	syncs := map[int]int{}
	for _, i := range res.Honest {
		syncs[i] = int(res.StateSyncs[i])
	}
	if cfg.StateSync {
		for _, cr := range p.Crashes {
			if cr.RestartAt > 0 {
				syncs[cr.Node]++
			}
		}
	}
	var full []int
	for _, i := range res.Honest {
		if syncs[i] == 0 {
			full = append(full, i)
		}
	}
	res.Violations = append(res.Violations, harness.CheckPrefixAgreement(res.Logs, full)...)
	for _, i := range res.Honest {
		if syncs[i] == 0 {
			continue
		}
		for _, w := range full {
			// A witness still behind the synced node's position has not
			// delivered the log segment under test and yields no
			// verdict (an entry "missing" there proves nothing).
			if c.Replicas[w].Engine().DeliveredEpoch() < c.Replicas[i].Engine().DeliveredEpoch() {
				continue
			}
			_, v := harness.CheckSegmentedAgreement(i, res.Logs[i], w, res.Logs[w], syncs[i])
			res.Violations = append(res.Violations, v...)
		}
	}
	for _, i := range res.Honest {
		res.Violations = append(res.Violations, harness.CheckNoDuplicates(i, res.Logs[i])...)
		res.Violations = append(res.Violations, lr.CheckTxValidity(i, cfg.N, honestMask)...)
	}
	// Trace completeness: telemetry spans and counters must reconcile
	// with the recorded delivery log. Only meaningful for nodes whose
	// current telemetry bundle observed the whole run — telemetry is
	// per-incarnation, so crashed, joined, or synced nodes are exempt
	// (their logs span incarnations their tracer never saw).
	wholeRun := map[int]bool{}
	for _, i := range res.Honest {
		wholeRun[i] = syncs[i] == 0
	}
	for _, cr := range p.Crashes {
		wholeRun[cr.Node] = false
	}
	for _, j := range p.Joins {
		wholeRun[j.Node] = false
	}
	for _, i := range res.Honest {
		if wholeRun[i] {
			res.Violations = append(res.Violations,
				harness.CheckTraceCompleteness(i, c.Tels[i], res.Logs[i])...)
		}
	}
	// Vote consistency: no honest node — across crash-restart
	// incarnations — may ever put contradictory Aux/Term votes on the
	// wire. This is the invariant WAL-backed vote restore guarantees and
	// the one a vote-less restart under a crash-mid-round schedule
	// (Config.VoteCrash) breaks.
	res.Violations = append(res.Violations, vr.Check()...)

	// Gateway-client invariants: proofs always verify and honest nodes
	// never double-commit a client transaction (safety, even lossy).
	// Commit *streaming* requires the serving node to deliver the block
	// locally, so the every-accepted-tx-committed check applies only to
	// nodes that caught up with the cluster's delivery frontier by the
	// horizon — a restarted node still draining its backlog streams the
	// remaining commits after the cut ("caught up" means within two
	// epochs of the frontier).
	if cfg.Clients > 0 {
		res.Clients = c.ClientReports()
		for _, i := range res.Honest {
			res.Violations = append(res.Violations, lr.CheckNoDuplicateTxs(i, honestMask)...)
		}
		var maxDelivered int64
		for _, i := range res.Honest {
			if d := res.EpochsDelivered[i]; d > maxDelivered {
				maxDelivered = d
			}
		}
		for _, rep := range res.Clients {
			if !honestMask[rep.Node] {
				continue // a Byzantine node's gateway promises nothing
			}
			if rep.VerifyFailures > 0 {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"gateway: client %d@%d saw %d commit proofs fail verification",
					rep.Client, rep.Node, rep.VerifyFailures))
			}
			caughtUp := res.EpochsDelivered[rep.Node]+2 >= maxDelivered
			if !lossyPlan(p) && c.Alive(rep.Node) && caughtUp && rep.Outstanding > 0 {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"gateway: client %d@%d has %d accepted txs uncommitted at the horizon",
					rep.Client, rep.Node, rep.Outstanding))
			}
		}
	}

	// Liveness and recovery require the eventual-delivery assumption:
	// only checked when no fault destroys messages outright.
	if !lossyPlan(p) {
		min, max := int64(1<<62), int64(0)
		for _, i := range res.Honest {
			d := res.EpochsDelivered[i]
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		if max < 3 {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"liveness: cluster delivered only %d epochs in %v with faults within f", max, cfg.Horizon))
		}
		if min < 1 {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"liveness: some honest node delivered no epoch (per-node: %v)", res.EpochsDelivered))
		}
		for _, cr := range p.Crashes {
			if cr.RestartAt == 0 {
				continue
			}
			if got, pre := len(res.Logs[cr.Node]), st.preCrash[cr.Node]; got <= pre {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"recovery: node %d never delivered again after its restart (stuck at %d blocks)",
					cr.Node, got))
			}
		}
		for _, j := range p.Joins {
			if len(res.Logs[j.Node]) == 0 {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"recovery: fresh node %d never delivered after joining at %v", j.Node, j.At))
			}
		}
	}

	// Any invariant failure auto-dumps the cross-node flight recorders,
	// filtered to the epochs the violations name. Computed before the
	// fingerprint is even read — but the dump deliberately does not feed
	// the fingerprint, which digests the plan and delivery logs only, so
	// seeded replays keep byte-identical fingerprints with or without it.
	if res.Failed() {
		res.FlightDump = harness.FlightDump(c.Tels, harness.ViolationEpochs(res.Violations))
	}
	res.Fingerprint = fingerprint(p, res)
	return res, nil
}

func lossyPlan(p *Plan) bool {
	for _, pt := range p.Partitions {
		if pt.Lossy {
			return true
		}
	}
	for _, l := range p.Links {
		if l.Fault.Drop > 0 || l.Fault.Cut {
			return true
		}
	}
	return false
}

// fingerprint digests the fault schedule and every honest node's final
// log. Replaying a seed must reproduce it exactly.
func fingerprint(p *Plan, res *Result) uint64 {
	h := fnv.New64a()
	h.Write(p.Encode())
	var buf [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, i := range res.Honest {
		u64(uint64(i))
		u64(uint64(len(res.Logs[i])))
		for _, e := range res.Logs[i] {
			u64(e.Epoch)
			u64(uint64(e.Proposer))
			if e.Linked {
				u64(1)
			} else {
				u64(0)
			}
			u64(uint64(e.TxCount))
			u64(uint64(e.Payload))
			u64(e.TxSum)
		}
	}
	return h.Sum64()
}
