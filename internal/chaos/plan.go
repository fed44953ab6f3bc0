// Package chaos is a deterministic fault-injection layer over the
// network emulator: FoundationDB/Jepsen-style whole-cluster simulation
// testing for DispersedLedger.
//
// A Plan is a complete, serializable fault schedule — link partitions
// and heals, per-link impairments (drop, delay, jitter, duplication),
// node crash/restart points, and Byzantine behavior assignments. Run
// executes a specific plan on an emulated harness.Cluster; Explore
// generates a random plan from a seed, runs a full cluster under it, and checks the
// paper's global invariants (agreement, integrity, validity, liveness
// once faults stay within f and partitions heal, recovery of restarted
// nodes). Everything is deterministic: the same seed yields the same
// fault schedule and the same final logs, byte for byte, so any failing
// run is replayed exactly from its printed seed.
package chaos

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"time"

	"dledger/internal/core"
	"dledger/internal/harness"
	"dledger/internal/simnet"
)

// Behavior selects a Byzantine node implementation. Behaviors wrap a
// node's engine at the Action boundary (core.Engine.SetActionTap): the
// node runs the normal automaton but lies on the wire.
type Behavior int

const (
	// BehaviorNone marks an honest node.
	BehaviorNone Behavior = iota
	// Equivocate disperses a forged second block to the F lowest-indexed
	// honest peers on every proposal: two Merkle roots circulate for one
	// VID instance, and the forged one always lands on honest nodes.
	Equivocate
	// WithholdChunks never serves retrievals and withholds dispersal
	// chunks from F+1 peers, so its own proposals cannot complete.
	WithholdChunks
	// BadShares corrupts the chunk bytes of every Chunk and ReturnChunk
	// it sends (proofs left intact, so receivers' Merkle checks fire).
	BadShares
	// FlipVotes inverts every BA vote (BVal/Aux/Term) sent to
	// odd-numbered peers: classic equivocating voter.
	FlipVotes
)

// Behaviors lists every Byzantine behavior, for sweeps.
var Behaviors = []Behavior{Equivocate, WithholdChunks, BadShares, FlipVotes}

// String implements fmt.Stringer.
func (b Behavior) String() string {
	switch b {
	case BehaviorNone:
		return "honest"
	case Equivocate:
		return "equivocate"
	case WithholdChunks:
		return "withhold-chunks"
	case BadShares:
		return "bad-shares"
	case FlipVotes:
		return "flip-votes"
	default:
		return fmt.Sprintf("Behavior(%d)", int(b))
	}
}

// Partition isolates Side from the rest of the cluster between At and
// Heal. Hold semantics (the default) queue cross-partition traffic and
// release it on heal, modeling a TCP/QUIC transport that buffers and
// retransmits across the outage — the eventual-delivery assumption the
// protocol's liveness rests on survives. Lossy partitions drop instead
// (messages are gone forever); only safety invariants may be asserted
// under them.
type Partition struct {
	Side     []int
	At, Heal time.Duration
	Lossy    bool
}

// LinkRule applies a fault to the directed link From→To during [At, Until).
type LinkRule struct {
	From, To  int
	At, Until time.Duration
	Fault     simnet.LinkFault
}

// Crash kills Node at At and restarts it from its durable store at
// RestartAt, which must be later than At (zero RestartAt means the node
// stays down).
type Crash struct {
	Node          int
	At, RestartAt time.Duration
}

// Join holds Node out of the initial boot and spawns it at At as a
// brand-new member with an empty store (harness.Cluster.AddNode): the
// outage-beyond-horizon event class. Requires a cluster configuration
// with state sync enabled (Config.StateSync) — a fresh member can only
// reach the log through checkpoint transfer.
type Join struct {
	Node int
	At   time.Duration
}

// Plan is a deterministic fault schedule for one cluster run.
type Plan struct {
	// Seed feeds the network's probabilistic fault RNG (drop, jitter,
	// duplication). Deterministic faults ignore it.
	Seed       int64
	Byzantine  map[int]Behavior
	Partitions []Partition
	Links      []LinkRule
	Crashes    []Crash
	Joins      []Join
}

// byzNodes returns the Byzantine assignments sorted by node id.
func (p *Plan) byzNodes() []int {
	out := make([]int, 0, len(p.Byzantine))
	for i := range p.Byzantine {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// HonestMask returns honest[i] == true for every node without a
// Byzantine assignment. Crashed-and-restarted nodes count as honest:
// crash recovery is a correct behavior the invariants must cover.
func (p *Plan) HonestMask(n int) []bool {
	honest := make([]bool, n)
	for i := range honest {
		honest[i] = true
	}
	for i, b := range p.Byzantine {
		if b != BehaviorNone && i >= 0 && i < n {
			honest[i] = false
		}
	}
	return honest
}

// Encode renders the plan as canonical bytes (sorted, fixed-width) for
// fingerprinting and replay comparison.
func (p *Plan) Encode() []byte {
	var buf []byte
	u64 := func(v uint64) { buf = binary.BigEndian.AppendUint64(buf, v) }
	u64(uint64(p.Seed))
	u64(uint64(len(p.Byzantine)))
	for _, i := range p.byzNodes() {
		u64(uint64(i))
		u64(uint64(p.Byzantine[i]))
	}
	u64(uint64(len(p.Partitions)))
	for _, pt := range p.Partitions {
		u64(uint64(len(pt.Side)))
		for _, i := range pt.Side {
			u64(uint64(i))
		}
		u64(uint64(pt.At))
		u64(uint64(pt.Heal))
		if pt.Lossy {
			u64(1)
		} else {
			u64(0)
		}
	}
	u64(uint64(len(p.Links)))
	for _, l := range p.Links {
		u64(uint64(l.From))
		u64(uint64(l.To))
		u64(uint64(l.At))
		u64(uint64(l.Until))
		bits := uint64(0)
		if l.Fault.Cut {
			bits |= 1
		}
		if l.Fault.Hold {
			bits |= 2
		}
		u64(bits)
		u64(uint64(l.Fault.Delay))
		u64(uint64(l.Fault.Jitter))
		u64(uint64(l.Fault.Drop * 1e9))
		u64(uint64(l.Fault.Duplicate * 1e9))
	}
	u64(uint64(len(p.Crashes)))
	for _, cr := range p.Crashes {
		u64(uint64(cr.Node))
		u64(uint64(cr.At))
		u64(uint64(cr.RestartAt))
	}
	for _, j := range p.Joins {
		// Appended (rather than length-prefixed in the middle) so plans
		// without joins keep their historical encoding and fingerprints.
		u64(uint64(j.Node))
		u64(uint64(j.At))
	}
	return buf
}

// String renders the schedule for failure reports.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fault plan (seed %d):\n", p.Seed)
	for _, i := range p.byzNodes() {
		fmt.Fprintf(&sb, "  byzantine node %d: %s\n", i, p.Byzantine[i])
	}
	for _, pt := range p.Partitions {
		kind := "hold"
		if pt.Lossy {
			kind = "lossy"
		}
		fmt.Fprintf(&sb, "  partition %v (%s) %v..%v\n", pt.Side, kind, pt.At, pt.Heal)
	}
	for _, l := range p.Links {
		fmt.Fprintf(&sb, "  link %d->%d %v..%v %+v\n", l.From, l.To, l.At, l.Until, l.Fault)
	}
	for _, cr := range p.Crashes {
		fmt.Fprintf(&sb, "  crash node %d at %v, restart %v\n", cr.Node, cr.At, cr.RestartAt)
	}
	for _, j := range p.Joins {
		fmt.Fprintf(&sb, "  join fresh node %d at %v\n", j.Node, j.At)
	}
	if sb.Len() == len("fault plan (seed 0):\n") {
		sb.WriteString("  (no faults)\n")
	}
	return sb.String()
}

// linkClaims merges overlapping fault windows on each directed link.
// simnet exposes a single fault slot per link, so two overlapping
// partitions (or a partition and a link rule) would otherwise clobber
// each other — the earlier window's heal would strip the later, still
// active one. Every scheduled window registers a claim on its links and
// removes it when it ends; the effective fault is recomputed on each
// change: Cut dominates, then Hold, then the most recently installed
// impairment rule. Claims are processed in schedule order, so the merge
// is deterministic.
type linkClaims struct {
	net    *simnet.Network
	claims map[[2]int][]linkClaim
}

type linkClaim struct {
	id    int
	fault simnet.LinkFault
}

func newLinkClaims(net *simnet.Network) *linkClaims {
	return &linkClaims{net: net, claims: map[[2]int][]linkClaim{}}
}

func (lc *linkClaims) add(from, to, id int, f simnet.LinkFault) {
	key := [2]int{from, to}
	lc.claims[key] = append(lc.claims[key], linkClaim{id: id, fault: f})
	lc.recompute(key)
}

func (lc *linkClaims) remove(from, to, id int) {
	key := [2]int{from, to}
	cs := lc.claims[key]
	kept := cs[:0]
	for _, c := range cs {
		if c.id != id {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		delete(lc.claims, key)
	} else {
		lc.claims[key] = kept
	}
	lc.recompute(key)
}

func (lc *linkClaims) recompute(key [2]int) {
	cs := lc.claims[key]
	var eff simnet.LinkFault
	for _, c := range cs {
		if c.fault.Cut {
			eff = simnet.LinkFault{Cut: true}
			lc.net.SetLinkFault(key[0], key[1], eff)
			return
		}
	}
	for _, c := range cs {
		if c.fault.Hold {
			eff = simnet.LinkFault{Hold: true}
			lc.net.SetLinkFault(key[0], key[1], eff)
			return
		}
	}
	if len(cs) > 0 {
		eff = cs[len(cs)-1].fault
	}
	lc.net.SetLinkFault(key[0], key[1], eff)
}

// partition applies fn to every cross-partition directed link.
func partitionLinks(side []int, n int, fn func(from, to int)) {
	in := make([]bool, n)
	for _, i := range side {
		if i >= 0 && i < n {
			in[i] = true
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && in[a] != in[b] {
				fn(a, b)
			}
		}
	}
}

// applied tracks plan state that the run needs afterwards: restart
// errors (surfaced after the run; the scheduler cannot return them) and
// each crash victim's log length at the crash instant, for the recovery
// invariant.
type applied struct {
	restartErr error
	preCrash   map[int]int
}

// apply installs the plan onto a built-but-not-started cluster. The
// recorders must already be attached (restart hooks re-attach through
// them). Byzantine taps install immediately; everything else is
// scheduled on the cluster's simulator. Run is the public entry point —
// it owns the result plumbing (restart errors surface after the run;
// the scheduler cannot return them). vr observes honest nodes' BA votes
// across incarnations for the equivocation invariant; Byzantine nodes
// keep their behavior tap instead.
func apply(c *harness.Cluster, cfg core.Config, lr *harness.LogRecorder, vr *harness.VoteRecorder, p *Plan) (*applied, error) {
	st := &applied{preCrash: map[int]int{}}
	if len(p.Byzantine) > cfg.F {
		// The invariant checkers rest on N >= 3F+1 with at most F
		// Byzantine nodes; beyond that budget a "violation" would only
		// restate the plan's own contract breach.
		return nil, fmt.Errorf("chaos: %d byzantine nodes exceed the fault budget F=%d",
			len(p.Byzantine), cfg.F)
	}
	crashed := map[int]bool{}
	for _, cr := range p.Crashes {
		if cr.Node < 0 || cr.Node >= cfg.N {
			return nil, fmt.Errorf("chaos: crash node %d out of range", cr.Node)
		}
		if cr.RestartAt != 0 && cr.RestartAt <= cr.At {
			// A restart before the crash would boot a second incarnation
			// over a live node.
			return nil, fmt.Errorf("chaos: node %d restarts at %v, not after its crash at %v",
				cr.Node, cr.RestartAt, cr.At)
		}
		crashed[cr.Node] = true
	}
	joined := map[int]bool{}
	for _, j := range p.Joins {
		if j.Node < 0 || j.Node >= cfg.N {
			return nil, fmt.Errorf("chaos: join node %d out of range", j.Node)
		}
		if crashed[j.Node] || joined[j.Node] {
			return nil, fmt.Errorf("chaos: node %d cannot both join fresh and crash", j.Node)
		}
		if !cfg.StateSync {
			return nil, fmt.Errorf("chaos: join events require Config.StateSync")
		}
		joined[j.Node] = true
	}
	honest := p.HonestMask(cfg.N)
	for _, i := range p.byzNodes() {
		if i < 0 || i >= cfg.N {
			return nil, fmt.Errorf("chaos: byzantine node %d out of range", i)
		}
		if crashed[i] {
			// A restart would shed the tap and resurrect the node honest;
			// keep the fault model clean by forbidding the combination.
			return nil, fmt.Errorf("chaos: node %d cannot be both byzantine and crashed", i)
		}
		if joined[i] {
			return nil, fmt.Errorf("chaos: node %d cannot be both byzantine and a fresh join", i)
		}
		if err := installByzantine(c.Replicas[i].Engine(), cfg, i, p.Byzantine[i], honest); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.N; i++ {
		if honest[i] && !joined[i] {
			vr.Attach(c.Replicas[i].Engine(), i)
		}
	}
	for _, j := range p.Joins {
		j := j
		c.Hold(j.Node)
		c.Sim.At(j.At, func() {
			if err := c.AddNode(j.Node, lr.Hook(j.Node)); err != nil {
				if st.restartErr == nil {
					st.restartErr = fmt.Errorf("chaos: join of node %d: %w", j.Node, err)
				}
				return
			}
			vr.Attach(c.Replicas[j.Node].Engine(), j.Node)
		})
	}
	c.Net.SetFaultSeed(p.Seed)
	lc := newLinkClaims(c.Net)
	claimID := 0
	for _, pt := range p.Partitions {
		pt := pt
		claimID++
		id := claimID
		f := simnet.LinkFault{Cut: pt.Lossy, Hold: !pt.Lossy}
		c.Sim.At(pt.At, func() {
			partitionLinks(pt.Side, cfg.N, func(a, b int) { lc.add(a, b, id, f) })
		})
		c.Sim.At(pt.Heal, func() {
			partitionLinks(pt.Side, cfg.N, func(a, b int) { lc.remove(a, b, id) })
		})
	}
	for _, l := range p.Links {
		l := l
		claimID++
		id := claimID
		c.Sim.At(l.At, func() { lc.add(l.From, l.To, id, l.Fault) })
		c.Sim.At(l.Until, func() { lc.remove(l.From, l.To, id) })
	}
	for _, cr := range p.Crashes {
		cr := cr
		c.Sim.At(cr.At, func() {
			st.preCrash[cr.Node] = len(lr.Log(cr.Node))
			c.Crash(cr.Node)
		})
		if cr.RestartAt > 0 {
			c.Sim.At(cr.RestartAt, func() {
				if err := c.Restart(cr.Node, lr.Hook(cr.Node)); err != nil {
					if st.restartErr == nil {
						st.restartErr = fmt.Errorf("chaos: restart of node %d: %w", cr.Node, err)
					}
					return
				}
				// The fresh incarnation sheds the old tap; re-attach so
				// the equivocation record spans the restart — comparing
				// the two incarnations' votes is the entire point.
				vr.Attach(c.Replicas[cr.Node].Engine(), cr.Node)
			})
		}
	}
	return st, nil
}
