package simnet

import (
	"testing"
	"time"

	"dledger/internal/trace"
	"dledger/internal/wire"
)

func twoNodeNet() (*Sim, *Network) {
	sim := NewSim()
	net := NewNetwork(sim, Config{
		N:       2,
		Delay:   func(int, int) time.Duration { return 10 * time.Millisecond },
		Egress:  []trace.Trace{trace.Constant(1e6), trace.Constant(1e6)},
		Ingress: []trace.Trace{trace.Constant(1e9), trace.Constant(1e9)},
	})
	return sim, net
}

func TestCutLinkDropsPackets(t *testing.T) {
	sim, net := twoNodeNet()
	got := 0
	net.SetHandler(1, func(wire.Envelope) { got++ })
	net.SetLinkFault(0, 1, LinkFault{Cut: true})
	net.Send(0, 1, mkEnv(0, 100), wire.PrioDispersal, 0)
	sim.Run(time.Second)
	if got != 0 {
		t.Fatalf("delivered %d packets across a cut link", got)
	}
	if d, _ := net.FaultDrops(); d != 1 {
		t.Fatalf("FaultDrops = %d, want 1", d)
	}
	// Healing restores delivery.
	net.ClearLinkFault(0, 1)
	net.Send(0, 1, mkEnv(0, 100), wire.PrioDispersal, 0)
	sim.Run(2 * time.Second)
	if got != 1 {
		t.Fatalf("delivered %d packets after heal, want 1", got)
	}
}

func TestCutAppliesAtWireTimeNotSendTime(t *testing.T) {
	// A packet that finished egress before the cut still arrives; one
	// still queued when the cut lands is destroyed.
	sim, net := twoNodeNet()
	got := 0
	net.SetHandler(1, func(wire.Envelope) { got++ })
	net.Send(0, 1, mkEnv(0, 100), wire.PrioDispersal, 0)
	// Egress of ~200 wire bytes at 1 MB/s ends in ~0.2 ms; cut at 5 ms,
	// mid-propagation (10 ms delay).
	sim.Run(5 * time.Millisecond)
	net.SetLinkFault(0, 1, LinkFault{Cut: true})
	net.Send(0, 1, mkEnv(0, 100), wire.PrioDispersal, 0)
	sim.Run(time.Second)
	if got != 1 {
		t.Fatalf("delivered %d packets, want exactly the in-flight one", got)
	}
}

func TestHoldReleasesInOrder(t *testing.T) {
	sim, net := twoNodeNet()
	var epochs []uint64
	net.SetHandler(1, func(e wire.Envelope) { epochs = append(epochs, e.Epoch) })
	net.SetLinkFault(0, 1, LinkFault{Hold: true})
	for e := uint64(1); e <= 5; e++ {
		env := wire.Envelope{From: 0, Epoch: e, Proposer: 0, Payload: wire.Chunk{Data: make([]byte, 50)}}
		net.Send(0, 1, env, wire.PrioDispersal, 0)
	}
	sim.Run(time.Second)
	if len(epochs) != 0 {
		t.Fatalf("held link delivered %d packets", len(epochs))
	}
	net.ClearLinkFault(0, 1)
	sim.Run(2 * time.Second)
	if len(epochs) != 5 {
		t.Fatalf("released %d packets, want 5", len(epochs))
	}
	for i, e := range epochs {
		if e != uint64(i+1) {
			t.Fatalf("release order %v, want FIFO", epochs)
		}
	}
	if d, _ := net.FaultDrops(); d != 0 {
		t.Fatalf("hold must not count drops, got %d", d)
	}
}

func TestHoldReplacedByCutDropsBacklog(t *testing.T) {
	// A Hold window replaced by a Cut must destroy the held packets:
	// they re-enter the fault check on release, they do not leak through
	// the dead link.
	sim, net := twoNodeNet()
	got := 0
	net.SetHandler(1, func(wire.Envelope) { got++ })
	net.SetLinkFault(0, 1, LinkFault{Hold: true})
	net.Send(0, 1, mkEnv(0, 50), wire.PrioDispersal, 0)
	net.Send(0, 1, mkEnv(0, 50), wire.PrioDispersal, 0)
	sim.Run(100 * time.Millisecond)
	net.SetLinkFault(0, 1, LinkFault{Cut: true})
	sim.Run(time.Second)
	if got != 0 {
		t.Fatalf("cut link delivered %d held packets", got)
	}
	if d, _ := net.FaultDrops(); d != 2 {
		t.Fatalf("FaultDrops = %d, want 2 (the released backlog)", d)
	}
}

func TestDropProbabilityIsSeededAndDeterministic(t *testing.T) {
	run := func(seed int64) int {
		sim, net := twoNodeNet()
		got := 0
		net.SetHandler(1, func(wire.Envelope) { got++ })
		net.SetFaultSeed(seed)
		net.SetLinkFault(0, 1, LinkFault{Drop: 0.5})
		for i := 0; i < 200; i++ {
			net.Send(0, 1, mkEnv(0, 50), wire.PrioDispersal, 0)
		}
		sim.Run(time.Minute)
		return got
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed delivered %d vs %d packets", a, b)
	}
	if a < 40 || a > 160 {
		t.Fatalf("drop=0.5 delivered %d of 200", a)
	}
	if c := run(8); c == a {
		t.Log("different seeds coincided; suspicious but not impossible")
	}
}

func TestJitterReordersAndDuplicates(t *testing.T) {
	sim, net := twoNodeNet()
	var epochs []uint64
	net.SetHandler(1, func(e wire.Envelope) { epochs = append(epochs, e.Epoch) })
	net.SetFaultSeed(3)
	net.SetLinkFault(0, 1, LinkFault{Jitter: 50 * time.Millisecond, Duplicate: 0.5})
	for e := uint64(1); e <= 40; e++ {
		env := wire.Envelope{From: 0, Epoch: e, Proposer: 0, Payload: wire.Chunk{Data: make([]byte, 20)}}
		net.Send(0, 1, env, wire.PrioDispersal, 0)
	}
	sim.Run(time.Minute)
	if len(epochs) <= 40 {
		t.Fatalf("duplicate=0.5 delivered %d copies of 40 packets", len(epochs))
	}
	ordered := true
	for i := 1; i < len(epochs); i++ {
		if epochs[i] < epochs[i-1] {
			ordered = false
			break
		}
	}
	if ordered {
		t.Fatal("50ms jitter produced no reordering across 40 packets")
	}
}

// TestDuplicateSurvivesPacketReuse duplicates every packet on a jittered
// link while the receiver's replies take delivered packets off the free
// list: each message must arrive exactly twice with its own contents,
// and no packet may be freed twice.
func TestDuplicateSurvivesPacketReuse(t *testing.T) {
	sim, net := twoNodeNet()
	net.SetFaultSeed(5)
	net.SetLinkFault(0, 1, LinkFault{Jitter: 30 * time.Millisecond, Duplicate: 1})
	copies := map[uint64]int{}
	net.SetHandler(0, func(wire.Envelope) {})
	net.SetHandler(1, func(e wire.Envelope) {
		c, ok := e.Payload.(wire.Chunk)
		if !ok || e.From != 0 || len(c.Data) != int(e.Epoch%50)+1 || c.Data[0] != byte(e.Epoch) {
			t.Fatalf("delivered a corrupted message: epoch %d payload %T", e.Epoch, e.Payload)
		}
		copies[e.Epoch]++
		net.Send(1, 0, mkEnv(1, 10), wire.PrioDispersal, 0)
	})
	const msgs = 200
	for e := uint64(1); e <= msgs; e++ {
		data := make([]byte, e%50+1)
		data[0] = byte(e)
		net.Send(0, 1, wire.Envelope{From: 0, Epoch: e, Payload: wire.Chunk{Data: data}}, wire.PrioDispersal, 0)
		sim.Run(sim.Now() + 2*time.Millisecond)
	}
	sim.Run(time.Hour)
	for e := uint64(1); e <= msgs; e++ {
		if copies[e] != 2 {
			t.Fatalf("message %d arrived %d times, want 2 (original and duplicate)", e, copies[e])
		}
	}
	freed := map[*packet]bool{}
	for _, p := range net.free {
		if freed[p] {
			t.Fatal("a packet sits on the free list twice")
		}
		freed[p] = true
	}
	if len(freed) < 2*msgs/10 {
		t.Fatalf("only %d packets were recycled; the test no longer exercises reuse", len(freed))
	}
}

func TestExtraDelayShiftsDelivery(t *testing.T) {
	sim, net := twoNodeNet()
	var at time.Duration
	net.SetHandler(1, func(wire.Envelope) { at = sim.Now() })
	net.SetLinkFault(0, 1, LinkFault{Delay: 500 * time.Millisecond})
	net.Send(0, 1, mkEnv(0, 100), wire.PrioDispersal, 0)
	sim.Run(time.Minute)
	if at < 510*time.Millisecond || at > 520*time.Millisecond {
		t.Fatalf("delivery at %v, want ~510ms (500ms fault + 10ms base)", at)
	}
}

func TestPerLinkCutIsolatesANode(t *testing.T) {
	// Cutting every link touching node 0 (both directions) isolates it;
	// links between other nodes are unaffected, and clearing restores.
	sim := NewSim()
	n := 4
	traces := make([]trace.Trace, n)
	for i := range traces {
		traces[i] = trace.Constant(1e6)
	}
	net := NewNetwork(sim, Config{N: n, Egress: traces,
		Delay: func(int, int) time.Duration { return time.Millisecond }})
	got := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		net.SetHandler(i, func(wire.Envelope) { got[i]++ })
	}
	for j := 1; j < n; j++ {
		net.SetLinkFault(0, j, LinkFault{Cut: true})
		net.SetLinkFault(j, 0, LinkFault{Cut: true})
	}
	net.Send(0, 1, mkEnv(0, 10), wire.PrioDispersal, 0)
	net.Send(1, 0, mkEnv(1, 10), wire.PrioDispersal, 0)
	net.Send(1, 2, mkEnv(1, 10), wire.PrioDispersal, 0) // unaffected link
	sim.Run(time.Second)
	if got[0] != 0 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("got = %v, want only 1->2 delivered", got)
	}
	for j := 1; j < n; j++ {
		net.ClearLinkFault(0, j)
		net.ClearLinkFault(j, 0)
	}
	net.Send(1, 0, mkEnv(1, 10), wire.PrioDispersal, 0)
	sim.Run(2 * time.Second)
	if got[0] != 1 {
		t.Fatalf("post-heal delivery failed, got %v", got)
	}
}
