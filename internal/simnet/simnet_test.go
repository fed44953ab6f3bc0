package simnet

import (
	"fmt"
	"testing"
	"time"

	"dledger/internal/trace"
	"dledger/internal/wire"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.After(2*time.Second, func() { order = append(order, 2) })
	s.After(time.Second, func() { order = append(order, 1) })
	s.After(time.Second, func() { order = append(order, 11) }) // same time: FIFO by schedule order
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.Run(10 * time.Second)
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("Now = %v after Run(10s)", s.Now())
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim()
	fired := false
	s.After(5*time.Second, func() { fired = true })
	s.Run(time.Second)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if !s.Pending() {
		t.Fatal("event should remain pending")
	}
	s.Run(10 * time.Second)
	if !fired {
		t.Fatal("event did not fire on second run")
	}
}

func TestSimPastEventClamps(t *testing.T) {
	s := NewSim()
	s.After(time.Second, func() {
		// Scheduling "in the past" clamps to now rather than panicking.
		s.At(0, func() {})
	})
	s.Run(2 * time.Second)
}

func TestTransmitEndConstantRate(t *testing.T) {
	// 1000 bytes at 1000 B/s takes exactly 1 s.
	end := transmitEnd(trace.Constant(1000), 0, 1000)
	if end != time.Second {
		t.Fatalf("end = %v, want 1s", end)
	}
	// Starting mid-flow shifts linearly.
	end = transmitEnd(trace.Constant(500), time.Second, 250)
	if end != 1500*time.Millisecond {
		t.Fatalf("end = %v, want 1.5s", end)
	}
}

func TestTransmitEndVariableRate(t *testing.T) {
	// Rate 1000 B/s for 1 s then 2000 B/s: 2500 bytes takes
	// 1 s (1000 B) + 0.75 s (1500 B) = 1.75 s.
	tr := &trace.Sampled{Tick: time.Second, Rates: []float64{1000, 2000, 2000, 2000}}
	end := transmitEnd(tr, 0, 2500)
	if end != 1750*time.Millisecond {
		t.Fatalf("end = %v, want 1.75s", end)
	}
}

func TestTransmitEndTinyMessageProgresses(t *testing.T) {
	end := transmitEnd(trace.Constant(1e12), 0, 1)
	if end <= 0 {
		t.Fatal("transmission must take positive time")
	}
}

func mkEnv(from int, size int) wire.Envelope {
	// A Chunk with `size` payload bytes approximates a sized message; the
	// exact wire size is WireSize().
	return wire.Envelope{From: from, Epoch: 1, Proposer: 0, Payload: wire.Chunk{Data: make([]byte, size)}}
}

func TestNetworkDeliversWithDelayAndBandwidth(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim, Config{
		N:      2,
		Delay:  func(int, int) time.Duration { return 100 * time.Millisecond },
		Egress: []trace.Trace{trace.Constant(1000), trace.Constant(1000)},
	})
	env := mkEnv(0, 400)
	size := env.WireSize()
	var deliveredAt time.Duration
	net.SetHandler(1, func(e wire.Envelope) { deliveredAt = sim.Now() })
	net.Send(0, 1, env, wire.PrioDispersal, 0)
	sim.Run(time.Minute)
	// egress size/1000 s + 0.1 s delay + ingress size/1000 s.
	want := time.Duration(float64(size)/1000*2*float64(time.Second)) + 100*time.Millisecond
	if deliveredAt < want-time.Millisecond || deliveredAt > want+time.Millisecond {
		t.Fatalf("delivered at %v, want ~%v (size %d)", deliveredAt, want, size)
	}
	d, r := net.BytesReceived(1)
	if d != int64(size) || r != 0 {
		t.Fatalf("received bytes = (%d, %d), want (%d, 0)", d, r, size)
	}
	ds, _ := net.BytesSent(0)
	if ds != int64(size) {
		t.Fatalf("sent bytes = %d, want %d", ds, size)
	}
}

func TestEgressSerializesMessages(t *testing.T) {
	// Two equal messages through a 1000 B/s egress: the second is
	// delivered one service time after the first.
	sim := NewSim()
	net := NewNetwork(sim, Config{
		N:      2,
		Delay:  func(int, int) time.Duration { return 0 },
		Egress: []trace.Trace{trace.Constant(1000), trace.Constant(1000)},
		// Use a huge ingress to isolate egress behaviour.
		Ingress: []trace.Trace{trace.Constant(1e12), trace.Constant(1e12)},
	})
	var times []time.Duration
	net.SetHandler(1, func(e wire.Envelope) { times = append(times, sim.Now()) })
	env := mkEnv(0, 1000)
	net.Send(0, 1, env, wire.PrioDispersal, 0)
	net.Send(0, 1, env, wire.PrioDispersal, 0)
	sim.Run(time.Minute)
	if len(times) != 2 {
		t.Fatalf("delivered %d messages", len(times))
	}
	service := time.Duration(float64(env.WireSize()) / 1000 * float64(time.Second))
	gap := times[1] - times[0]
	if gap < service-time.Millisecond || gap > service+time.Millisecond {
		t.Fatalf("gap = %v, want ~%v", gap, service)
	}
}

func TestPriorityWeightSharesBandwidth(t *testing.T) {
	// Saturate one egress with both classes; over a long window the
	// dispersal class should get ~30x the retrieval bytes.
	sim := NewSim()
	net := NewNetwork(sim, Config{
		N:       2,
		Delay:   func(int, int) time.Duration { return 0 },
		Egress:  []trace.Trace{trace.Constant(100_000), trace.Constant(100_000)},
		Ingress: []trace.Trace{trace.Constant(1e12), trace.Constant(1e12)},
	})
	var gotHigh, gotLow int64
	net.SetHandler(1, func(e wire.Envelope) {
		if wire.PriorityOf(e.Payload) == wire.PrioDispersal {
			gotHigh += int64(e.WireSize())
		} else {
			gotLow += int64(e.WireSize())
		}
	})
	// Keep both queues backlogged: inject 10 MB of each class up front.
	high := wire.Envelope{From: 0, Epoch: 1, Proposer: 0, Payload: wire.Chunk{Data: make([]byte, 1000)}}
	low := wire.Envelope{From: 0, Epoch: 1, Proposer: 0, Payload: wire.ReturnChunk{Data: make([]byte, 1000)}}
	for i := 0; i < 5000; i++ {
		net.Send(0, 1, high, wire.PrioDispersal, 0)
		net.Send(0, 1, low, wire.PrioRetrieval, 1)
	}
	sim.Run(30 * time.Second) // 3 MB served of ~10 MB: both still backlogged
	if gotLow == 0 {
		t.Fatal("retrieval class fully starved; want weighted sharing")
	}
	ratio := float64(gotHigh) / float64(gotLow)
	if ratio < 20 || ratio > 45 {
		t.Fatalf("dispersal:retrieval ratio = %.1f, want ~30", ratio)
	}
}

func TestRetrievalServedByEpochOrder(t *testing.T) {
	// Backlog retrieval packets for epochs 3, 1, 2; they must be served
	// in epoch order regardless of arrival order.
	sim := NewSim()
	net := NewNetwork(sim, Config{
		N:       2,
		Delay:   func(int, int) time.Duration { return 0 },
		Egress:  []trace.Trace{trace.Constant(1000), trace.Constant(1000)},
		Ingress: []trace.Trace{trace.Constant(1e12), trace.Constant(1e12)},
	})
	var epochs []uint64
	net.SetHandler(1, func(e wire.Envelope) { epochs = append(epochs, e.Epoch) })
	mk := func(epoch uint64) wire.Envelope {
		return wire.Envelope{From: 0, Epoch: epoch, Proposer: 0, Payload: wire.ReturnChunk{Data: make([]byte, 500)}}
	}
	// First packet starts serving immediately (epoch 3); the rest queue.
	net.Send(0, 1, mk(3), wire.PrioRetrieval, 3)
	net.Send(0, 1, mk(3), wire.PrioRetrieval, 3)
	net.Send(0, 1, mk(1), wire.PrioRetrieval, 1)
	net.Send(0, 1, mk(2), wire.PrioRetrieval, 2)
	sim.Run(time.Minute)
	want := []uint64{3, 1, 2, 3}
	if len(epochs) != len(want) {
		t.Fatalf("delivered %d packets", len(epochs))
	}
	for i := range want {
		if epochs[i] != want[i] {
			t.Fatalf("epoch order %v, want %v", epochs, want)
		}
	}
}

func TestRetrievalStreamIsFIFO(t *testing.T) {
	// Within one epoch's stream, retrieval packets leave in send order.
	sim := NewSim()
	net := NewNetwork(sim, Config{
		N:       2,
		Delay:   func(int, int) time.Duration { return 0 },
		Egress:  []trace.Trace{trace.Constant(1000), trace.Constant(1000)},
		Ingress: []trace.Trace{trace.Constant(1e12), trace.Constant(1e12)},
	})
	var order []int
	net.SetHandler(1, func(e wire.Envelope) { order = append(order, e.Proposer) })
	// The first packet goes into service at once; the rest queue.
	for i, epoch := range []uint64{3, 2, 1, 2, 1, 2} {
		env := wire.Envelope{From: 0, Epoch: epoch, Proposer: i, Payload: wire.ReturnChunk{Data: make([]byte, 100)}}
		net.Send(0, 1, env, wire.PrioRetrieval, epoch)
	}
	sim.Run(time.Minute)
	if want := []int{0, 2, 4, 1, 3, 5}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("send order %v, want %v", order, want)
	}
}

// TestChunkRequestsOvertakeQueuedChunks: a node's requests for the blocks
// it needs next, and its cancels, are a few bytes that gate a whole
// retrieval. Sent in the class wire.PriorityOf gives them, they leave
// ahead of the chunks the node still owes for older epochs — in the low
// class they would leave last, the newest stream of eleven.
func TestChunkRequestsOvertakeQueuedChunks(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim, Config{
		N:       2,
		Delay:   func(int, int) time.Duration { return 0 },
		Egress:  []trace.Trace{trace.Constant(1000), trace.Constant(1000)},
		Ingress: []trace.Trace{trace.Constant(1e12), trace.Constant(1e12)},
	})
	var got []wire.Msg
	net.SetHandler(1, func(e wire.Envelope) { got = append(got, e.Payload) })
	send := func(epoch uint64, m wire.Msg) {
		net.Send(0, 1, wire.Envelope{From: 0, Epoch: epoch, Proposer: 0, Payload: m}, wire.PriorityOf(m), epoch)
	}
	// The first chunk goes into service at once; ten more queue behind it.
	for epoch := uint64(1); epoch <= 11; epoch++ {
		send(epoch, wire.ReturnChunk{Data: make([]byte, 500)})
	}
	send(20, wire.RequestChunk{})
	send(20, wire.CancelRequest{})
	sim.Run(time.Minute)
	if len(got) != 13 {
		t.Fatalf("delivered %d packets, want 13", len(got))
	}
	at := func(want wire.Msg) int {
		for i, m := range got {
			if m == want {
				return i
			}
		}
		return -1
	}
	// The request leaves as soon as the chunk in service is out. The two
	// classes share by weight rather than by strict priority, so the
	// request's few bytes let one chunk through before the cancel.
	if req, cancel := at(wire.RequestChunk{}), at(wire.CancelRequest{}); req != 1 || cancel <= req || cancel > 3 {
		t.Fatalf("request left in position %d and cancel in %d of 13, want 1 and at most 3", req, cancel)
	}
}

func TestIdleClassDoesNotHoardCredit(t *testing.T) {
	// Serve only retrieval for a while, then inject dispersal; dispersal
	// must not be locked out, and vice versa: the returning class resumes
	// sharing promptly instead of monopolizing with banked credit.
	sim := NewSim()
	net := NewNetwork(sim, Config{
		N:       2,
		Delay:   func(int, int) time.Duration { return 0 },
		Egress:  []trace.Trace{trace.Constant(100_000), trace.Constant(100_000)},
		Ingress: []trace.Trace{trace.Constant(1e12), trace.Constant(1e12)},
	})
	var lastLowAt time.Duration
	net.SetHandler(1, func(e wire.Envelope) {
		if wire.PriorityOf(e.Payload) == wire.PrioRetrieval {
			lastLowAt = sim.Now()
		}
	})
	low := wire.Envelope{From: 0, Epoch: 1, Proposer: 0, Payload: wire.ReturnChunk{Data: make([]byte, 1000)}}
	high := wire.Envelope{From: 0, Epoch: 1, Proposer: 0, Payload: wire.Chunk{Data: make([]byte, 1000)}}
	for i := 0; i < 100; i++ {
		net.Send(0, 1, low, wire.PrioRetrieval, 1)
	}
	sim.Run(2 * time.Second) // ~200 KB possible; 100 KB queued: all low served
	for i := 0; i < 100; i++ {
		net.Send(0, 1, high, wire.PrioDispersal, 0)
		net.Send(0, 1, low, wire.PrioRetrieval, 1)
	}
	sim.Run(time.Minute)
	// If low had hoarded credit from its solo period it would finish all
	// its packets before any high; if high locked low out entirely,
	// lastLowAt would stay at the pre-injection value (~1 s).
	if lastLowAt < 2*time.Second {
		t.Fatalf("retrieval starved after dispersal arrived (last low at %v)", lastLowAt)
	}
}

func TestSelfSendDeliversInstantly(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim, Config{N: 1, Egress: []trace.Trace{trace.Constant(1)}})
	got := false
	net.SetHandler(0, func(e wire.Envelope) { got = true })
	net.Send(0, 0, mkEnv(0, 10), wire.PrioDispersal, 0)
	if !got {
		t.Fatal("self-send not delivered synchronously")
	}
}

func TestVariableBandwidthSlowsDelivery(t *testing.T) {
	// A message sent during a low-bandwidth second takes longer than the
	// same message during a high-bandwidth second.
	tr := &trace.Sampled{Tick: time.Second, Rates: []float64{100, 100_000}}
	sim := NewSim()
	net := NewNetwork(sim, Config{
		N:       2,
		Delay:   func(int, int) time.Duration { return 0 },
		Egress:  []trace.Trace{tr, tr},
		Ingress: []trace.Trace{trace.Constant(1e12), trace.Constant(1e12)},
	})
	var at []time.Duration
	net.SetHandler(1, func(e wire.Envelope) { at = append(at, sim.Now()) })
	env := mkEnv(0, 300) // ~400 wire bytes: 1s@100B/s serves 100B, rest at 100KB/s
	net.Send(0, 1, env, wire.PrioDispersal, 0)
	sim.Run(time.Minute)
	if len(at) != 1 {
		t.Fatal("message not delivered")
	}
	if at[0] <= time.Second {
		t.Fatalf("delivery at %v; should have straddled the slow second", at[0])
	}
	if at[0] > 1100*time.Millisecond {
		t.Fatalf("delivery at %v; fast second should finish the tail quickly", at[0])
	}
}
