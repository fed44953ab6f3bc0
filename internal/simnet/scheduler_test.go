package simnet

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dledger/internal/merkle"
	"dledger/internal/trace"
	"dledger/internal/wire"
)

// refSim is the scheduler this package used before its typed heap:
// container/heap over closures, ordered by (at, seq). It is the oracle
// of the differential tests below.
type refSim struct {
	now    time.Duration
	seq    uint64
	events refHeap
}

func (s *refSim) Now() time.Duration { return s.now }

func (s *refSim) At(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, refEvent{at: t, seq: s.seq, fn: fn})
}

func (s *refSim) Run(until time.Duration) int {
	n := 0
	for len(s.events) > 0 {
		ev := s.events[0]
		if ev.at > until {
			break
		}
		heap.Pop(&s.events)
		s.now = ev.at
		ev.fn()
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

func (s *refSim) Pending() bool { return len(s.events) > 0 }

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

type scheduler interface {
	Now() time.Duration
	At(time.Duration, func())
	Run(time.Duration) int
	Pending() bool
}

// schedule drives s through a random program and logs every firing and
// every Run. Times come from a coarse grid, so many events share an
// instant; events schedule children (at their own instant, later, or in
// the past, which clamps); Run horizons fall between, on and beyond event
// times. The program reads its RNG in firing order, so the first
// divergence scrambles the rest of the log.
func schedule(s scheduler, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var log strings.Builder
	id := 0
	grid := func() time.Duration { return time.Duration(rng.Intn(8)) * time.Millisecond }
	var add func(at time.Duration, depth int)
	add = func(at time.Duration, depth int) {
		id++
		me := id
		s.At(at, func() {
			fmt.Fprintf(&log, "%d@%d ", me, s.Now())
			if depth < 4 {
				for k := rng.Intn(3); k > 0; k-- {
					switch rng.Intn(3) {
					case 0:
						add(s.Now(), depth+1)
					case 1:
						add(s.Now()+grid(), depth+1)
					default:
						add(s.Now()-grid(), depth+1)
					}
				}
			}
		})
	}
	for i := 0; i < 200; i++ {
		add(grid()*4, 0)
	}
	for horizon := time.Duration(0); s.Pending(); {
		horizon += time.Duration(rng.Intn(5000)) * time.Microsecond
		fmt.Fprintf(&log, "| run(%d)=%d now=%d\n", horizon, s.Run(horizon), s.Now())
		for k := rng.Intn(4); k > 0; k-- {
			add(s.Now()+grid()-4*time.Millisecond, 0)
		}
	}
	return log.String()
}

func TestSchedulerMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		want := schedule(&refSim{}, seed)
		if got := schedule(NewSim(), seed); got != want {
			t.Fatalf("seed %d: fire order differs from container/heap:\n%s", seed, firstDiff(got, want))
		}
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %.300s\nwant: %.300s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("logs of %d and %d lines", len(g), len(w))
}

// faultTraffic runs a random two-node exchange while the fault on each
// direction is switched mid-flight among Delay, Jitter, Duplicate, Hold
// and cleared, and logs every delivery. Message sizes are multiples of
// 100 wire bytes and rates of 50 KB/s, so service times, arrivals and
// timers share a 250 µs grid and many events tie on time. With
// perPacket, every link is first given a tail that no packet can follow,
// so each packet takes a propagation event of its own: the scheduling
// this package used before link FIFOs.
func faultTraffic(seed int64, perPacket bool) string {
	rng := rand.New(rand.NewSource(seed))
	sim := NewSim()
	rates := func() trace.Trace {
		r := make([]float64, 64)
		for i := range r {
			r[i] = []float64{50e3, 100e3, 200e3}[rng.Intn(3)]
		}
		return &trace.Sampled{Tick: 50 * time.Millisecond, Rates: r}
	}
	overhead := mkEnv(0, 0).WireSize()
	net := NewNetwork(sim, Config{
		N:       2,
		Delay:   func(from, _ int) time.Duration { return time.Duration(4+3*from) * time.Millisecond },
		Egress:  []trace.Trace{rates(), rates()},
		Ingress: []trace.Trace{rates(), rates()},
	})
	if perPacket {
		for i := range net.links {
			net.links[i].flying.push(flight{at: math.MaxInt64})
		}
	}
	net.SetFaultSeed(seed)

	var log strings.Builder
	var id uint64
	send := func(from int) {
		id++
		var root merkle.Root
		binary.LittleEndian.PutUint64(root[:], id)
		stream := uint64(rng.Intn(4))
		data := make([]byte, 100*(1+rng.Intn(30))-overhead)
		var m wire.Msg = wire.Chunk{Root: root, Data: data}
		if rng.Intn(2) == 0 {
			m = wire.ReturnChunk{Root: root, Data: data}
		}
		env := wire.Envelope{From: from, Epoch: stream, Proposer: rng.Intn(2), Payload: m}
		net.Send(from, 1-from, env, wire.PriorityOf(m), stream)
	}
	for i := 0; i < 2; i++ {
		i := i
		net.SetHandler(i, func(e wire.Envelope) {
			var root merkle.Root
			switch m := e.Payload.(type) {
			case wire.Chunk:
				root = m.Root
			case wire.ReturnChunk:
				root = m.Root
			}
			fmt.Fprintf(&log, "%d@%d>%d ", binary.LittleEndian.Uint64(root[:]), sim.Now(), i)
			if rng.Intn(4) == 0 {
				send(i) // a reply, sent from inside an event
			}
		})
	}
	faults := []LinkFault{
		{Delay: 30 * time.Millisecond},
		{Jitter: 20 * time.Millisecond},
		{Duplicate: 0.5},
		{Duplicate: 0.5, Jitter: 5 * time.Millisecond},
		{Delay: 10 * time.Millisecond, Jitter: 10 * time.Millisecond},
		{Hold: true},
		{},
	}
	for step := 0; step < 600; step++ {
		from := rng.Intn(2)
		switch r := rng.Intn(10); {
		case r < 6:
			send(from)
		case r < 8:
			net.SetLinkFault(from, 1-from, faults[rng.Intn(len(faults))])
		case r < 9:
			net.Unsend(from, 1-from, uint64(rng.Intn(4)), rng.Intn(2))
		default:
			sim.At(sim.Now()-time.Millisecond, func() { send(from) })
		}
		fmt.Fprintf(&log, "| run=%d\n", sim.Run(sim.Now()+time.Duration(rng.Intn(6))*time.Millisecond))
	}
	net.ClearLinkFault(0, 1)
	net.ClearLinkFault(1, 0)
	fmt.Fprintf(&log, "| drain=%d\n", sim.Run(time.Hour))
	for i := 0; i < 2; i++ {
		d, r := net.BytesReceived(i)
		sd, sr := net.BytesSent(i)
		fmt.Fprintf(&log, "node %d recv %d/%d sent %d/%d\n", i, d, r, sd, sr)
	}
	d, r := net.FaultDrops()
	fmt.Fprintf(&log, "drops %d/%d\n", d, r)
	return log.String()
}

func TestLinkFIFOMatchesPerPacketEvents(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want := faultTraffic(seed, true)
		if got := faultTraffic(seed, false); got != want {
			t.Fatalf("seed %d: deliveries differ from per-packet propagation events:\n%s", seed, firstDiff(got, want))
		}
	}
}

func TestMessageReusesADeliveredPacket(t *testing.T) {
	for _, prio := range []wire.Priority{wire.PrioDispersal, wire.PrioRetrieval} {
		sim, net := twoNodeNet()
		delivered := 0
		net.SetHandler(1, func(wire.Envelope) { delivered++ })
		env := mkEnv(0, 100)
		allocs := testing.AllocsPerRun(100, func() {
			net.Send(0, 1, env, prio, 1)
			sim.Run(sim.Now() + time.Second)
		})
		if delivered != 101 {
			t.Fatalf("class %d: delivered %d of 101 messages", prio, delivered)
		}
		if allocs != 0 {
			t.Fatalf("class %d: a message over an idle link made %v allocations, want 0 (its packet is the last one's)", prio, allocs)
		}
	}
}

func TestRunFiresPipeAndLinkEventsWithoutAllocating(t *testing.T) {
	sim, net := twoNodeNet()
	delivered := 0
	net.SetHandler(1, func(wire.Envelope) { delivered++ })
	env := mkEnv(0, 100)
	for i := 0; i < 2000; i++ {
		net.Send(0, 1, env, wire.PrioDispersal, 0)
	}
	// Fill the link to its steady depth (10 ms of packets) first.
	sim.Run(50 * time.Millisecond)
	before, fired := delivered, 0
	allocs := testing.AllocsPerRun(100, func() {
		fired += sim.Run(sim.Now() + time.Millisecond)
	})
	if delivered-before < 300 || fired < 3*(delivered-before) {
		t.Fatalf("measured %d deliveries in %d events; the backlog ran dry", delivered-before, fired)
	}
	if allocs != 0 {
		t.Fatalf("Run firing pipe and link events made %v allocations per call, want 0", allocs)
	}
}

// BenchmarkSimnetMessage sends one message per op across a 16-node
// network with 40–140 ms links, advancing virtual time 100 µs per op,
// so ~900 packets are in flight.
func BenchmarkSimnetMessage(b *testing.B) {
	const n = 16
	traces := make([]trace.Trace, n)
	for i := range traces {
		traces[i] = trace.Constant(1e6)
	}
	sim := NewSim()
	net := NewNetwork(sim, Config{
		N:      n,
		Delay:  func(from, to int) time.Duration { return time.Duration(40+(from*7+to*13)%101) * time.Millisecond },
		Egress: traces,
	})
	for i := 0; i < n; i++ {
		net.SetHandler(i, func(wire.Envelope) {})
	}
	env := mkEnv(0, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := i % n
		net.Send(from, (from+1+i/n%(n-1))%n, env, wire.PrioDispersal, 0)
		sim.Run(sim.Now() + 100*time.Microsecond)
	}
}
