package simnet

import (
	"time"

	"dledger/internal/trace"
	"dledger/internal/wire"
)

// Handler consumes messages delivered to a node.
type Handler func(env wire.Envelope)

// Config describes the emulated network.
type Config struct {
	N int
	// Delay returns the one-way propagation delay between a node pair.
	// The paper's controlled setup uses a flat 100 ms.
	Delay func(from, to int) time.Duration
	// Egress and Ingress are per-node bandwidth traces. If Ingress is
	// nil, the egress traces are used for both directions (the paper
	// throttles both with the same trace).
	Egress  []trace.Trace
	Ingress []trace.Trace
	// PriorityWeight is T from §5: the bandwidth share multiplier of
	// dispersal over retrieval traffic. Zero means the paper's T = 30.
	PriorityWeight float64
}

// Network emulates the WAN between N nodes.
type Network struct {
	sim     *Sim
	cfg     Config
	egress  []*pipe
	ingress []*pipe
	handler []Handler
	// links[from*N+to] carries the packets propagating from→to.
	links []link

	// faults is the chaos layer's link-impairment table (see faults.go);
	// empty on ordinary runs, in which case deliver() is a passthrough.
	faults faultState

	// Per-node, per-class byte counters (bytes that completed ingress),
	// feeding Fig 13's dispersal-fraction measurement.
	recv [][2]int64
	sent [][2]int64

	// free holds delivered packets for reuse by Send. A packet is freed
	// once, after its receiver's handler returns: by then no pipe, link or
	// hold queue refers to it (a fault's duplicate is a copy of its own).
	free []*packet
}

// NewNetwork builds the emulated network on top of sim.
func NewNetwork(sim *Sim, cfg Config) *Network {
	if cfg.PriorityWeight == 0 {
		cfg.PriorityWeight = 30
	}
	if cfg.Ingress == nil {
		cfg.Ingress = cfg.Egress
	}
	if cfg.Delay == nil {
		cfg.Delay = func(int, int) time.Duration { return 100 * time.Millisecond }
	}
	n := &Network{
		sim:     sim,
		cfg:     cfg,
		handler: make([]Handler, cfg.N),
		faults:  faultState{links: map[linkKey]*linkFaultState{}},
		links:   make([]link, cfg.N*cfg.N),
		recv:    make([][2]int64, cfg.N),
		sent:    make([][2]int64, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		i := i
		n.egress = append(n.egress, newPipe(sim, cfg.Egress[i], cfg.PriorityWeight, func(pkt *packet) {
			// Egress done: apply link faults (if any), propagate, then
			// enter the receiver's ingress.
			n.deliver(pkt)
		}))
		n.ingress = append(n.ingress, newPipe(sim, ingressTrace(cfg, i), cfg.PriorityWeight, func(pkt *packet) {
			n.recv[pkt.to][pkt.prio] += int64(pkt.size)
			if h := n.handler[pkt.to]; h != nil {
				h(pkt.env)
			}
			*pkt = packet{} // drop the payload before the packet waits for reuse
			n.free = append(n.free, pkt)
		}))
	}
	for i := range n.links {
		n.links[i].to = n.ingress[i%cfg.N]
	}
	return n
}

func ingressTrace(cfg Config, i int) trace.Trace { return cfg.Ingress[i] }

// SetHandler installs the message sink of node i.
func (n *Network) SetHandler(i int, h Handler) { n.handler[i] = h }

// Send injects a message from `from` to `to`. Size is charged at both the
// sender's egress and the receiver's ingress.
func (n *Network) Send(from, to int, env wire.Envelope, prio wire.Priority, stream uint64) {
	if to == from {
		// Self-sends shouldn't occur (the engine loops back internally);
		// deliver instantly if they do.
		if h := n.handler[to]; h != nil {
			h(env)
		}
		return
	}
	pkt := n.newPacket()
	*pkt = packet{from: from, to: to, env: env, size: env.WireSize(), prio: prio, stream: stream}
	n.sent[from][prio] += int64(pkt.size)
	n.egress[from].enqueue(pkt)
}

// newPacket takes a delivered packet off the free list, or allocates one.
func (n *Network) newPacket() *packet {
	if k := len(n.free) - 1; k >= 0 {
		pkt := n.free[k]
		n.free[k] = nil
		n.free = n.free[:k]
		return pkt
	}
	return new(packet)
}

// link is the propagation leg of an ordered node pair: the packets
// flying toward the receiver's ingress pipe, in (at, seq) order. Its head
// is its one event in the simulator.
type link struct {
	to     *pipe // the receiver's ingress
	flying queue[flight]
}

// flight is a packet stamped, as it left the egress pipe, with the time
// and sequence number of its arrival event.
type flight struct {
	at  time.Duration
	seq uint64
	pkt *packet
}

func (l *link) fire() {
	pkt := l.flying.pop().pkt
	if l.flying.len() > 0 {
		next := l.flying.peek()
		l.to.sim.push(event{at: next.at, seq: next.seq, f: l})
	}
	l.to.enqueue(pkt)
}

// propagate schedules the packet through its propagation delay and into
// the receiver's ingress pipe.
func (n *Network) propagate(pkt *packet) { n.propagateAfter(pkt, 0) }

// propagateAfter is propagate with extra delay on top of the link's.
func (n *Network) propagateAfter(pkt *packet, extra time.Duration) {
	at := max(n.sim.now+n.cfg.Delay(pkt.from, pkt.to)+extra, n.sim.now)
	l := &n.links[pkt.from*n.cfg.N+pkt.to]
	if q := &l.flying; q.len() > 0 && at < q.buf[len(q.buf)-1].at {
		// It would overtake the link's last packet: fault delay or jitter
		// makes the link's delay vary, and the FIFO would leave order.
		n.sim.At(at, func() { l.to.enqueue(pkt) })
		return
	}
	f := flight{at: at, seq: n.sim.stamp(), pkt: pkt}
	l.flying.push(f)
	if l.flying.len() == 1 { // the link was idle: f is its head
		n.sim.push(event{at: f.at, seq: f.seq, f: l})
	}
}

// Unsend drops queued-but-unsent ReturnChunk packets from `from`'s egress
// that are addressed to `to` for the given VID instance — the emulator's
// analogue of canceling a QUIC stream. Bytes already "on the wire"
// (in service, propagating, or queued at the receiver's ingress) are
// unaffected, as in a real network.
func (n *Network) Unsend(from, to int, epoch uint64, proposer int) {
	dropped := n.egress[from].unsend(func(pkt *packet) bool {
		if pkt.to != to || pkt.env.Epoch != epoch || pkt.env.Proposer != proposer {
			return false
		}
		_, isReturn := pkt.env.Payload.(wire.ReturnChunk)
		return isReturn
	})
	n.sent[from][wire.PrioRetrieval] -= dropped
}

// BytesReceived returns node i's completed ingress bytes per class.
func (n *Network) BytesReceived(i int) (dispersal, retrieval int64) {
	return n.recv[i][wire.PrioDispersal], n.recv[i][wire.PrioRetrieval]
}

// BytesSent returns node i's egress bytes per class (counted at enqueue).
func (n *Network) BytesSent(i int) (dispersal, retrieval int64) {
	return n.sent[i][wire.PrioDispersal], n.sent[i][wire.PrioRetrieval]
}
