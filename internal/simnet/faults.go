package simnet

import (
	"math/rand"
	"time"
)

// LinkFault describes impairments applied to one directed link. Faults
// are consulted when a packet finishes the sender's egress pipe — the
// instant its last byte "hits the wire" — so a fault installed at time t
// affects exactly the packets serialized after t, while bytes already in
// flight keep propagating, as on a real network.
//
// Two partition flavours are provided because they model different
// transports. Cut drops packets outright: the UDP/emulator view, where a
// partitioned window loses messages forever (safety must survive this,
// but the protocol's liveness assumes reliable delivery, so only
// safety invariants may be checked under Cut). Hold queues packets and
// releases them in order when the fault is cleared: the TCP/QUIC view,
// where the transport buffers and retransmits across the outage, which
// preserves the eventual-delivery assumption and keeps liveness
// checkable.
type LinkFault struct {
	// Cut drops every packet on the link (lossy partition).
	Cut bool
	// Hold queues every packet; ClearLinkFault (or replacing the fault
	// with one that does not hold) releases the queue in send order.
	Hold bool
	// Drop is an iid per-packet drop probability in [0,1).
	Drop float64
	// Delay is extra fixed propagation delay added to the link.
	Delay time.Duration
	// Jitter adds a uniform random delay in [0,Jitter) per packet.
	// Because packets jitter independently, a nonzero value reorders
	// traffic on the link.
	Jitter time.Duration
	// Duplicate is the iid probability of delivering a second copy of a
	// packet (with independent jitter).
	Duplicate float64
}

// random reports whether applying the fault consumes randomness. Links
// without random faults never touch the RNG, so installing deterministic
// faults (Cut/Hold/Delay) perturbs nothing else.
func (f LinkFault) random() bool {
	return f.Drop > 0 || f.Jitter > 0 || f.Duplicate > 0
}

// zero reports whether the fault does nothing.
func (f LinkFault) zero() bool {
	return f == LinkFault{}
}

type linkKey struct{ from, to int }

// faultState is the network's fault-injection table. All methods run on
// the simulator goroutine; determinism follows from the deterministic
// event order and the seeded RNG.
type faultState struct {
	rng   *rand.Rand
	links map[linkKey]*linkFaultState
	// drops counts packets destroyed by Cut or Drop, per class.
	drops [2]int64
}

type linkFaultState struct {
	fault LinkFault
	held  []*packet
}

// SetFaultSeed seeds the RNG behind probabilistic faults (drop, jitter,
// duplication). Runs that install only deterministic faults need not
// call it. Call before traffic flows for reproducible runs.
func (n *Network) SetFaultSeed(seed int64) {
	n.faults.rng = rand.New(rand.NewSource(seed))
}

// SetLinkFault installs (or replaces) the fault on the directed link
// from→to. Replacing a holding fault with a non-holding one releases the
// held packets in order. Installing a fault on a self-link is a no-op
// (self-sends bypass the network).
func (n *Network) SetLinkFault(from, to int, f LinkFault) {
	if from == to {
		return
	}
	key := linkKey{from, to}
	st := n.faults.links[key]
	if st == nil {
		if f.zero() {
			return
		}
		st = &linkFaultState{}
		n.faults.links[key] = st
	}
	st.fault = f
	if !f.Hold && len(st.held) > 0 {
		n.releaseHeld(st)
	}
	if f.zero() {
		delete(n.faults.links, key)
	}
}

// ClearLinkFault removes the fault on from→to, releasing held packets.
func (n *Network) ClearLinkFault(from, to int) {
	n.SetLinkFault(from, to, LinkFault{})
}

// FaultDrops returns the packets destroyed so far by Cut/Drop faults,
// per traffic class.
func (n *Network) FaultDrops() (dispersal, retrieval int64) {
	return n.faults.drops[0], n.faults.drops[1]
}

// releaseHeld re-injects a hold queue, preserving send order: packet k
// is scheduled at now + k nanoseconds before the normal propagation
// delay, so released packets cannot leapfrog each other even through
// jitter-free links. Released packets re-enter deliver(), not raw
// propagation: the fault that replaced the hold still applies to them —
// a Hold window replaced by a Cut must drop its backlog, not leak it
// through the supposedly dead link.
func (n *Network) releaseHeld(st *linkFaultState) {
	held := st.held
	st.held = nil
	for k, pkt := range held {
		pkt := pkt
		n.sim.After(time.Duration(k)*time.Nanosecond, func() {
			n.deliver(pkt)
		})
	}
}

// deliver applies the link's fault (if any) to a packet leaving the
// sender's egress pipe, then propagates it toward the receiver's ingress.
func (n *Network) deliver(pkt *packet) {
	st := n.faults.links[linkKey{pkt.from, pkt.to}]
	if st == nil {
		n.propagate(pkt)
		return
	}
	f := st.fault
	switch {
	case f.Cut:
		n.faults.drops[pkt.prio]++
		return
	case f.Hold:
		st.held = append(st.held, pkt)
		return
	}
	rng := n.faults.rng
	if f.random() && rng == nil {
		// Probabilistic faults without a seed would be nondeterministic;
		// default to a fixed seed so runs stay replayable.
		rng = rand.New(rand.NewSource(0))
		n.faults.rng = rng
	}
	if f.Drop > 0 && rng.Float64() < f.Drop {
		n.faults.drops[pkt.prio]++
		return
	}
	extra := f.Delay
	if f.Jitter > 0 {
		extra += time.Duration(rng.Int63n(int64(f.Jitter)))
	}
	n.propagateAfter(pkt, extra)
	if f.Duplicate > 0 && rng.Float64() < f.Duplicate {
		delay := f.Delay
		if f.Jitter > 0 {
			delay += time.Duration(rng.Int63n(int64(f.Jitter)))
		}
		// A copy: each delivery frees its packet for reuse.
		dup := n.newPacket()
		*dup = *pkt
		n.propagateAfter(dup, delay)
	}
}
