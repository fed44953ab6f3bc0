// Package simnet is a deterministic discrete-event network emulator that
// stands in for the paper's testbeds and Mahimahi setup (see DESIGN.md).
//
// The model matches what the paper's controlled experiments emulate
// (§6.3): every node has an ingress pipe and an egress pipe, each capped
// by a (possibly time-varying) bandwidth trace; every ordered node pair
// has a one-way propagation delay. A message sent from A to B is
// serialized through A's egress pipe at A's egress rate, flies for
// delay(A,B), is serialized through B's ingress pipe at B's ingress rate,
// and is then handed to B's message handler, which executes instantly in
// simulated time.
//
// Each pipe schedules two traffic classes with byte-weighted fair
// queueing — dispersal traffic gets weight T (30 by default) versus
// retrieval's 1, reproducing the MulTcp-style priority of §5 — and
// serves the retrieval class in ascending epoch order, reproducing the
// per-epoch QUIC stream priority.
//
// Events fire in one total order, (time, scheduling sequence number),
// so a run is a function of its inputs. The scheduler is a binary heap
// of events whose action is a value with a fire method: a pipe is its
// own completion event and a link is its own arrival event, so moving a
// message allocates nothing but its packet, and Network reuses delivered
// packets. A packet leaving an egress pipe is stamped with its arrival
// (time, sequence) and appended to its link's propagation FIFO, of
// which only the head sits in the heap; a
// link's delay is constant, so the FIFO is already in (time, sequence)
// order and the fire order is the one a heap of every packet would give.
// A packet that would arrive before the link's last one gets an event of
// its own instead: only a fault does that, through jitter, a jittered
// duplicate, or extra delay that has since been lifted.
package simnet

import "time"

// Sim is a discrete-event scheduler. Events with equal times fire in
// scheduling order, which keeps runs fully deterministic.
type Sim struct {
	now    time.Duration
	seq    uint64
	events []event // binary min-heap on (at, seq)
}

// firer is a scheduled event's action.
type firer interface{ fire() }

// funcEvent adapts a timer callback to firer.
type funcEvent func()

func (f funcEvent) fire() { f() }

type event struct {
	at  time.Duration
	seq uint64
	f   firer
}

func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// NewSim returns an empty simulator at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() time.Duration { return s.now }

// At schedules fn at absolute time t (>= Now).
func (s *Sim) At(t time.Duration, fn func()) { s.schedule(t, funcEvent(fn)) }

// After schedules fn after duration d.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// schedule queues f at t, clamped to Now, behind everything already
// scheduled for that instant.
func (s *Sim) schedule(t time.Duration, f firer) {
	if t < s.now {
		t = s.now
	}
	s.push(event{at: t, seq: s.stamp(), f: f})
}

// stamp returns the next scheduling sequence number. An event queued
// outside the heap (a link FIFO's tail) takes its number when it is
// scheduled, not when it enters the heap.
func (s *Sim) stamp() uint64 {
	s.seq++
	return s.seq
}

// Run processes events until the queue empties or simulated time would
// exceed until. It returns the number of events processed.
func (s *Sim) Run(until time.Duration) int {
	n := 0
	for len(s.events) > 0 && s.events[0].at <= until {
		ev := s.pop()
		s.now = ev.at
		ev.f.fire()
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// Pending reports whether events remain scheduled.
func (s *Sim) Pending() bool { return len(s.events) > 0 }

func (s *Sim) push(ev event) {
	h := append(s.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	s.events = h
}

func (s *Sim) pop() event {
	h := s.events
	top := h[0]
	last := len(h) - 1
	ev := h[last]
	h[last] = event{} // let the heap's array drop the action
	h = h[:last]
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&ev) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if last > 0 {
		h[i] = ev
	}
	s.events = h
	return top
}
