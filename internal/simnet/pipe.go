package simnet

import (
	"time"

	"dledger/internal/trace"
	"dledger/internal/wire"
)

// packet is one message in flight through the emulator.
type packet struct {
	from, to int
	env      wire.Envelope
	size     int
	prio     wire.Priority
	stream   uint64 // epoch, for retrieval ordering
}

// pipe is a rate-limited serializer with two weighted traffic classes.
// The high class (dispersal) and low class (retrieval) share the pipe's
// trace-driven bandwidth with byte-weighted fairness; within the low
// class, lower streams (earlier epochs) go first. A busy pipe is its own
// event in the simulator: it fires when its packet's last byte is out.
type pipe struct {
	sim    *Sim
	tr     trace.Trace
	weight float64 // high-class weight; low class has weight 1

	high queue[*packet]
	low  queue[*packet] // ordered by stream, FIFO within a stream

	// virtual time per class: bytes served divided by weight.
	vHigh, vLow float64
	cur         *packet // in service; nil when the pipe is idle

	onDone func(*packet)

	// byte accounting per class, for Fig 13.
	served [2]int64
}

func newPipe(sim *Sim, tr trace.Trace, weight float64, onDone func(*packet)) *pipe {
	return &pipe{sim: sim, tr: tr, weight: weight, onDone: onDone}
}

// enqueue admits a packet and starts service if the pipe is idle.
func (p *pipe) enqueue(pkt *packet) {
	if pkt.prio == wire.PrioDispersal {
		if p.high.len() == 0 && p.vHigh < p.vLow {
			// A class returning from idle must not burn accumulated
			// credit; advance its virtual time to the active class's.
			p.vHigh = p.vLow
		}
		p.high.push(pkt)
	} else {
		if p.low.len() == 0 && p.vLow < p.vHigh {
			p.vLow = p.vHigh
		}
		// Behind every queued packet of the same or an earlier stream.
		p.low.push(pkt)
		q, i := p.low.buf, len(p.low.buf)-1
		for ; i > p.low.head && q[i-1].stream > pkt.stream; i-- {
			q[i] = q[i-1]
		}
		q[i] = pkt
	}
	if p.cur == nil {
		p.serveNext()
	}
}

// fire ends the service of the packet on the wire and starts the next.
func (p *pipe) fire() {
	p.onDone(p.cur)
	p.serveNext()
}

// serveNext picks the next packet by weighted virtual time and schedules
// its completion after the trace-integrated transmission time.
func (p *pipe) serveNext() {
	p.cur = p.pick()
	if p.cur != nil {
		p.sim.schedule(transmitEnd(p.tr, p.sim.Now(), float64(p.cur.size)), p)
	}
}

func (p *pipe) pick() *packet {
	hasHigh := p.high.len() > 0
	hasLow := p.low.len() > 0
	switch {
	case !hasHigh && !hasLow:
		return nil
	case hasHigh && (!hasLow || p.vHigh <= p.vLow):
		pkt := p.high.pop()
		p.vHigh += float64(pkt.size) / p.weight
		p.served[wire.PrioDispersal] += int64(pkt.size)
		return pkt
	default:
		pkt := p.low.pop() // lowest stream (earliest epoch) first
		p.vLow += float64(pkt.size)
		p.served[wire.PrioRetrieval] += int64(pkt.size)
		return pkt
	}
}

// transmitEnd integrates the trace's piecewise-constant rate from start
// until size bytes have been served.
func transmitEnd(tr trace.Trace, start time.Duration, size float64) time.Duration {
	t := start
	remaining := size
	for {
		rate := tr.RateAt(t)
		if rate <= 0 {
			// Defensive: traces must be positive; treat as 1 B/s.
			rate = 1
		}
		next := tr.NextChange(t)
		need := time.Duration(remaining / rate * float64(time.Second))
		if next == trace.Forever || t+need <= next {
			end := t + need
			if end <= t {
				end = t + time.Nanosecond // ensure progress for tiny messages
			}
			return end
		}
		remaining -= rate * (next - t).Seconds()
		t = next
	}
}

// unsend removes queued low-priority packets matching the predicate
// (packets already in service are beyond recall, like bytes on the wire).
// It returns the number of bytes dropped.
func (p *pipe) unsend(match func(*packet) bool) int64 {
	var dropped int64
	p.low.filter(func(pkt *packet) bool {
		if match(pkt) {
			dropped += int64(pkt.size)
			return false
		}
		return true
	})
	return dropped
}

// queue is a FIFO over a reused array: a pop leaves the array in place,
// an emptied queue starts again at its front, and a full one slides its
// items forward rather than grow while at least half of it is spent. A
// queue that drains now and then stops allocating at its peak length.
type queue[T any] struct {
	buf  []T // the items are buf[head:]
	head int
}

func (q *queue[T]) len() int { return len(q.buf) - q.head }

func (q *queue[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *queue[T]) peek() T { return q.buf[q.head] }

func (q *queue[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// filter drops the items keep rejects, preserving the order of the rest.
func (q *queue[T]) filter(keep func(T) bool) {
	live := q.buf[q.head:]
	kept := live[:0]
	for _, v := range live {
		if keep(v) {
			kept = append(kept, v)
		}
	}
	clear(live[len(kept):])
	q.buf = q.buf[:q.head+len(kept)]
	if len(kept) == 0 {
		q.buf, q.head = q.buf[:0], 0
	}
}
