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
// class, lower streams (earlier epochs) go first.
type pipe struct {
	sim    *Sim
	tr     trace.Trace
	weight float64 // high-class weight; low class has weight 1

	high []*packet
	low  map[uint64][]*packet // per-stream FIFOs
	lowN int

	// virtual time per class: bytes served divided by weight.
	vHigh, vLow float64
	busy        bool

	onDone func(*packet)

	// byte accounting per class, for Fig 13.
	served [2]int64
}

func newPipe(sim *Sim, tr trace.Trace, weight float64, onDone func(*packet)) *pipe {
	return &pipe{
		sim: sim, tr: tr, weight: weight,
		low:    map[uint64][]*packet{},
		onDone: onDone,
	}
}

// enqueue admits a packet and starts service if the pipe is idle.
func (p *pipe) enqueue(pkt *packet) {
	if pkt.prio == wire.PrioDispersal {
		if len(p.high) == 0 && p.vHigh < p.vLow {
			// A class returning from idle must not burn accumulated
			// credit; advance its virtual time to the active class's.
			p.vHigh = p.vLow
		}
		p.high = append(p.high, pkt)
	} else {
		if p.lowN == 0 && p.vLow < p.vHigh {
			p.vLow = p.vHigh
		}
		p.low[pkt.stream] = append(p.low[pkt.stream], pkt)
		p.lowN++
	}
	if !p.busy {
		p.serveNext()
	}
}

// serveNext picks the next packet by weighted virtual time and schedules
// its completion after the trace-integrated transmission time.
func (p *pipe) serveNext() {
	pkt := p.pick()
	if pkt == nil {
		p.busy = false
		return
	}
	p.busy = true
	end := transmitEnd(p.tr, p.sim.Now(), float64(pkt.size))
	p.sim.At(end, func() {
		p.onDone(pkt)
		p.serveNext()
	})
}

func (p *pipe) pick() *packet {
	hasHigh := len(p.high) > 0
	hasLow := p.lowN > 0
	switch {
	case !hasHigh && !hasLow:
		return nil
	case hasHigh && (!hasLow || p.vHigh <= p.vLow):
		pkt := p.high[0]
		p.high = p.high[1:]
		p.vHigh += float64(pkt.size) / p.weight
		p.served[wire.PrioDispersal] += int64(pkt.size)
		return pkt
	default:
		// Lowest stream (earliest epoch) first.
		var best uint64
		found := false
		for s, q := range p.low {
			if len(q) == 0 {
				continue
			}
			if !found || s < best {
				best, found = s, true
			}
		}
		q := p.low[best]
		pkt := q[0]
		if len(q) == 1 {
			delete(p.low, best)
		} else {
			p.low[best] = q[1:]
		}
		p.lowN--
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
	for s, q := range p.low {
		kept := q[:0]
		for _, pkt := range q {
			if match(pkt) {
				dropped += int64(pkt.size)
				p.lowN--
			} else {
				kept = append(kept, pkt)
			}
		}
		if len(kept) == 0 {
			delete(p.low, s)
		} else {
			p.low[s] = kept
		}
	}
	return dropped
}
