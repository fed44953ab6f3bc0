package telemetry

import (
	"fmt"
	"io"
	"sync"
)

// ring is a fixed-capacity overwrite-oldest buffer. Callers lock.
type ring[T any] struct {
	buf  []T
	next int
	full bool
}

// newRing allocates a ring of the given size, or def when size <= 0.
func newRing[T any](size, def int) ring[T] {
	if size <= 0 {
		size = def
	}
	return ring[T]{buf: make([]T, size)}
}

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// snapshot copies the retained values out, oldest first.
func (r *ring[T]) snapshot() []T {
	var out []T
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// FlightRecorder is the node's "black box": a bounded ring journal of
// the protocol events the replica reports on its hot path (see the
// kinds table for which), kept for post-mortem analysis of invariant
// failures and slow epochs. Fixed capacity, overwrite-oldest, no
// allocation per event after construction. A nil *FlightRecorder reads
// empty.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  ring[Event]
	total uint64
}

// newFlightRecorder builds a recorder retaining the last size events
// (0 picks the default of 4096).
func newFlightRecorder(size int) *FlightRecorder {
	return &FlightRecorder{ring: newRing[Event](size, 4096)}
}

// record journals one event. Safe from any goroutine; allocation-free.
func (f *FlightRecorder) record(ev Event) {
	f.mu.Lock()
	f.ring.push(ev)
	f.total++
	f.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (f *FlightRecorder) Events() []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.snapshot()
}

// Total returns the number of events ever recorded (retained or
// overwritten).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// WriteText renders the retained journal, one event per line, oldest
// first, with a header noting overwritten events.
func (f *FlightRecorder) WriteText(w io.Writer) error {
	evs := f.Events()
	total := f.Total()
	if _, err := fmt.Fprintf(w, "flight recorder: %d events retained, %d recorded\n", len(evs), total); err != nil {
		return err
	}
	for _, e := range evs {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}
