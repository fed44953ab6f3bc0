// Package transport runs DispersedLedger replicas over TCP: a mesh over
// the operating system's TCP stack, with one high-priority and one
// low-priority connection per ordered node pair, sender-side strict
// prioritization of dispersal over retrieval traffic, and per-epoch
// ordering of retrieval traffic. A TCPNode takes options in and runs a
// replica on its own event loop, reached through Submit, Inspect and
// Close; the public API's NewCluster runs N of them in one process over
// loopback.
//
// Fidelity note (DESIGN.md): the paper achieves its 30:1 bandwidth split
// by tuning QUIC's congestion controller (MulTcp). Kernel TCP offers no
// such knob, so this transport prioritizes at the sender and leaves
// bottleneck sharing to TCP; the emulator (package simnet) is where the
// weighted-sharing behaviour is reproduced exactly.
//
// Every node runs a single-goroutine event loop; the replica, which is a
// single-threaded state machine, executes entirely on that loop.
package transport

import (
	"sync"
	"time"
)

// eventLoop serializes all work of one node onto one goroutine.
type eventLoop struct {
	start time.Time
	ch    chan func()
	done  chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

func newEventLoop() *eventLoop {
	l := &eventLoop{
		start: time.Now(),
		ch:    make(chan func(), 4096),
		done:  make(chan struct{}),
	}
	l.wg.Add(1)
	go l.run()
	return l
}

func (l *eventLoop) run() {
	defer l.wg.Done()
	for {
		select {
		case fn := <-l.ch:
			fn()
		case <-l.done:
			// Drain whatever is already queued, then stop.
			for {
				select {
				case fn := <-l.ch:
					fn()
				default:
					return
				}
			}
		}
	}
}

// post schedules fn on the loop; it drops work after close.
func (l *eventLoop) post(fn func()) {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return
	}
	select {
	case l.ch <- fn:
	case <-l.done:
	}
}

// now returns the loop-relative monotonic time.
func (l *eventLoop) now() time.Duration { return time.Since(l.start) }

// after schedules fn on the loop after d.
func (l *eventLoop) after(d time.Duration, fn func()) {
	time.AfterFunc(d, func() { l.post(fn) })
}

func (l *eventLoop) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	close(l.done)
	l.wg.Wait()
}
