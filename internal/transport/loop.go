// Package transport runs DispersedLedger replicas over real networks.
//
// Two backends share one node model (options in, a replica on its own
// event loop out, reached through Submit, Inspect and Close):
//
//   - Memory: an in-process backend connecting nodes with channels, used
//     by the public API's NewCluster and the quickstart example.
//   - TCP: a real mesh over the operating system's TCP stack, with one
//     high-priority and one low-priority connection per ordered node
//     pair, sender-side strict prioritization of dispersal over
//     retrieval traffic, and per-epoch ordering of retrieval traffic.
//
// Fidelity note (DESIGN.md): the paper achieves its 30:1 bandwidth split
// by tuning QUIC's congestion controller (MulTcp). Kernel TCP offers no
// such knob, so the TCP backend prioritizes at the sender and leaves
// bottleneck sharing to TCP; the emulator (package simnet) is where the
// weighted-sharing behaviour is reproduced exactly.
//
// Every node runs a single-goroutine event loop; the replica, which is a
// single-threaded state machine, executes entirely on that loop.
package transport

import (
	"sync"
	"time"

	"dledger/internal/replica"
)

// node is what both backends embed: one replica, which is a
// single-threaded state machine, and the event loop it runs on.
type node struct {
	loop *eventLoop
	rep  *replica.Replica
}

// Submit hands a transaction to the node's mempool.
func (n *node) Submit(tx []byte) {
	n.loop.post(func() { n.rep.Submit(tx) })
}

// Inspect runs fn on the node's event loop and waits for it, giving safe
// access to the replica (e.g. its Stats).
func (n *node) Inspect(fn func(r *replica.Replica)) {
	done := make(chan struct{})
	n.loop.post(func() {
		fn(n.rep)
		close(done)
	})
	<-done
}

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
