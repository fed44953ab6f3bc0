// Package transport runs DispersedLedger replicas over TCP: a mesh over
// the operating system's TCP stack, with one high-priority and one
// low-priority connection per ordered node pair, sender-side strict
// prioritization of dispersal over retrieval traffic, and per-epoch
// ordering of retrieval traffic. Every connection opens with one signed
// handshake (auth.go) that names the sender and carries its writer's
// replay position, so a node needs the cluster's keyring. A TCPNode
// takes options in and runs a replica on its own event loop, reached
// through Submit, Inspect and Close; the public API's NewCluster runs N
// of them in one process over loopback.
//
// Fidelity note (DESIGN.md): the paper achieves its 30:1 bandwidth split
// by tuning QUIC's congestion controller (MulTcp). Kernel TCP offers no
// such knob, so this transport prioritizes at the sender and leaves
// bottleneck sharing to TCP; the emulator (package simnet) is where the
// weighted-sharing behaviour is reproduced exactly.
//
// Every node runs a single-goroutine event loop; the replica, which is a
// single-threaded state machine, executes entirely on that loop. One
// loop turn is the unit of durability and of socket I/O: the envelopes
// a turn drains reach the replica as one step, so one group commit
// covers them (a proposal the turn releases runs as a second step, with
// its own group commit), and the frames the turn sends reach each
// peer's writers at the turn's end, so they go out in one flush.
package transport

import (
	"sync"
	"time"

	"dledger/internal/wire"
)

// maxTurn bounds one loop turn: it ends once it has run this many
// posted functions and envelopes, so a busy loop still ends turns, and
// with them group commits and writer wake-ups, at a bounded pace.
const maxTurn = 256

// loopItem is one unit of posted work: a function, or the envelopes one
// reader decoded in a row.
type loopItem struct {
	fn   func()
	envs []wire.Envelope
}

// eventLoop serializes all work of one node onto one goroutine.
type eventLoop struct {
	start time.Time
	ch    chan loopItem
	done  chan struct{}
	wg    sync.WaitGroup

	// handle takes a turn's consecutive envelopes as one step; endTurn
	// runs after every turn. Both run on the loop.
	handle  func([]wire.Envelope)
	endTurn func()
	envs    []wire.Envelope // the envelopes gathered for handle, reused

	mu     sync.Mutex
	closed bool
}

func newEventLoop(handle func([]wire.Envelope), endTurn func()) *eventLoop {
	l := &eventLoop{
		start:   time.Now(),
		ch:      make(chan loopItem, 4096),
		done:    make(chan struct{}),
		handle:  handle,
		endTurn: endTurn,
	}
	l.wg.Add(1)
	go l.run()
	return l
}

func (l *eventLoop) run() {
	defer l.wg.Done()
	for {
		select {
		case it := <-l.ch:
			l.turn(it)
		case <-l.done:
			// Drain whatever is already queued, then stop.
			for {
				select {
				case it := <-l.ch:
					l.turn(it)
				default:
					return
				}
			}
		}
	}
}

// turn runs it and whatever else is already queued, up to maxTurn
// functions and envelopes. Envelopes are gathered and handed over
// together, but never across a function: a timer, Submit or Inspect
// posted between two readers' batches still runs between them.
func (l *eventLoop) turn(it loopItem) {
	for n := 0; ; {
		if it.fn != nil {
			l.flush()
			it.fn()
			n++
		} else {
			l.envs = append(l.envs, it.envs...)
			n += len(it.envs)
		}
		if n >= maxTurn {
			break
		}
		select {
		case it = <-l.ch:
			continue
		default:
		}
		break
	}
	l.flush()
	l.endTurn()
}

// flush hands the gathered envelopes to handle.
func (l *eventLoop) flush() {
	if len(l.envs) == 0 {
		return
	}
	l.handle(l.envs)
	clear(l.envs) // drop payload references before reuse
	l.envs = l.envs[:0]
}

// post schedules fn on the loop; it drops work after close.
func (l *eventLoop) post(fn func()) { l.send(loopItem{fn: fn}) }

// postEnvelopes schedules envs, which the loop then owns, for handle.
func (l *eventLoop) postEnvelopes(envs []wire.Envelope) { l.send(loopItem{envs: envs}) }

func (l *eventLoop) send(it loopItem) {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return
	}
	select {
	case l.ch <- it:
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
