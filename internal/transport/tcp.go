package transport

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dledger/internal/bufpool"
	"dledger/internal/core"
	"dledger/internal/replica"
	"dledger/internal/store"
	"dledger/internal/telemetry"
	"dledger/internal/wire"
)

// Wire constants of the TCP backend.
const (
	classHigh = 0
	classLow  = 1
	// maxFrame caps inbound frame sizes so a malicious peer cannot force
	// unbounded allocations.
	maxFrame = 64 << 20
	// dialRetryMax bounds the dial backoff.
	dialRetryMax = 2 * time.Second
	// Frame-ack replay protocol (see the writer comment): the signed
	// hello carries the writer's (incarnation nonce, start position) and
	// the handshake reply the receiver's high-water stream position under
	// that nonce; thereafter the receiver re-reports its position every
	// ackEvery frames.
	ackEvery = 32
	// maxReadBatch caps the envelopes a reader hands the loop as one
	// item.
	maxReadBatch = 64
)

// TCPOptions configures one TCP node.
type TCPOptions struct {
	Core    core.Config
	Replica replica.Params
	Self    int
	// Addrs[i] is node i's listen address. Addrs[Self] may use port 0;
	// the chosen address is available from Addr() after NewTCPNode.
	Addrs []string
	// Listener, when set, is used instead of listening on Addrs[Self].
	// Pre-binding listeners lets a launcher learn every node's real port
	// before any node starts dialing. NewTCPNode takes it over: it is
	// closed with the node, or at once if NewTCPNode fails.
	Listener net.Listener
	// Keys is the node's identity keyring; it must match Self and N.
	// Every connection is set up by an ed25519 challenge-response
	// handshake under it (see auth.go).
	Keys *Keyring
	// Store, when set, is the node's durable store: state it holds is
	// recovered before the node joins the mesh (the crash-restart path),
	// and protocol progress is persisted through it. Nil means no
	// durability at all (and no persistence overhead). The caller
	// retains ownership and closes it after Close.
	Store store.Store
	// Wrap, when set, wraps every peer connection (dialed and accepted)
	// before use. Tests inject faults here (see FaultInjector); it must
	// not block.
	Wrap func(net.Conn) net.Conn
	// OnDeliver observes delivered blocks (called on the node's loop).
	OnDeliver func(replica.Delivery)
}

// TCPNode is one DispersedLedger node on a TCP mesh: one replica, which
// is a single-threaded state machine, on the event loop it runs on.
type TCPNode struct {
	loop  *eventLoop
	rep   *replica.Replica
	ln    net.Listener
	keys  *Keyring
	wrap  func(net.Conn) net.Conn
	peers []*tcpPeer

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // every live peer connection
	closed bool
	done   chan struct{} // closed by Close
	wg     sync.WaitGroup

	// recv tracks, per (peer, class), the highest stream position
	// processed under the peer writer's current incarnation nonce.
	recvMu sync.Mutex
	recv   map[[2]int]*recvState

	// tel holds the transport's telemetry handles (inert when the
	// replica params carry no telemetry bundle).
	tel tcpMetrics
}

// tcpMetrics is the TCP backend's telemetry handle set, indexed by
// traffic class where split. The zero value (telemetry disabled)
// no-ops.
type tcpMetrics struct {
	sentFrames [2]*telemetry.Counter
	sentBytes  [2]*telemetry.Counter
	recvFrames [2]*telemetry.Counter
	recvBytes  [2]*telemetry.Counter
	replayed   *telemetry.Counter
	acks       *telemetry.Counter
	// Per-peer link health, indexed by peer id (the self slot stays nil,
	// which no-ops): ack/replay counters split the global ones by link,
	// and peerRTT is the latest dispersal-class round-trip estimate.
	peerAcks     []*telemetry.Counter
	peerReplayed []*telemetry.Counter
	peerRTT      []*telemetry.Gauge
	// peerWriteQueue is each link's outbound frame backlog (both
	// classes), the transport half of the dl_queue_* backpressure
	// family.
	peerWriteQueue []*telemetry.Gauge
}

func newTCPMetrics(m *telemetry.Metrics, n, self int) tcpMetrics {
	reg := m.Registry()
	var t tcpMetrics
	labels := [2]string{classHigh: `class="dispersal"`, classLow: `class="retrieval"`}
	for c, lbl := range labels {
		t.sentFrames[c] = reg.Counter("dl_transport_sent_frames_total", lbl, "Frames queued to peers, by traffic class.")
		t.sentBytes[c] = reg.Counter("dl_transport_sent_bytes_total", lbl, "Frame bytes queued to peers, by traffic class.")
		t.recvFrames[c] = reg.Counter("dl_transport_recv_frames_total", lbl, "Frames received from peers, by traffic class.")
		t.recvBytes[c] = reg.Counter("dl_transport_recv_bytes_total", lbl, "Frame bytes received from peers, by traffic class.")
	}
	t.replayed = reg.Counter("dl_transport_replayed_frames_total", "", "Unacked frames re-sent on a fresh connection after a reconnect.")
	t.acks = reg.Counter("dl_transport_acks_total", "", "Stream-position acks received from peers.")
	t.peerAcks = make([]*telemetry.Counter, n)
	t.peerReplayed = make([]*telemetry.Counter, n)
	t.peerRTT = make([]*telemetry.Gauge, n)
	t.peerWriteQueue = make([]*telemetry.Gauge, n)
	for i := 0; i < n; i++ {
		if i == self {
			continue
		}
		lbl := fmt.Sprintf(`peer="%d"`, i)
		t.peerAcks[i] = reg.Counter("dl_transport_peer_acks_total", lbl, "Stream-position acks received, by peer link.")
		t.peerReplayed[i] = reg.Counter("dl_transport_peer_replayed_frames_total", lbl, "Frames replayed after a reconnect, by peer link.")
		t.peerRTT[i] = reg.Gauge("dl_transport_peer_rtt_us", lbl, "Latest dispersal-link round-trip estimate (flush to position ack), microseconds.")
		t.peerWriteQueue[i] = reg.Gauge("dl_queue_transport_write", lbl, "Outbound frames queued but not yet handed to the socket, by peer link.")
	}
	return t
}

// recvState is the receiver half of the frame-ack replay protocol.
type recvState struct {
	nonce  uint64
	maxSeq uint64
}

// tcpPeer buffers outbound traffic to one peer: a FIFO for the
// high-priority (dispersal) class and per-epoch queues served in epoch
// order for the low-priority (retrieval) class, each drained by its own
// writer over its own connection so bulk retrieval frames never delay
// dispersal frames at the sender.
type tcpPeer struct {
	node *TCPNode
	id   int
	addr string

	// staged holds the frames the loop's current turn sent, per class;
	// only the loop touches it. endTurn publishes it to the queues below.
	staged [2][]outFrame

	mu sync.Mutex
	// cond wakes each class's writer (on mu) only when its class has news.
	cond   [2]*sync.Cond
	high   []*bufpool.Buf
	low    map[uint64][]outFrame
	lowN   int
	closed bool
	// conn is each class's current connection and lost whether it died
	// since its writer last looked (see connLost).
	conn [2]net.Conn
	lost [2]bool
}

// outFrame is one outbound frame with the metadata the retrieval class
// queues it by (stream) and purges it by on stream cancellation.
type outFrame struct {
	data     *bufpool.Buf
	stream   uint64
	epoch    uint64
	proposer int
	isReturn bool
}

// NewTCPNode starts the listener, the peer writers, and the replica.
func NewTCPNode(opts TCPOptions) (*TCPNode, error) {
	fail := func(err error) (*TCPNode, error) {
		if opts.Listener != nil {
			opts.Listener.Close()
		}
		return nil, err
	}
	if opts.Self < 0 || opts.Self >= len(opts.Addrs) || len(opts.Addrs) != opts.Core.N {
		return fail(fmt.Errorf("transport: bad Self/Addrs for N=%d", opts.Core.N))
	}
	if opts.Core.CoinSecret == nil {
		return fail(errors.New("transport: TCP clusters must set an explicit CoinSecret"))
	}
	if opts.Keys == nil || opts.Keys.Self != opts.Self || len(opts.Keys.Publics) != opts.Core.N {
		return fail(errors.New("transport: keyring missing or not matching Self/N"))
	}
	n := &TCPNode{
		keys: opts.Keys, wrap: opts.Wrap,
		conns: map[net.Conn]struct{}{},
		done:  make(chan struct{}),
		recv:  map[[2]int]*recvState{},
		tel:   newTCPMetrics(opts.Replica.Telemetry, opts.Core.N, opts.Self),
	}
	n.loop = newEventLoop(func(envs []wire.Envelope) { n.rep.OnEnvelope(envs...) }, n.endTurn)
	rep, err := replica.New(opts.Core, opts.Self, opts.Replica, opts.Store, (*tcpCtx)(n))
	if err != nil {
		n.loop.close()
		return fail(err)
	}
	if opts.OnDeliver != nil {
		rep.OnDeliver = opts.OnDeliver
	}
	n.rep = rep

	ln := opts.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", opts.Addrs[opts.Self])
		if err != nil {
			n.loop.close()
			return nil, err
		}
	}
	n.ln = ln

	for i, addr := range opts.Addrs {
		if i == opts.Self {
			n.peers = append(n.peers, nil)
			continue
		}
		p := &tcpPeer{node: n, id: i, addr: addr, low: map[uint64][]outFrame{}}
		p.cond = [2]*sync.Cond{sync.NewCond(&p.mu), sync.NewCond(&p.mu)}
		n.peers = append(n.peers, p)
		n.wg.Add(2)
		go p.writer(classHigh)
		go p.writer(classLow)
	}
	n.wg.Add(1)
	go n.acceptLoop()
	n.loop.post(func() { n.rep.Start() })
	return n, nil
}

// tcpCtx adapts TCPNode to replica.Context.
type tcpCtx TCPNode

func (c *tcpCtx) Now() time.Duration { return c.loop.now() }
func (c *tcpCtx) Send(to int, env wire.Envelope, prio wire.Priority, stream uint64) {
	n := (*TCPNode)(c)
	if to < 0 || to >= len(n.peers) || n.peers[to] == nil {
		return
	}
	n.peers[to].enqueue(env, prio, stream)
}
func (c *tcpCtx) After(d time.Duration, fn func()) { c.loop.after(d, fn) }

// Unsend implements replica.Unsender: queued-but-unsent ReturnChunk
// frames for the canceled retrieval are dropped before they reach TCP.
func (c *tcpCtx) Unsend(to int, epoch uint64, proposer int) {
	n := (*TCPNode)(c)
	if to < 0 || to >= len(n.peers) || n.peers[to] == nil {
		return
	}
	n.peers[to].purge(epoch, proposer)
}

// Submit hands a transaction to the node's mempool.
func (n *TCPNode) Submit(tx []byte) {
	n.loop.post(func() { n.rep.Submit(tx) })
}

// Inspect runs fn on the node's event loop and waits for it, giving safe
// access to the replica (e.g. its Stats).
func (n *TCPNode) Inspect(fn func(r *replica.Replica)) {
	done := make(chan struct{})
	n.loop.post(func() {
		fn(n.rep)
		close(done)
	})
	<-done
}

// Addr returns the node's actual listen address.
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// Close shuts the node down.
func (n *TCPNode) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.done)
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()

	n.ln.Close()
	for _, p := range n.peers {
		if p != nil {
			p.close()
		}
	}
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	n.loop.close()
}

func (n *TCPNode) trackConn(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

// dropConn closes a tracked connection and forgets it, so a node that
// reconnects for its whole life does not hold every dead connection.
func (n *TCPNode) dropConn(c net.Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
	c.Close()
}

// acceptLoop receives inbound connections: each starts with the signed
// handshake naming the sender, then carries length-prefixed envelopes.
func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		if n.wrap != nil {
			conn = n.wrap(conn)
		}
		if !n.trackConn(conn) {
			conn.Close()
			return
		}
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func writeAck(conn net.Conn, count uint64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], count)
	_, err := conn.Write(buf[:])
	return err
}

// frameBuffered reports whether br already holds the whole next frame,
// so reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint64(br.Buffered()) >= 4+uint64(binary.BigEndian.Uint32(hdr))
}

func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer n.dropConn(conn)

	var st *recvState
	h, connBase, err := acceptHandshake(conn, n.keys, func(h hello) (base uint64) {
		st, base = n.replayBase(h)
		return base
	})
	if err != nil {
		return
	}

	// The loop gets decoded envelopes in batches: every envelope decoded
	// before the next read would block, up to maxReadBatch, goes as one
	// item. A batch past its first frame holds only bytes one refill of
	// br brought in. Whatever is decoded when the connection ends still
	// goes, since the frames' positions may already be acked.
	var batch []wire.Envelope
	defer func() {
		if len(batch) > 0 {
			n.loop.postEnvelopes(batch)
		}
	}()
	br := bufio.NewReaderSize(conn, 256<<10)
	var lenBuf [4]byte
	var got uint64 // frames consumed on THIS connection
	for {
		if len(batch) >= maxReadBatch || len(batch) > 0 && !frameBuffered(br) {
			n.loop.postEnvelopes(batch)
			batch = nil
		}
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(lenBuf[:])
		if size == 0 || size > maxFrame {
			return
		}
		// The frame buffer is pooled: wire.Decode copies every
		// variable-length field out of it (see decodeBytes), so it can be
		// released as soon as decoding finishes.
		fb := bufpool.Get(int(size))
		buf := fb.Bytes()
		if _, err := io.ReadFull(br, buf); err != nil {
			fb.Release()
			return
		}
		// Every frame counts toward the ack — decodable or not — because
		// the sender counts flushed frames, not valid envelopes. The
		// stream position advances monotonically even if a lingering
		// older connection races this one: positions name the same
		// frames under the same nonce.
		got++
		n.tel.recvFrames[h.class].Inc()
		n.tel.recvBytes[h.class].Add(uint64(4 + size))
		pos := connBase + got
		n.recvMu.Lock()
		if st.nonce == h.nonce && pos > st.maxSeq {
			st.maxSeq = pos
		}
		ack := st.maxSeq
		n.recvMu.Unlock()
		if got%ackEvery == 0 {
			if writeAck(conn, ack) != nil {
				fb.Release()
				return
			}
		}
		env, err := wire.Decode(buf)
		fb.Release()
		if err != nil {
			continue // skip undecodable frames from this peer
		}
		// The id the signed hello proved overrides whatever the frame
		// claims, so peers cannot spoof each other within the mesh.
		env.From = h.from
		batch = append(batch, env)
	}
}

// replayBase records a verified hello's writer incarnation and start
// position, and returns the highest position already processed under
// that nonce: the handshake reports it back so the writer prunes its
// replay tail, and the connection's frame positions count from it.
func (n *TCPNode) replayBase(h hello) (*recvState, uint64) {
	key := [2]int{h.from, int(h.class)}
	n.recvMu.Lock()
	defer n.recvMu.Unlock()
	st := n.recv[key]
	if st == nil || st.nonce != h.nonce {
		st = &recvState{nonce: h.nonce, maxSeq: h.start - 1}
		n.recv[key] = st
	} else if h.start-1 > st.maxSeq {
		st.maxSeq = h.start - 1
	}
	return st, st.maxSeq
}

// enqueue stages one framed message for the peer until the loop's turn
// ends (endTurn). The frame lives in a pooled buffer whose single
// reference travels with it: staging → queue → writer pending list →
// released when the receiver's ack covers it (or on purge/shutdown).
// Called on the loop only.
func (p *tcpPeer) enqueue(env wire.Envelope, prio wire.Priority, stream uint64) {
	ws := env.WireSize()
	frame := bufpool.Get(4 + ws)
	fb := frame.Bytes()
	binary.BigEndian.PutUint32(fb, uint32(ws))
	env.AppendTo(fb[4:4]) // fills fb[4:] in place: pooled cap >= 4+ws

	class := classLow
	if prio == wire.PrioDispersal {
		class = classHigh
	}
	p.node.tel.sentFrames[class].Inc()
	p.node.tel.sentBytes[class].Add(uint64(frame.Len()))

	_, isReturn := env.Payload.(wire.ReturnChunk)
	p.staged[class] = append(p.staged[class], outFrame{
		data: frame, stream: stream, epoch: env.Epoch, proposer: env.Proposer, isReturn: isReturn,
	})
}

// endTurn hands every frame the loop's turn staged to its peer's queues
// and wakes each writer that got some once, so a turn's burst to a peer
// goes out in one flush.
func (n *TCPNode) endTurn() {
	for _, p := range n.peers {
		if p != nil && len(p.staged[classHigh])+len(p.staged[classLow]) > 0 {
			p.publish()
		}
	}
}

// publish moves the staged frames into the queues under one lock.
func (p *tcpPeer) publish() {
	p.mu.Lock()
	for class, staged := range p.staged {
		for _, f := range staged {
			switch {
			case p.closed:
				f.data.Release()
			case class == classHigh:
				p.high = append(p.high, f.data)
			default:
				p.low[f.stream] = append(p.low[f.stream], f)
				p.lowN++
			}
		}
	}
	p.noteDepthLocked()
	p.mu.Unlock()
	for class, staged := range p.staged {
		if len(staged) > 0 {
			p.cond[class].Signal()
		}
		clear(staged)
		p.staged[class] = staged[:0]
	}
}

// noteDepthLocked mirrors the link's outbound backlog into its
// dl_queue_transport_write gauge. Caller holds p.mu.
func (p *tcpPeer) noteDepthLocked() {
	p.node.tel.peerWriteQueue[p.id].Set(int64(len(p.high) + p.lowN))
}

// purge drops queued ReturnChunk frames of one VID instance (stream
// cancellation).
func (p *tcpPeer) purge(epoch uint64, proposer int) {
	// Frames staged by this turn purge without the lock: only the loop,
	// which calls purge, touches them.
	p.staged[classLow] = purgeFrames(p.staged[classLow], epoch, proposer)
	p.mu.Lock()
	defer p.mu.Unlock()
	for s, q := range p.low {
		kept := purgeFrames(q, epoch, proposer)
		p.lowN -= len(q) - len(kept)
		if len(kept) == 0 {
			delete(p.low, s)
		} else {
			p.low[s] = kept
		}
	}
	p.noteDepthLocked()
}

// purgeFrames releases q's ReturnChunk frames of one VID instance and
// returns the rest, in order, in q's array.
func purgeFrames(q []outFrame, epoch uint64, proposer int) []outFrame {
	kept := q[:0]
	for _, f := range q {
		if f.isReturn && f.epoch == epoch && f.proposer == proposer {
			f.data.Release()
		} else {
			kept = append(kept, f)
		}
	}
	clear(q[len(kept):])
	return kept
}

// connLost wakes the class's writer when its connection c dies under it.
// Frames flushed to c and not yet acked may never have been processed, and
// a writer waiting for the next frame would only find out when one failed
// on c: on a link gone quiet, never. The protocol sends some messages once
// — a chunk is returned to a node that will not ask again — so the tail
// has to be re-sent without waiting for more traffic.
func (p *tcpPeer) connLost(class int, c net.Conn) {
	p.mu.Lock()
	if p.conn[class] == c {
		p.lost[class] = true
	}
	p.mu.Unlock()
	p.cond[class].Signal()
}

// nextFrames drains up to max queued frames of the given class into
// `into` under one lock acquisition, blocking until at least one frame
// is available, the class's connection is lost (it then returns no
// frames) or the peer closes. Batching here is what turns a loop
// turn's burst of sends to the peer, published at once by endTurn, into
// one buffered write + flush on the socket: the writer picks up the
// whole burst in a single pop instead of paying a lock round-trip and a
// write call per frame.
// Frame order is identical to repeated single pops — FIFO for the high
// class, lowest-stream-first for the low class.
func (p *tcpPeer) nextFrames(class int, into []*bufpool.Buf, max int) ([]*bufpool.Buf, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return into, false
		}
		if class == classHigh {
			if len(p.high) > 0 {
				n := len(p.high)
				if n > max {
					n = max
				}
				into = append(into, p.high[:n]...)
				rest := copy(p.high, p.high[n:])
				for i := rest; i < len(p.high); i++ {
					p.high[i] = nil
				}
				p.high = p.high[:rest]
				p.noteDepthLocked()
				return into, true
			}
		} else if p.lowN > 0 {
			for len(into) < max && p.lowN > 0 {
				var best uint64
				found := false
				for s, q := range p.low {
					if len(q) > 0 && (!found || s < best) {
						best, found = s, true
					}
				}
				// Popping from the best stream cannot change which stream
				// is best until it empties, so its whole queue drains
				// before the map is rescanned.
				q := p.low[best]
				take := len(q)
				if take > max-len(into) {
					take = max - len(into)
				}
				for i := 0; i < take; i++ {
					into = append(into, q[i].data)
				}
				if take == len(q) {
					delete(p.low, best)
				} else {
					p.low[best] = q[take:]
				}
				p.lowN -= take
			}
			p.noteDepthLocked()
			return into, true
		}
		if p.lost[class] {
			p.lost[class] = false
			return into, true
		}
		p.cond[class].Wait()
	}
}

// empty reports whether the class's queue is drained (for flushing).
func (p *tcpPeer) empty(class int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if class == classHigh {
		return len(p.high) == 0
	}
	return p.lowN == 0
}

func (p *tcpPeer) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond[classHigh].Broadcast()
	p.cond[classLow].Broadcast()
}

// dial opens one class's connection to the peer and runs the dialer's
// handshake on it, announcing the writer's nonce and the position of
// the first frame it will offer. It returns the receiver's replay base.
func (p *tcpPeer) dial(class int, nonce, start uint64) (net.Conn, uint64, error) {
	c, err := net.DialTimeout("tcp", p.addr, time.Second)
	if err != nil {
		return nil, 0, err
	}
	if p.node.wrap != nil {
		c = p.node.wrap(c)
	}
	if !p.node.trackConn(c) {
		c.Close()
		return nil, 0, net.ErrClosed
	}
	base, err := dialHandshake(c, p.node.keys, byte(class), nonce, start)
	if err != nil {
		p.node.dropConn(c)
		return nil, 0, err
	}
	return c, base, nil
}

// incarnationNonce tags one writer incarnation's stream-position space
// so receivers can tell a restarted writer from a reconnecting one.
func incarnationNonce() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano()) | 1
	}
	return binary.BigEndian.Uint64(b[:])
}

// rttProbe estimates a link's round-trip time through the frame-ack
// protocol, one sample at a time: the writer arms (stream position of
// the last flushed frame, wall clock) when no probe is outstanding; the
// ackReader disarms it once the receiver's reported position covers the
// armed frame and publishes the elapsed time. The estimate includes the
// receiver's processing of up to ackEvery frames, making it a
// protocol-level health signal rather than a pure network ping — which
// is what link-health dashboards want. seq 0 means disarmed; `at` is
// stored before seq so a reader that sees seq armed sees its timestamp.
type rttProbe struct {
	seq atomic.Uint64
	at  atomic.Int64
}

// ackReader consumes stream-position reports from the receiving side of
// a writer connection, publishing the latest into ctr and counting each
// report into acks and peerAcks (nil-safe). When probe is non-nil it
// also resolves outstanding RTT probes into rtt.
func ackReader(c net.Conn, ctr *atomic.Uint64, acks, peerAcks *telemetry.Counter, probe *rttProbe, rtt *telemetry.Gauge) {
	var buf [8]byte
	for {
		if _, err := io.ReadFull(c, buf[:]); err != nil {
			return
		}
		acks.Inc()
		peerAcks.Inc()
		v := binary.BigEndian.Uint64(buf[:])
		if probe != nil {
			if s := probe.seq.Load(); s != 0 && v >= s {
				rtt.Set((time.Now().UnixNano() - probe.at.Load()) / int64(time.Microsecond))
				probe.seq.Store(0)
			}
		}
		for {
			cur := ctr.Load()
			if v <= cur || ctr.CompareAndSwap(cur, v) {
				break
			}
		}
	}
}

// writer drains one class of the peer's queue over its own connection,
// redialing with backoff on failure.
//
// Reliability across reconnects: TCP guarantees nothing about bytes in
// flight when a connection dies — flushed frames may or may not have
// been processed. The writer therefore numbers its frames with
// monotone stream positions (1-based, per writer incarnation) and
// retains every frame until the receiver's reported position covers
// it. Each connection's signed hello carries (incarnation nonce,
// position of the first frame it will offer); the receiver's handshake
// reply is the highest position it has already processed under that
// nonce — the writer prunes to it and resends the rest — and it
// re-reports its position every ackEvery frames. The nonce makes writer
// restarts self-describing (a fresh incarnation restarts the position
// space and the receiver's high-water mark with it), the handshake reply
// makes progress survive connections too short-lived to carry an
// in-stream ack, and positions — unlike raw frame counts — are immune to
// double-counting replayed duplicates. The receiver may still process
// up to ~ackEvery duplicate frames after a replay; every protocol
// message is deduplicated at its automaton.
func (p *tcpPeer) writer(class int) {
	defer p.node.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	var acked *atomic.Uint64 // latest position reported on the CURRENT conn
	backoff := 50 * time.Millisecond
	nonce := incarnationNonce()
	// RTT probes ride the dispersal-class link only: its frames are the
	// latency-critical ones, and one gauge per peer is what dlctl renders.
	var probe *rttProbe
	if class == classHigh {
		probe = &rttProbe{}
	}

	// pending holds every unacked frame; baseSeq is the stream position
	// of the last pruned frame (pending[i] sits at baseSeq+1+i);
	// written counts the pending frames handed to the CURRENT
	// connection; unflushed those written since the last flush.
	var pending []*bufpool.Buf
	var baseSeq uint64
	written := 0
	unflushed := 0
	const flushPending = 64 // flush at least this often

	prune := func(to uint64) {
		if to <= baseSeq {
			return
		}
		k := int(to - baseSeq)
		if k > len(pending) {
			k = len(pending)
		}
		// Acked frames will never be re-sent: their pooled buffers go
		// back to the pool here.
		for i := 0; i < k; i++ {
			pending[i].Release()
		}
		n := copy(pending, pending[k:])
		for i := n; i < len(pending); i++ {
			pending[i] = nil
		}
		pending = pending[:n]
		baseSeq += uint64(k)
		written -= k
		if written < 0 {
			written = 0
		}
	}
	releasePending := func() {
		for _, f := range pending {
			f.Release()
		}
		pending = nil
	}

	// connect dials until a connection completes the handshake, waiting
	// out a growing back-off after each failure; it returns false once
	// the node closes.
	connect := func() bool {
		for {
			c, base, err := p.dial(class, nonce, baseSeq+1)
			if err != nil {
				t := time.NewTimer(backoff)
				select {
				case <-p.node.done:
					t.Stop()
					return false
				case <-t.C:
				}
				backoff = min(2*backoff, dialRetryMax)
				continue
			}
			backoff = 50 * time.Millisecond
			prune(base)
			ctr := &atomic.Uint64{}
			p.mu.Lock()
			p.conn[class], p.lost[class] = c, false
			p.mu.Unlock()
			go func() {
				ackReader(c, ctr, p.node.tel.acks, p.node.tel.peerAcks[p.id], probe, p.node.tel.peerRTT[p.id])
				p.connLost(class, c)
			}()
			conn = c
			bw = bufio.NewWriterSize(c, 256<<10)
			acked = ctr
			// Frames already written to the previous connection but not
			// pruned by the receiver's ack are about to be re-sent.
			p.node.tel.replayed.Add(uint64(written))
			p.node.tel.peerReplayed[p.id].Add(uint64(written))
			written = 0 // the whole unacked tail replays on this conn
			unflushed = 0
			return true
		}
	}

	// maxBatch bounds one queue drain; with the 256 KiB bufio writer the
	// whole batch typically reaches the socket as a single writev-style
	// flush.
	const maxBatch = 256
	var batch []*bufpool.Buf
	for {
		var ok bool
		batch, ok = p.nextFrames(class, batch[:0], maxBatch)
		if !ok {
			if conn != nil {
				if bw != nil {
					bw.Flush()
				}
				p.node.dropConn(conn)
			}
			releasePending()
			return
		}
		if len(batch) == 0 {
			// The connection died while the queue was empty: what it left
			// unacked is re-sent on a new one (connLost).
			if conn != nil {
				p.node.dropConn(conn)
				conn = nil
			}
			if len(pending) == 0 {
				continue
			}
		}
		pending = append(pending, batch...)
		for {
			if conn == nil {
				if !connect() {
					releasePending()
					return
				}
			}
			prune(acked.Load())
			ok := true
			for written < len(pending) {
				if _, err := bw.Write(pending[written].Bytes()); err != nil {
					ok = false
					break
				}
				written++
				unflushed++
			}
			if ok && (unflushed >= flushPending || p.empty(class)) {
				if err := bw.Flush(); err != nil {
					ok = false
				} else {
					unflushed = 0
					// Arm an RTT probe on the last flushed frame when none
					// is outstanding; the ackReader resolves it.
					if probe != nil && probe.seq.Load() == 0 {
						if seq := baseSeq + uint64(written); seq > 0 {
							probe.at.Store(time.Now().UnixNano())
							probe.seq.Store(seq)
						}
					}
				}
			}
			if ok {
				break
			}
			p.node.dropConn(conn)
			conn = nil
		}
	}
}
