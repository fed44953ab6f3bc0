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
	handshakeMagic = 0x444C4544 // "DLED"
	classHigh      = 0
	classLow       = 1
	// maxFrame caps inbound frame sizes so a malicious peer cannot force
	// unbounded allocations.
	maxFrame = 64 << 20
	// dialRetryMax bounds the dial backoff.
	dialRetryMax = 2 * time.Second
	// Frame-ack replay protocol (see the writer comment): after the
	// handshake the writer announces (incarnation nonce, start seq) and
	// the receiver replies with its high-water stream position under
	// that nonce; thereafter the receiver re-reports its position every
	// ackEvery frames. ackInitTimeout bounds the handshake reply wait.
	ackEvery       = 32
	ackInitTimeout = 5 * time.Second
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
	// Keys, when set, enables ed25519 challenge-response authentication
	// of every connection (see auth.go). Without keys, peers are
	// identified only by their self-declared handshake id — acceptable
	// on trusted networks, not on open ones.
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
	self  int
	ln    net.Listener
	keys  *Keyring
	wrap  func(net.Conn) net.Conn
	peers []*tcpPeer

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
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

	mu     sync.Mutex
	cond   *sync.Cond
	high   []*bufpool.Buf
	low    map[uint64][]lowFrame
	lowN   int
	closed bool
	// conn is each class's current connection and lost whether it died
	// since its writer last looked (see connLost).
	conn [2]net.Conn
	lost [2]bool
}

// lowFrame carries retrieval-class frames with enough metadata to purge
// them on stream cancellation.
type lowFrame struct {
	data     *bufpool.Buf
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
	if opts.Keys != nil {
		if opts.Keys.Self != opts.Self || len(opts.Keys.Publics) != opts.Core.N {
			return fail(errors.New("transport: keyring does not match Self/N"))
		}
	}
	n := &TCPNode{
		loop: newEventLoop(),
		self: opts.Self, keys: opts.Keys, wrap: opts.Wrap,
		recv: map[[2]int]*recvState{},
		tel:  newTCPMetrics(opts.Replica.Telemetry, opts.Core.N, opts.Self),
	}
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
		p := &tcpPeer{node: n, id: i, addr: addr, low: map[uint64][]lowFrame{}}
		p.cond = sync.NewCond(&p.mu)
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
	conns := n.conns
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

func (n *TCPNode) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

func (n *TCPNode) trackConn(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.conns = append(n.conns, c)
	return true
}

// acceptLoop receives inbound connections: each starts with a handshake
// naming the sender, then carries length-prefixed envelopes.
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

func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()

	var from int
	var class byte
	if n.keys != nil {
		var err error
		from, class, err = authAccept(conn, n.keys)
		if err != nil {
			return
		}
	} else {
		var hs [7]byte
		if _, err := io.ReadFull(conn, hs[:]); err != nil {
			return
		}
		if binary.BigEndian.Uint32(hs[0:4]) != handshakeMagic {
			return
		}
		from = int(binary.BigEndian.Uint16(hs[4:6]))
		class = hs[6]
	}
	if from < 0 || from >= len(n.peers) || from == n.self || class > classLow {
		return
	}
	// Ack handshake: the writer announces its incarnation nonce and the
	// stream position of the first frame this connection will offer; we
	// answer with the highest position already processed under that
	// nonce (so the writer prunes its replay tail), which is also where
	// this connection's frame positions start counting from.
	var ab [16]byte
	if _, err := io.ReadFull(conn, ab[:]); err != nil {
		return
	}
	nonce := binary.BigEndian.Uint64(ab[0:8])
	startSeq := binary.BigEndian.Uint64(ab[8:16])
	key := [2]int{from, int(class)}
	n.recvMu.Lock()
	st := n.recv[key]
	if st == nil || st.nonce != nonce {
		st = &recvState{nonce: nonce, maxSeq: startSeq - 1}
		n.recv[key] = st
	} else if startSeq-1 > st.maxSeq {
		st.maxSeq = startSeq - 1
	}
	connBase := st.maxSeq
	n.recvMu.Unlock()
	if writeAck(conn, connBase) != nil {
		return
	}

	br := bufio.NewReaderSize(conn, 256<<10)
	var lenBuf [4]byte
	var got uint64 // frames consumed on THIS connection
	for {
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
		n.tel.recvFrames[class].Inc()
		n.tel.recvBytes[class].Add(uint64(4 + size))
		pos := connBase + got
		n.recvMu.Lock()
		if st.nonce == nonce && pos > st.maxSeq {
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
		// Authenticate the sender: the connection's handshake identity
		// overrides whatever the frame claims, so peers cannot spoof
		// each other within the mesh. (Production deployments would add
		// TLS or signatures on top; see README.)
		env.From = from
		n.loop.post(func() { n.rep.OnEnvelope(env) })
	}
}

// enqueue adds one framed message to the peer's queues. The frame lives
// in a pooled buffer whose single reference travels with it: queue →
// writer pending list → released when the receiver's ack covers it (or
// on purge/shutdown).
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

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		frame.Release()
		return
	}
	if prio == wire.PrioDispersal {
		p.high = append(p.high, frame)
	} else {
		_, isReturn := env.Payload.(wire.ReturnChunk)
		p.low[stream] = append(p.low[stream], lowFrame{
			data: frame, epoch: env.Epoch, proposer: env.Proposer, isReturn: isReturn,
		})
		p.lowN++
	}
	p.noteDepthLocked()
	p.mu.Unlock()
	p.cond.Broadcast()
}

// noteDepthLocked mirrors the link's outbound backlog into its
// dl_queue_transport_write gauge. Caller holds p.mu.
func (p *tcpPeer) noteDepthLocked() {
	p.node.tel.peerWriteQueue[p.id].Set(int64(len(p.high) + p.lowN))
}

// purge drops queued ReturnChunk frames of one VID instance (stream
// cancellation).
func (p *tcpPeer) purge(epoch uint64, proposer int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for s, q := range p.low {
		kept := q[:0]
		for _, f := range q {
			if f.isReturn && f.epoch == epoch && f.proposer == proposer {
				f.data.Release()
				p.lowN--
			} else {
				kept = append(kept, f)
			}
		}
		if len(kept) == 0 {
			delete(p.low, s)
		} else {
			p.low[s] = kept
		}
	}
	p.noteDepthLocked()
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
	p.cond.Broadcast()
}

// nextFrames drains up to max queued frames of the given class into
// `into` under one lock acquisition, blocking until at least one frame
// is available, the class's connection is lost (it then returns no
// frames) or the peer closes. Batching here is what turns the
// per-step burst of n-1 small sends into one buffered write + flush on
// the socket: the writer picks up the whole burst in a single pop
// instead of paying a lock round-trip and a write call per frame.
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
		p.cond.Wait()
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
	p.cond.Broadcast()
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
// it. Each connection opens with (incarnation nonce, position of the
// first frame it will offer); the receiver replies with the highest
// position it has already processed under that nonce — the writer
// prunes to it and resends the rest — and re-reports its position
// every ackEvery frames. The nonce makes writer restarts
// self-describing (a fresh incarnation restarts the position space and
// the receiver's high-water mark with it), the handshake reply makes
// progress survive connections too short-lived to carry an in-stream
// ack, and positions — unlike raw frame counts — are immune to
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

	connect := func() bool {
		for {
			if p.node.isClosed() {
				return false
			}
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return false
			}
			c, err := net.DialTimeout("tcp", p.addr, time.Second)
			if err != nil {
				time.Sleep(backoff)
				if backoff < dialRetryMax {
					backoff *= 2
				}
				continue
			}
			backoff = 50 * time.Millisecond
			if p.node.wrap != nil {
				c = p.node.wrap(c)
			}
			if !p.node.trackConn(c) {
				c.Close()
				return false
			}
			if p.node.keys != nil {
				if err := authDial(c, p.node.keys, byte(class)); err != nil {
					c.Close()
					time.Sleep(backoff)
					continue
				}
			} else {
				var hs [7]byte
				binary.BigEndian.PutUint32(hs[0:4], handshakeMagic)
				binary.BigEndian.PutUint16(hs[4:6], uint16(p.node.self))
				hs[6] = byte(class)
				if _, err := c.Write(hs[:]); err != nil {
					c.Close()
					continue
				}
			}
			// Ack handshake: announce (nonce, first offered position),
			// learn how far the receiver already got, prune and replay
			// the rest on this connection.
			var ab [16]byte
			binary.BigEndian.PutUint64(ab[0:8], nonce)
			binary.BigEndian.PutUint64(ab[8:16], baseSeq+1)
			if _, err := c.Write(ab[:]); err != nil {
				c.Close()
				time.Sleep(backoff)
				continue
			}
			c.SetReadDeadline(time.Now().Add(ackInitTimeout))
			var rb [8]byte
			if _, err := io.ReadFull(c, rb[:]); err != nil {
				c.Close()
				time.Sleep(backoff)
				continue
			}
			c.SetReadDeadline(time.Time{})
			prune(binary.BigEndian.Uint64(rb[:]))
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
				conn.Close()
			}
			releasePending()
			return
		}
		if len(batch) == 0 {
			// The connection died while the queue was empty: what it left
			// unacked is re-sent on a new one (connLost).
			if conn != nil {
				conn.Close()
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
			conn.Close()
			conn = nil
		}
	}
}
