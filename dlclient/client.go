// Package dlclient is the client library for the DispersedLedger
// gateway: it connects to a node's client port (`dlnode -client` or
// Cluster.ServeClients), submits transactions, and receives verifiable
// evidence of their fate.
//
// Every submission is answered by a synchronous Receipt — accepted, a
// duplicate of something already pending or committed, or rejected with
// a retry-after hint when the node's mempool budget is exhausted — and
// every accepted transaction is later answered by an asynchronous
// Commit: the slot (epoch, proposer) it committed in plus a Merkle
// inclusion path the library verifies against the block's transaction
// root before handing it to the application.
//
// The client reconnects automatically and resubmits every transaction
// that was accepted but not yet committed; the gateway's content-hash
// deduplication makes this idempotent, so retries and node
// crash-restarts never commit a transaction twice.
package dlclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dledger/internal/gateway"
	"dledger/internal/mempool"
)

// Re-exported gateway types: the receipt/commit vocabulary is shared
// with the server.
type (
	// Receipt is the synchronous answer to one submission.
	Receipt = gateway.Receipt
	// Commit is the asynchronous commit proof of one transaction.
	Commit = gateway.Commit
	// Status classifies a receipt.
	Status = gateway.Status
)

// Receipt statuses.
const (
	StatusAccepted           = gateway.StatusAccepted
	StatusDuplicatePending   = gateway.StatusDuplicatePending
	StatusDuplicateCommitted = gateway.StatusDuplicateCommitted
	StatusOverCapacity       = gateway.StatusOverCapacity
	StatusOversize           = gateway.StatusOversize
	StatusInvalid            = gateway.StatusInvalid
	StatusRateLimited        = gateway.StatusRateLimited
)

// Options configures a client.
type Options struct {
	// Name is the client's stable identity: reconnects (and restarts of
	// the client process) with the same name resume the same server-side
	// queue, dedup scope and subscriptions. Required.
	Name string
	// NoSubscribe disables the commit stream (receipts only).
	NoSubscribe bool
	// CommitBuffer sizes the Commits channel (default 1024).
	CommitBuffer int
}

const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
	// receiptTimeout bounds how long Submit waits for its receipt,
	// across reconnects.
	receiptTimeout = 10 * time.Second
)

func (o Options) commitBuffer() int {
	if o.CommitBuffer == 0 {
		return 1024
	}
	return o.CommitBuffer
}

// Errors returned by the client.
var (
	ErrClosed         = errors.New("dlclient: client closed")
	ErrReceiptTimeout = errors.New("dlclient: no receipt before timeout")
	ErrBadProof       = errors.New("dlclient: commit proof failed verification")
)

// Info describes the serving node, learned at handshake.
type Info struct {
	ClientID   uint64
	N, F       int
	MaxTxBytes int
}

type pendingReq struct {
	tx []byte
	ch chan Receipt
}

// Client is a gateway client. All methods are safe for concurrent use.
type Client struct {
	addr string
	opts Options

	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	reader  *bufio.Reader
	info    Info
	reqSeq  uint64
	waiters map[uint64]*pendingReq
	// outstanding maps accepted-but-uncommitted tx hashes to their bytes
	// for post-reconnect resubmission.
	outstanding map[mempool.Hash][]byte
	// recentCommits remembers recently committed hashes (bounded FIFO):
	// the server writes receipts and commits from different goroutines,
	// so a commit can overtake its receipt on the wire — without this
	// memory the late receipt would re-enter the hash into outstanding
	// forever.
	recentCommits map[mempool.Hash]struct{}
	commitLog     []mempool.Hash
	// commitWait lets SubmitAndWait intercept one commit by hash.
	commitWait map[mempool.Hash]chan Commit
	closed     bool
	genDone    chan struct{}

	commits chan Commit
	// VerifyFailures counts commits whose Merkle path did not verify
	// (never delivered to the application).
	verifyFailures int64
	dropped        int64
}

// Dial connects to a gateway and completes the handshake.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.Name == "" {
		return nil, errors.New("dlclient: Options.Name is required")
	}
	c := &Client{
		addr:          addr,
		opts:          opts,
		waiters:       map[uint64]*pendingReq{},
		outstanding:   map[mempool.Hash][]byte{},
		recentCommits: map[mempool.Hash]struct{}{},
		commitWait:    map[mempool.Hash]chan Commit{},
		commits:       make(chan Commit, opts.commitBuffer()),
		genDone:       make(chan struct{}),
	}
	if err := c.connect(); err != nil {
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

// Info returns the handshake information of the current connection.
func (c *Client) Info() Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.info
}

// Commits returns the verified commit stream (closed on Close). Commits
// whose proof fails verification are counted and withheld.
func (c *Client) Commits() <-chan Commit { return c.commits }

// VerifyFailures reports how many streamed commits failed verification.
func (c *Client) VerifyFailures() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verifyFailures
}

// Outstanding reports how many accepted transactions await commitment.
func (c *Client) Outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.outstanding)
}

// Close shuts the client down. Blocked Submit calls return ErrClosed.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conn := c.conn
	for _, w := range c.waiters {
		close(w.ch)
	}
	c.waiters = map[uint64]*pendingReq{}
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	<-c.genDone
	close(c.commits)
}

// connect establishes one connection and performs the handshake. Called
// with no lock held; installs the connection under the lock.
func (c *Client) connect() error {
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(conn, 64<<10)
	hello := gateway.EncodeHello(gateway.Hello{
		Name:      []byte(c.opts.Name),
		Subscribe: !c.opts.NoSubscribe,
	})
	if err := gateway.WriteFrame(bw, hello); err != nil {
		conn.Close()
		return err
	}
	br := bufio.NewReader(conn)
	body, err := gateway.ReadFrame(br)
	if err != nil {
		conn.Close()
		return err
	}
	msg, err := gateway.DecodeMessage(body)
	if err != nil || msg.Type != gateway.MTWelcome {
		conn.Close()
		return fmt.Errorf("dlclient: bad handshake: %v", err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	c.conn = conn
	c.bw = bw
	c.info = Info{
		ClientID:   msg.Welcome.ClientID,
		N:          msg.Welcome.N,
		F:          msg.Welcome.F,
		MaxTxBytes: msg.Welcome.MaxTxBytes,
	}
	c.reader = br
	c.mu.Unlock()
	return nil
}

// Submit sends one transaction and waits for its receipt (across
// reconnects, up to 10 s).
func (c *Client) Submit(tx []byte) (Receipt, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Receipt{}, ErrClosed
	}
	c.reqSeq++
	id := c.reqSeq
	w := &pendingReq{tx: tx, ch: make(chan Receipt, 1)}
	c.waiters[id] = w
	bw := c.bw
	var err error
	if bw != nil {
		err = gateway.WriteFrame(bw, gateway.EncodeSubmit(gateway.Submit{ReqID: id, Tx: tx}))
	}
	if err != nil && c.conn != nil {
		c.conn.Close() // the read loop reconnects and resubmits
	}
	c.mu.Unlock()

	select {
	case rc, ok := <-w.ch:
		if !ok {
			return Receipt{}, ErrClosed
		}
		return rc, nil
	case <-time.After(receiptTimeout):
		c.mu.Lock()
		delete(c.waiters, id)
		c.mu.Unlock()
		return Receipt{}, ErrReceiptTimeout
	}
}

// SubmitAndWait submits and then waits for the transaction's verified
// commit (requires the subscription). A duplicate-committed receipt
// resolves as soon as the server re-streams the proof.
func (c *Client) SubmitAndWait(tx []byte, timeout time.Duration) (Commit, error) {
	h := mempool.HashTx(tx)
	ch := make(chan Commit, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Commit{}, ErrClosed
	}
	c.commitWait[h] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.commitWait, h)
		c.mu.Unlock()
	}()

	rc, err := c.Submit(tx)
	if err != nil {
		return Commit{}, err
	}
	if !rc.Status.Accepted() {
		return Commit{}, fmt.Errorf("dlclient: submission rejected: %s", rc.Status)
	}
	select {
	case cm := <-ch:
		return cm, nil
	case <-time.After(timeout):
		return Commit{}, fmt.Errorf("dlclient: no commit within %v", timeout)
	case <-c.genDone:
		return Commit{}, ErrClosed
	}
}

// readLoop consumes server frames, dispatching receipts and commits,
// and reconnects (resubmitting in-flight and uncommitted transactions)
// when the connection breaks.
func (c *Client) readLoop() {
	defer close(c.genDone)
	for {
		c.mu.Lock()
		br := c.reader
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		if br == nil {
			if !c.reconnect() {
				return
			}
			continue
		}
		body, err := gateway.ReadFrame(br)
		if err != nil {
			c.mu.Lock()
			if c.conn != nil {
				c.conn.Close()
				c.conn = nil
				c.bw = nil
				c.reader = nil
			}
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return
			}
			if !c.reconnect() {
				return
			}
			continue
		}
		msg, err := gateway.DecodeMessage(body)
		if err != nil {
			continue
		}
		switch msg.Type {
		case gateway.MTReceipt:
			c.onReceipt(*msg.Receipt)
		case gateway.MTCommit:
			c.onCommit(*msg.Commit)
		}
	}
}

func (c *Client) onReceipt(rc Receipt) {
	c.mu.Lock()
	w := c.waiters[rc.ReqID]
	delete(c.waiters, rc.ReqID)
	if w != nil {
		switch rc.Status {
		case StatusAccepted, StatusDuplicatePending:
			h := mempool.HashTx(w.tx)
			// The commit may already have overtaken this receipt; a
			// committed tx must not re-enter the resubmission set.
			if _, committed := c.recentCommits[h]; !committed {
				c.outstanding[h] = w.tx
			}
		}
	}
	c.mu.Unlock()
	if w != nil {
		w.ch <- rc
	}
}

// recordCommit remembers a committed hash (bounded FIFO). Callers hold
// c.mu.
func (c *Client) recordCommit(h mempool.Hash) {
	const commitMemory = 8192
	if _, ok := c.recentCommits[h]; ok {
		return
	}
	if len(c.commitLog) >= commitMemory {
		delete(c.recentCommits, c.commitLog[0])
		c.commitLog = c.commitLog[1:]
	}
	c.recentCommits[h] = struct{}{}
	c.commitLog = append(c.commitLog, h)
}

func (c *Client) onCommit(cm Commit) {
	c.mu.Lock()
	tx, had := c.outstanding[cm.TxHash]
	delete(c.outstanding, cm.TxHash)
	c.recordCommit(cm.TxHash)
	wait := c.commitWait[cm.TxHash]
	c.mu.Unlock()

	// Verify before delivering: with the transaction bytes in hand the
	// full content check runs; otherwise the inclusion path alone.
	ok := cm.VerifyHash()
	if ok && had {
		ok = cm.Verify(tx)
	}
	if !ok {
		c.mu.Lock()
		c.verifyFailures++
		c.mu.Unlock()
		return
	}
	if wait != nil {
		select {
		case wait <- cm:
		default:
		}
	}
	select {
	case c.commits <- cm:
	default:
		c.mu.Lock()
		c.dropped++
		c.mu.Unlock()
	}
}

// reconnect re-establishes the connection with backoff and resubmits
// in-flight requests plus every accepted-but-uncommitted transaction.
// Returns false when the client closed.
func (c *Client) reconnect() bool {
	backoff := 50 * time.Millisecond
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return false
		}
		c.mu.Unlock()
		if err := c.connect(); err != nil {
			time.Sleep(backoff)
			if backoff < 2*time.Second {
				backoff *= 2
			}
			continue
		}
		c.mu.Lock()
		bw := c.bw
		type resend struct {
			id uint64
			tx []byte
		}
		var frames []resend
		for id, w := range c.waiters {
			frames = append(frames, resend{id, w.tx})
		}
		for _, tx := range c.outstanding {
			c.reqSeq++
			frames = append(frames, resend{c.reqSeq, tx})
		}
		var err error
		for _, f := range frames {
			if err = gateway.WriteFrame(bw, gateway.EncodeSubmit(gateway.Submit{ReqID: f.id, Tx: f.tx})); err != nil {
				break
			}
		}
		conn := c.conn
		c.mu.Unlock()
		if err != nil {
			conn.Close()
			continue
		}
		return true
	}
}
