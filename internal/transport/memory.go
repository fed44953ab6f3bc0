package transport

import (
	"fmt"
	"sync"
	"time"

	"dledger/internal/core"
	"dledger/internal/replica"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// MemoryNet connects the nodes of one in-process cluster with channels.
// Unlike the simnet emulator it runs in real time with real concurrency
// — it is the backend of the public API's NewCluster and the quickstart
// example, and doubles as a stress test of the replica's event-loop
// threading model. It plays the part of the TCP mesh: nodes are built
// one at a time with NewMemoryNode, and the replicas start once every
// slot is taken (a TCP node dials until its peers listen; a channel has
// nobody to redial, so nothing is sent before the net is complete).
type MemoryNet struct {
	// delay is an optional artificial one-way latency between nodes.
	delay time.Duration

	mu     sync.Mutex
	nodes  []*MemoryNode
	joined int
}

// NewMemoryNet makes the net of an n-node in-process cluster; delay is
// an artificial one-way message latency (0 = none).
func NewMemoryNet(n int, delay time.Duration) *MemoryNet {
	return &MemoryNet{delay: delay, nodes: make([]*MemoryNode, n)}
}

// MemoryOptions configures one node of a MemoryNet: TCPOptions without
// the sockets.
type MemoryOptions struct {
	Core    core.Config
	Replica replica.Params
	Self    int
	// Net is the cluster's net; Core.N must be its size.
	Net *MemoryNet
	// Store, when set, is the node's durable store, with TCPOptions.Store's
	// contract: recovered before the node starts, owned and closed by the
	// caller. Nil means no durability.
	Store store.Store
	// OnDeliver observes delivered blocks (called on the node's loop).
	OnDeliver func(replica.Delivery)
}

// MemoryNode is one DispersedLedger node on a MemoryNet.
type MemoryNode struct {
	node
	net *MemoryNet
}

// NewMemoryNode builds node opts.Self and takes its slot of opts.Net.
// Its loop runs at once (Submit queues into the mempool, Inspect sees
// the recovered state); its replica starts when the net's last slot is
// taken.
func NewMemoryNode(opts MemoryOptions) (*MemoryNode, error) {
	m := opts.Net
	if opts.Self < 0 || opts.Self >= len(m.nodes) || len(m.nodes) != opts.Core.N {
		return nil, fmt.Errorf("transport: bad Self/Net for N=%d", opts.Core.N)
	}
	if opts.Core.CoinSecret == nil {
		opts.Core.CoinSecret = []byte("memory cluster coin secret")
	}
	n := &MemoryNode{node: node{loop: newEventLoop()}, net: m}
	rep, err := replica.New(opts.Core, opts.Self, opts.Replica, opts.Store, (*memCtx)(n))
	if err != nil {
		n.loop.close()
		return nil, err
	}
	if opts.OnDeliver != nil {
		rep.OnDeliver = opts.OnDeliver
	}
	n.rep = rep

	m.mu.Lock()
	if m.nodes[opts.Self] != nil {
		m.mu.Unlock()
		n.loop.close()
		return nil, fmt.Errorf("transport: memory node %d already exists", opts.Self)
	}
	m.nodes[opts.Self] = n
	m.joined++
	complete := m.joined == len(m.nodes)
	m.mu.Unlock()
	if complete {
		// From here on the slots are read-only, so Send reads them
		// without the lock: every loop learns of them through this post.
		for _, peer := range m.nodes {
			peer.loop.post(peer.rep.Start)
		}
	}
	return n, nil
}

// memCtx adapts MemoryNode to replica.Context.
type memCtx MemoryNode

func (c *memCtx) Now() time.Duration { return c.loop.now() }

func (c *memCtx) Send(to int, env wire.Envelope, prio wire.Priority, stream uint64) {
	peer := c.net.nodes[to]
	deliver := func() { peer.loop.post(func() { peer.rep.OnEnvelope(env) }) }
	if c.net.delay > 0 {
		time.AfterFunc(c.net.delay, deliver)
	} else {
		deliver()
	}
}

func (c *memCtx) After(d time.Duration, fn func()) { c.loop.after(d, fn) }

// Close stops the node's event loop; traffic sent to it afterwards is
// dropped.
func (n *MemoryNode) Close() { n.loop.close() }
