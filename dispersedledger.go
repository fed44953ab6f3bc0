// Package dispersedledger is the public API of this DispersedLedger
// implementation (Yang et al., NSDI 2022): an asynchronous Byzantine
// fault tolerant state machine replication protocol that stays fast on
// variable-bandwidth networks by agreeing on verifiably-dispersed blocks
// and downloading their contents lazily.
//
// The package offers two entry points onto one node assembly, both
// running DispersedLedger proper (the paper's baselines live only in
// the emulated experiment harness):
//
//   - NewCluster runs N nodes inside one process, connected over
//     loopback TCP exactly as a deployment's nodes are. It is the
//     quickest way to use the protocol as a library (embedded replicated
//     log) and what the quickstart example uses.
//   - NewTCPNode runs one node of a distributed deployment over TCP;
//     cmd/dlnode wraps it in a binary.
//
// The underlying machinery — the AVID-M dispersal protocol, binary
// agreement, the network emulator that reproduces the paper's
// experiments — lives in internal/ packages; see DESIGN.md for the map.
package dispersedledger

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dledger/internal/core"
	"dledger/internal/gateway"
	"dledger/internal/replica"
	"dledger/internal/store"
	"dledger/internal/telemetry"
	"dledger/internal/transport"
)

// Config configures a cluster or node.
type Config struct {
	// N is the cluster size; F the fault tolerance. N >= 3F+1. If both
	// are zero, N=4, F=1 is used.
	N, F int
	// CoinSecret keys the common coin; every node of a cluster must use
	// the same value. In-process clusters may leave it nil for a fixed
	// default.
	CoinSecret []byte
	// BatchDelay is the proposal batching delay (default: the paper's
	// 100 ms). A proposal goes out once 150 KB are pending, too, unless
	// fewer than N−F of the last epoch's committed blocks carried
	// transactions: then epochs wait for other nodes' delay timers
	// anyway, and a full batch waits until another node's proposal has
	// started the epoch, for at most BatchDelay.
	BatchDelay time.Duration
	// RetainEpochs, when positive, garbage-collects protocol state for
	// epochs more than this far behind delivery. See the engine
	// documentation for the availability tradeoff; zero keeps all state
	// (the paper-prototype behaviour).
	RetainEpochs uint64
	// DataDir, when set, makes the node durable: its write-ahead log,
	// stored AVID chunks and periodic checkpoints live in this directory
	// (one subdirectory per node for in-process clusters), and a node
	// restarted from the same directory recovers its log position,
	// serves retrievals for pre-crash epochs and rejoins the cluster.
	// Empty (the default) keeps all state in memory: nothing survives
	// the process, no filesystem I/O happens.
	//
	// Durability is fsync-batched: one fsync covers every record of a
	// protocol step — including the step's binary-agreement votes, so a
	// restarted node re-sends exactly its pre-crash votes and a restart
	// never consumes the cluster's fault budget — and a host crash can
	// lose at most the latest step (which recovery treats as never
	// having happened — safe, because nothing was externalized before
	// its fsync). Checkpoints compact the log every ~64 delivered
	// epochs; chunk segments are reclaimed in step with the
	// RetainEpochs garbage-collection horizon.
	//
	// If a durable write ever fails mid-run, the node keeps
	// participating without persisting and durably flags the directory
	// (UNSAFE_RESTART): reopening it is refused until ForceRestart, since
	// the log stops short of the state the node externalized.
	DataDir string
	// ForceRestart opens a DataDir flagged UNSAFE_RESTART anyway,
	// clearing the flag — the operator accepts that the restarted node
	// recovers to a stale position and may re-send agreement votes its
	// broken log forgot, spending the cluster's fault budget. See
	// docs/OPERATIONS.md before using.
	ForceRestart bool
	// MempoolBytes caps the node's queued transaction bytes: a
	// submission that would exceed the budget is rejected (gateway
	// clients get an over-capacity receipt with a retry-after hint; the
	// in-process Submit drops it and counts Stats.RejectedSubmissions)
	// instead of growing the mempool unboundedly. Zero keeps the
	// unbounded legacy behaviour.
	MempoolBytes int
	// ClientGateway enables the client-gateway machinery: content-hash
	// deduplication of submissions (idempotent client retries, including
	// across a node crash-restart — the hashes ride the WAL), commit
	// proofs for delivered transactions, and the Cluster.ServeClients /
	// NodeOptions.ClientAddr TCP front door. Setting ClientAddr on a
	// node implies it. Costs one SHA-256 per delivered transaction.
	ClientGateway bool
	// ClientRateLimit, when positive, rate-limits each gateway client's
	// admission to this many bytes/second (token bucket, 4-second
	// burst): a single flooder is rejected with a retry-after hint
	// before its bytes can contend for the shared mempool budget, so
	// admission fairness matches the mempool's round-robin dequeue
	// fairness. Zero disables the limit.
	ClientRateLimit float64
	// Telemetry enables the node's instrument panel: a metrics registry
	// (counters, gauges, log-scale histograms with Prometheus text and
	// JSON exposition), per-stage epoch-lifecycle tracing with a ring of
	// recent epoch timelines, and — on TCP nodes — the admin HTTP
	// endpoint (NodeOptions.AdminAddr). Off by default; when off the
	// instrumentation throughout the stack no-ops at the cost of a nil
	// check. Setting NodeOptions.AdminAddr implies it.
	Telemetry bool
	// StateSync enables the checkpoint-transfer subsystem: the node
	// records attestable sync points as it delivers, serves checkpoint
	// manifests and chunk inventories to joining peers, and — if its
	// own outage ever outlasts the cluster's RetainEpochs horizon —
	// bootstraps itself from a peer checkpoint instead of wedging in
	// catch-up. Pair with RetainEpochs: with StateSync the horizon is
	// enforced unconditionally (bounded memory even with a dead peer),
	// because laggards beyond it have the checkpoint path. All nodes of
	// a cluster must agree on this setting and on RetainEpochs.
	StateSync bool
}

func (c Config) coreConfig() core.Config {
	n, f := c.N, c.F
	if n == 0 && f == 0 {
		n, f = 4, 1
	}
	return core.Config{
		N: n, F: f, CoinSecret: c.CoinSecret,
		RetainEpochs: c.RetainEpochs, StateSync: c.StateSync,
	}
}

// Delivery is one committed block, as observed by one node. Deliveries
// arrive in the same total order at every correct node.
type Delivery struct {
	// Time is the node-local time of delivery.
	Time time.Duration
	// Epoch and Proposer identify the block's slot in the log.
	Epoch    uint64
	Proposer int
	// Txs are the block's transactions in proposal order.
	Txs [][]byte
	// Linked marks blocks committed via inter-node linking (§4.3) rather
	// than directly by the epoch's agreement phase.
	Linked bool
}

// Stats is a snapshot of one node's counters.
type Stats struct {
	Submitted        int64
	DeliveredTxs     int64
	DeliveredPayload int64
	EpochsDelivered  int64
	LinkedBlocks     int64
	// DroppedDeliveries counts blocks a slow consumer missed on this
	// node's delivery channel (the channel drops rather than deadlock
	// the consensus loop).
	DroppedDeliveries int64
	// StoreErrors counts failed durable writes. After the first failure
	// the node stops persisting (it stays available, but its DataDir is
	// no longer a valid restart point) — a nonzero value needs operator
	// attention.
	StoreErrors int64
	// RejectedSubmissions counts submissions refused by admission
	// control (duplicates and over-budget rejections, across the
	// in-process and gateway paths); Gateway has the per-cause split.
	RejectedSubmissions int64
	// MempoolBytes is the current queued-transaction backlog — with
	// Config.MempoolBytes set it never exceeds that budget.
	MempoolBytes int64
	// StateSyncs counts completed bootstrap-from-checkpoint installs on
	// this node (a node that was down past the cluster's retention
	// horizon, or started with dlnode -join, recovers this way).
	StateSyncs int64
	// StateSyncBytes is the total checkpoint-page payload this node
	// fetched as a state-sync client; StateSyncServed counts the pages
	// it served to joining peers as a donor.
	StateSyncBytes  int64
	StateSyncServed int64
	// StateSyncChunks counts Merkle-verified chunk records this node
	// imported from donors' retained inventories during syncs.
	StateSyncChunks int64
	// Gateway holds the client-gateway counters (zero without one).
	Gateway GatewayStats
}

// GatewayStats are the per-cause client-gateway counters of one node.
type GatewayStats = gateway.Counters

// Cluster is an in-process DispersedLedger deployment: N TCP Nodes in
// one process, meshed over loopback with authenticated links.
type Cluster struct {
	nodes []*Node
}

// NewCluster starts an N-node in-process cluster on 127.0.0.1 ports it
// picks, with a fresh ed25519 keyring per call. With Config.DataDir
// set, each node persists to DataDir/node-<i> and a cluster re-created
// over the same directory recovers every node's state.
func NewCluster(cfg Config) (*Cluster, error) {
	n := cfg.coreConfig().N
	if cfg.CoinSecret == nil {
		cfg.CoinSecret = []byte("in-process cluster coin secret")
	}
	keys, err := GenerateKeyring(n)
	if err != nil {
		return nil, err
	}
	// Bind every listener first, so each node knows every real port
	// before any of them dials. A node owns its listener from its
	// constructor call on; the rest are closed here on failure.
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	closeFrom := func(i int) {
		for _, ln := range lns[i:] {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeFrom(0)
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	c := &Cluster{}
	for i := range lns {
		opts := NodeOptions{Config: cfg, Self: i, Addrs: addrs, Listener: lns[i], Keys: keys[i]}
		if cfg.DataDir != "" {
			opts.Config.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", i))
		}
		node, err := newNode(opts)
		if err != nil {
			closeFrom(i + 1)
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// ErrBadNode is returned for out-of-range node indices.
var ErrBadNode = errors.New("dispersedledger: node index out of range")

func (c *Cluster) node(i int) (*Node, error) {
	if i < 0 || i >= len(c.nodes) {
		return nil, ErrBadNode
	}
	return c.nodes[i], nil
}

// ServeClients starts the client-gateway TCP listener for node i on
// addr (port 0 picks a free port) and returns the bound address. It
// requires Config.ClientGateway; connect with package dlclient. The
// listener is closed with the cluster.
func (c *Cluster) ServeClients(i int, addr string) (string, error) {
	n, err := c.node(i)
	if err != nil {
		return "", err
	}
	return n.serveClients(addr)
}

// Submit hands a transaction to node i.
func (c *Cluster) Submit(i int, tx []byte) error {
	n, err := c.node(i)
	if err != nil {
		return err
	}
	n.Submit(tx)
	return nil
}

// Deliveries returns node i's delivery channel. Each delivered block is
// sent once; a consumer that falls more than 1024 blocks behind misses
// the overflow.
func (c *Cluster) Deliveries(i int) (<-chan Delivery, error) {
	n, err := c.node(i)
	if err != nil {
		return nil, err
	}
	return n.Deliveries(), nil
}

// Stats snapshots node i's counters.
func (c *Cluster) Stats(i int) (Stats, error) {
	n, err := c.node(i)
	if err != nil {
		return Stats{}, err
	}
	return n.Stats(), nil
}

// Telemetry returns node i's telemetry bundle (nil without
// Config.Telemetry): its Registry serves Prometheus/JSON snapshots and
// its Trace answers slowest-epoch queries.
func (c *Cluster) Telemetry(i int) (*telemetry.Metrics, error) {
	n, err := c.node(i)
	if err != nil {
		return nil, err
	}
	return n.Telemetry(), nil
}

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.nodes) }

// Close stops every node with its client-gateway listeners and flushes
// any durable stores.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		n.Close()
	}
}

// Node is one DispersedLedger node: a member of a distributed TCP
// deployment (NewTCPNode) or of an in-process Cluster.
type Node struct {
	self    int
	cc      core.Config // resolved core config, for /statusz reporting
	rt      *transport.TCPNode
	st      store.Store            // nil without Config.DataDir
	hub     *gateway.Hub           // nil without a client gateway
	tel     *telemetry.Metrics     // nil without Config.Telemetry
	admin   *telemetry.AdminServer // nil without NodeOptions.AdminAddr
	sub     chan Delivery
	dropped atomic.Int64 // blocks the full sub channel missed

	mu  sync.Mutex
	gws []*gateway.Server // client-gateway listeners, closed with the node
}

// nodeExec adapts a Node's transport node to gateway.Node. It resolves
// the transport node per call because the hub is built first:
// deliveries reach the hub as soon as the transport node exists.
type nodeExec struct{ n *Node }

func (e nodeExec) Exec(fn func(r *replica.Replica)) { e.n.rt.Inspect(fn) }

// Keyring re-exports the transport identity keyring: generate one set
// per cluster with GenerateKeyring and give each node its own entry.
type Keyring = transport.Keyring

// GenerateKeyring creates ed25519 identity keys for an n-node cluster.
// Pass nil to use crypto/rand.
func GenerateKeyring(n int) ([]*Keyring, error) {
	return transport.GenerateKeyring(n, nil)
}

// NodeOptions configures a TCP node.
type NodeOptions struct {
	Config Config
	// Self is this node's index into Addrs.
	Self int
	// Addrs lists every node's listen address, in node-id order.
	Addrs []string
	// Listener optionally provides a pre-bound listener for Addrs[Self].
	// The node takes it over: it is closed with the node, or at once if
	// NewTCPNode fails.
	Listener net.Listener
	// Keys enables ed25519 authentication of every connection. Without
	// keys, peers are identified by their self-declared handshake id —
	// acceptable only on trusted networks.
	Keys *Keyring
	// ClientAddr, when set, serves the client gateway on this address
	// (port 0 picks a free port; see ClientAddr()): external clients
	// connect with package dlclient to submit transactions and receive
	// commit proofs. Implies Config.ClientGateway.
	ClientAddr string
	// AdminAddr, when set, serves the operator admin endpoint on this
	// address (port 0 picks a free port; see AdminAddr()): /metrics
	// (Prometheus text), /statusz (JSON position, mempool, sync state
	// and stage breakdown), /healthz, and net/http/pprof under
	// /debug/pprof/. Implies Config.Telemetry.
	AdminAddr string
	// Join marks this node as a brand-new member joining a running
	// cluster with an empty DataDir: before participating it fetches a
	// verified checkpoint from its peers (f+1 identical attestations)
	// and resumes from there — replaying a history the cluster may long
	// since have garbage-collected is not required. Implies
	// Config.StateSync; the membership slot must already be in every
	// node's Addrs list (membership itself is static), and the running
	// peers must have StateSync enabled.
	Join bool
}

// NewTCPNode starts one node of a TCP cluster. Config.CoinSecret must be
// set (all nodes must share it). With Config.DataDir set, the node is
// durable: restarting it over the same directory recovers its chunk
// store and log position and rejoins the cluster where it left off.
func NewTCPNode(opts NodeOptions) (*Node, error) { return newNode(opts) }

// newNode is the node assembly: telemetry bundle, gateway hub, durable
// store, then the replica on its TCP mesh node, and last the listeners
// that let the outside in.
func newNode(opts NodeOptions) (*Node, error) {
	cfg := opts.Config
	cfg.ClientGateway = cfg.ClientGateway || opts.ClientAddr != ""
	cfg.Telemetry = cfg.Telemetry || opts.AdminAddr != ""
	cc := cfg.coreConfig()
	if opts.Join {
		cc.StateSync, cc.JoinSync = true, true
	}
	// 1024 blocks of slack for the consumer (see Cluster.Deliveries).
	n := &Node{self: opts.Self, cc: cc, sub: make(chan Delivery, 1024)}
	if cfg.Telemetry {
		n.tel = telemetry.New(telemetry.Options{})
	}
	if cfg.ClientGateway {
		n.hub = gateway.NewHub(nodeExec{n}, gateway.Options{
			N: cc.N, F: cc.F, RatePerClient: cfg.ClientRateLimit,
			Telemetry: n.tel,
		})
	}
	if cfg.DataDir != "" {
		st, err := store.OpenFile(store.FileOptions{Dir: cfg.DataDir, ForceRestart: cfg.ForceRestart})
		if err != nil {
			if opts.Listener != nil {
				opts.Listener.Close()
			}
			return nil, err
		}
		n.st = st
	}
	params := replica.Params{
		BatchDelay:   cfg.BatchDelay,
		MempoolBytes: cfg.MempoolBytes,
		ClientDedup:  cfg.ClientGateway,
		Telemetry:    n.tel,
	}
	rt, err := transport.NewTCPNode(transport.TCPOptions{
		Core: cc, Replica: params, Self: opts.Self,
		Addrs: opts.Addrs, Listener: opts.Listener, Keys: opts.Keys,
		Store: n.st, OnDeliver: n.onDeliver,
	})
	if err != nil {
		n.Close()
		return nil, err
	}
	n.rt = rt
	if n.hub != nil {
		// Re-seed gateway proofs from the recovered log so pre-restart
		// commitments stay provable to resubmitting clients.
		var recovered []replica.RecoveredBlock
		n.rt.Inspect(func(r *replica.Replica) { recovered = r.RecoveredBlocks() })
		n.hub.Seed(recovered)
	}
	if opts.ClientAddr != "" {
		if _, err := n.serveClients(opts.ClientAddr); err != nil {
			n.Close()
			return nil, err
		}
	}
	if opts.AdminAddr != "" {
		ln, err := net.Listen("tcp", opts.AdminAddr)
		if err != nil {
			n.Close()
			return nil, err
		}
		n.admin = telemetry.ServeAdmin(ln, n.tel, n.adminStatus)
	}
	return n, nil
}

// onDeliver runs on the consensus loop for every delivered block: the
// gateway hub indexes it, then it goes to the delivery channel.
func (n *Node) onDeliver(d replica.Delivery) {
	if n.hub != nil {
		n.hub.OnDeliver(d)
	}
	select {
	case n.sub <- Delivery{
		Time: d.At, Epoch: d.Epoch, Proposer: d.Proposer,
		Txs: d.Txs, Linked: d.Linked,
	}:
	default:
		// Slow consumers drop deliveries rather than deadlocking the
		// consensus loop; Stats count the drops.
		n.dropped.Add(1)
	}
}

func (n *Node) serveClients(addr string) (string, error) {
	if n.hub == nil {
		return "", errors.New("dispersedledger: ServeClients requires Config.ClientGateway")
	}
	gw, err := gateway.Serve(n.hub, addr)
	if err != nil {
		return "", err
	}
	n.mu.Lock()
	n.gws = append(n.gws, gw)
	n.mu.Unlock()
	return gw.Addr(), nil
}

// adminStatus gathers the node-specific half of /statusz on the
// consensus loop, so every number in one response is one consistent
// snapshot.
func (n *Node) adminStatus() map[string]any {
	out := map[string]any{
		"node": n.self,
		"config": map[string]any{
			"n":             n.cc.N,
			"f":             n.cc.F,
			"mode":          n.cc.Mode.String(),
			"retain_epochs": n.cc.RetainEpochs,
			"state_sync":    n.cc.StateSync,
		},
	}
	n.rt.Inspect(func(r *replica.Replica) {
		eng := r.Engine()
		ss := eng.SyncStats()
		out["position"] = map[string]any{
			"delivered_epoch": eng.DeliveredEpoch(),
			"decided_through": eng.DecidedThrough(),
			"dispersal_epoch": eng.DispersalEpoch(),
			"pruned_through":  eng.PrunedThrough(),
		}
		out["mempool"] = map[string]any{
			"pending_bytes": r.PendingBytes(),
			"submitted":     r.Stats.Submitted,
			"rejected":      r.Stats.RejectedSubmissions,
		}
		sync := map[string]any{
			"installs":        r.Stats.StateSyncs,
			"fetched_bytes":   ss.BytesFetched,
			"imported_chunks": ss.ChunksImported,
			"served_pages":    ss.PagesServed,
			"last_sync_epoch": ss.LastSyncEpoch,
		}
		if tr := r.SyncTracker(); tr != nil {
			sync["points"] = tr.Summary()
		}
		out["sync"] = sync
		out["store"] = map[string]any{"errors": r.Stats.StoreErrors}
	})
	if n.hub != nil {
		out["gateway"] = n.hub.Counters()
	}
	return out
}

// Telemetry returns the node's telemetry bundle (nil without
// Config.Telemetry).
func (n *Node) Telemetry() *telemetry.Metrics { return n.tel }

// AdminAddr returns the admin endpoint's listen address ("" when no
// admin endpoint is served).
func (n *Node) AdminAddr() string {
	if n.admin == nil {
		return ""
	}
	return n.admin.Addr().String()
}

// Submit hands a transaction to this node.
func (n *Node) Submit(tx []byte) { n.rt.Submit(tx) }

// Deliveries returns this node's delivery channel.
func (n *Node) Deliveries() <-chan Delivery { return n.sub }

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.rt.Addr() }

// ClientAddr returns the client-gateway listen address ("" when no
// gateway is served).
func (n *Node) ClientAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.gws) == 0 {
		return ""
	}
	return n.gws[0].Addr()
}

// Stats snapshots the node's counters on its consensus loop.
func (n *Node) Stats() Stats {
	var out Stats
	n.rt.Inspect(func(r *replica.Replica) {
		ss := r.Engine().SyncStats()
		out = Stats{
			Submitted:           r.Stats.Submitted,
			DeliveredTxs:        r.Stats.DeliveredTxs,
			DeliveredPayload:    r.Stats.DeliveredPayload,
			EpochsDelivered:     r.Stats.EpochsDelivered,
			LinkedBlocks:        r.Stats.LinkedBlocks,
			DroppedDeliveries:   n.dropped.Load(),
			StoreErrors:         r.Stats.StoreErrors,
			RejectedSubmissions: r.Stats.RejectedSubmissions,
			MempoolBytes:        int64(r.PendingBytes()),
			StateSyncs:          r.Stats.StateSyncs,
			StateSyncBytes:      ss.BytesFetched,
			StateSyncServed:     ss.PagesServed,
			StateSyncChunks:     ss.ChunksImported,
		}
	})
	if n.hub != nil {
		out.Gateway = n.hub.Counters()
	}
	return out
}

// Close stops the node (admin endpoint and client gateway first) and
// flushes its durable store.
func (n *Node) Close() {
	if n.admin != nil {
		n.admin.Close()
	}
	n.mu.Lock()
	gws := n.gws
	n.gws = nil
	n.mu.Unlock()
	for _, gw := range gws {
		gw.Close()
	}
	if n.rt != nil {
		n.rt.Close()
	}
	if n.st != nil {
		n.st.Close()
	}
}
