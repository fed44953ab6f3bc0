// Package dispersedledger is the public API of this DispersedLedger
// implementation (Yang et al., NSDI 2022): an asynchronous Byzantine
// fault tolerant state machine replication protocol that stays fast on
// variable-bandwidth networks by agreeing on verifiably-dispersed blocks
// and downloading their contents lazily.
//
// The package offers two entry points:
//
//   - NewCluster runs an N-node cluster inside one process, connected by
//     channels. It is the quickest way to use the protocol as a library
//     (embedded replicated log) and what the quickstart example uses.
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

// Mode selects the protocol variant.
type Mode = core.Mode

// Protocol variants (§6 of the paper). ModeDL is DispersedLedger proper
// and the default; the others are the paper's baselines and the
// spam-resistant variant.
const (
	ModeDL        = core.ModeDL
	ModeDLCoupled = core.ModeDLCoupled
	ModeHB        = core.ModeHB
	ModeHBLink    = core.ModeHBLink
)

// Config configures a cluster or node.
type Config struct {
	// N is the cluster size; F the fault tolerance. N >= 3F+1. If both
	// are zero, N=4, F=1 is used.
	N, F int
	// Mode is the protocol variant (default ModeDL).
	Mode Mode
	// CoinSecret keys the common coin; every node of a cluster must use
	// the same value. In-process clusters may leave it nil.
	CoinSecret []byte
	// BatchDelay and BatchBytes tune proposal batching (defaults: the
	// paper's 100 ms / 150 KB).
	BatchDelay time.Duration
	BatchBytes int
	// RetainEpochs, when positive, garbage-collects protocol state for
	// epochs more than this far behind delivery. See the engine
	// documentation for the availability tradeoff; zero keeps all state
	// (the paper-prototype behaviour).
	RetainEpochs uint64
	// StagedRetrieval requests block chunks in escalating waves instead
	// of from all servers at once — less redundant download for slow
	// nodes, slightly higher confirmation latency. Off by default (the
	// paper's policy).
	StagedRetrieval bool
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
		N: n, F: f, Mode: c.Mode, CoinSecret: c.CoinSecret,
		RetainEpochs: c.RetainEpochs, StagedRetrieval: c.StagedRetrieval,
		StateSync: c.StateSync,
	}
}

func (c Config) replicaParams() replica.Params {
	return replica.Params{
		BatchDelay:   c.BatchDelay,
		BatchBytes:   c.BatchBytes,
		MempoolBytes: c.MempoolBytes,
		ClientDedup:  c.ClientGateway,
	}
}

// newTelemetry builds one node's telemetry bundle (nil when disabled).
func (c Config) newTelemetry() *telemetry.Metrics {
	if !c.Telemetry {
		return nil
	}
	return telemetry.New(telemetry.Options{})
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

// nodeStats assembles the public counters of one node from its replica
// (on whose loop it runs), its delivery-drop counter and its gateway
// hub (nil without one).
func nodeStats(r *replica.Replica, dropped *int64, hub *gateway.Hub) Stats {
	ss := r.Engine().SyncStats()
	out := Stats{
		Submitted:           r.Stats.Submitted,
		DeliveredTxs:        r.Stats.DeliveredTxs,
		DeliveredPayload:    r.Stats.DeliveredPayload,
		EpochsDelivered:     r.Stats.EpochsDelivered,
		LinkedBlocks:        r.Stats.LinkedBlocks,
		DroppedDeliveries:   atomic.LoadInt64(dropped),
		StoreErrors:         r.Stats.StoreErrors,
		RejectedSubmissions: r.Stats.RejectedSubmissions,
		MempoolBytes:        int64(r.PendingBytes()),
		StateSyncs:          r.Stats.StateSyncs,
		StateSyncBytes:      ss.BytesFetched,
		StateSyncServed:     ss.PagesServed,
		StateSyncChunks:     ss.ChunksImported,
	}
	if hub != nil {
		out.Gateway = hub.Counters()
	}
	return out
}

// Cluster is an in-process DispersedLedger deployment.
type Cluster struct {
	mem    *transport.MemoryCluster
	stores []store.Store
	hubs   []*gateway.Hub       // per node, nil without Config.ClientGateway
	tels   []*telemetry.Metrics // per node, nil without Config.Telemetry

	mu      sync.Mutex
	subs    []chan Delivery
	dropped []int64 // per node, updated atomically on the consensus loops
	servers []*gateway.Server
}

// clusterExec adapts one node of a MemoryCluster to gateway.Node.
type clusterExec struct {
	c *Cluster
	i int
}

func (e clusterExec) Exec(fn func(r *replica.Replica)) { e.c.mem.Inspect(e.i, fn) }

// NewCluster starts an N-node in-process cluster. With Config.DataDir
// set, each node persists to DataDir/node-<i> and a cluster re-created
// over the same directory recovers every node's state.
func NewCluster(cfg Config) (*Cluster, error) {
	c := &Cluster{}
	cc := cfg.coreConfig()
	c.subs = make([]chan Delivery, cc.N)
	c.dropped = make([]int64, cc.N)
	for i := range c.subs {
		c.subs[i] = make(chan Delivery, 1024)
	}
	var stores []store.Store
	if cfg.DataDir != "" {
		for i := 0; i < cc.N; i++ {
			st, err := store.OpenFile(store.FileOptions{
				Dir:          filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", i)),
				ForceRestart: cfg.ForceRestart,
			})
			if err != nil {
				closeStores(stores)
				return nil, err
			}
			stores = append(stores, st)
		}
	}
	if cfg.Telemetry {
		c.tels = make([]*telemetry.Metrics, cc.N)
		for i := range c.tels {
			c.tels[i] = cfg.newTelemetry()
		}
	}
	if cfg.ClientGateway {
		c.hubs = make([]*gateway.Hub, cc.N)
		for i := range c.hubs {
			var tel *telemetry.Metrics
			if c.tels != nil {
				tel = c.tels[i]
			}
			c.hubs[i] = gateway.NewHub(clusterExec{c, i}, gateway.Options{
				N: cc.N, F: cc.F, RatePerClient: cfg.ClientRateLimit,
				Telemetry: tel,
			})
		}
	}
	mem, err := transport.NewMemoryCluster(transport.MemoryOptions{
		Core:      cc,
		Replica:   cfg.replicaParams(),
		Telemetry: c.tels,
		Stores:    stores,
		OnDeliver: func(node int, d replica.Delivery) {
			if c.hubs != nil {
				c.hubs[node].OnDeliver(d)
			}
			c.mu.Lock()
			ch := c.subs[node]
			c.mu.Unlock()
			select {
			case ch <- Delivery{
				Time: d.At, Epoch: d.Epoch, Proposer: d.Proposer,
				Txs: d.Txs, Linked: d.Linked,
			}:
			default:
				// Slow consumers drop deliveries rather than deadlocking
				// the consensus loop; Stats count the drops.
				atomic.AddInt64(&c.dropped[node], 1)
			}
		},
	})
	if err != nil {
		closeStores(stores)
		return nil, err
	}
	c.mem = mem
	c.stores = stores
	// Re-seed gateway proofs from each node's recovered log, so clients
	// resubmitting pre-restart transactions get verifiable receipts.
	for i, hub := range c.hubs {
		var recovered []replica.RecoveredBlock
		c.mem.Inspect(i, func(r *replica.Replica) { recovered = r.RecoveredBlocks() })
		hub.Seed(recovered)
	}
	return c, nil
}

// ServeClients starts the client-gateway TCP listener for node i on
// addr (port 0 picks a free port) and returns the bound address. It
// requires Config.ClientGateway; connect with package dlclient. The
// listener is closed with the cluster.
func (c *Cluster) ServeClients(i int, addr string) (string, error) {
	if i < 0 || i >= c.mem.N() {
		return "", ErrBadNode
	}
	if c.hubs == nil {
		return "", errors.New("dispersedledger: ServeClients requires Config.ClientGateway")
	}
	srv, err := gateway.Serve(c.hubs[i], addr)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.servers = append(c.servers, srv)
	c.mu.Unlock()
	return srv.Addr(), nil
}

func closeStores(stores []store.Store) {
	for _, st := range stores {
		if st != nil {
			st.Close()
		}
	}
}

// ErrBadNode is returned for out-of-range node indices.
var ErrBadNode = errors.New("dispersedledger: node index out of range")

// Submit hands a transaction to node i.
func (c *Cluster) Submit(i int, tx []byte) error {
	return c.mem.Submit(i, tx)
}

// Deliveries returns node i's delivery channel. Each delivered block is
// sent once; a consumer that falls more than 1024 blocks behind misses
// the overflow.
func (c *Cluster) Deliveries(i int) (<-chan Delivery, error) {
	if i < 0 || i >= c.mem.N() {
		return nil, ErrBadNode
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subs[i], nil
}

// Stats snapshots node i's counters.
func (c *Cluster) Stats(i int) (Stats, error) {
	if i < 0 || i >= c.mem.N() {
		return Stats{}, ErrBadNode
	}
	var hub *gateway.Hub
	if c.hubs != nil {
		hub = c.hubs[i]
	}
	var out Stats
	c.mem.Inspect(i, func(r *replica.Replica) { out = nodeStats(r, &c.dropped[i], hub) })
	return out, nil
}

// Telemetry returns node i's telemetry bundle (nil without
// Config.Telemetry): its Registry serves Prometheus/JSON snapshots and
// its Trace answers slowest-epoch queries.
func (c *Cluster) Telemetry(i int) (*telemetry.Metrics, error) {
	if i < 0 || i >= c.mem.N() {
		return nil, ErrBadNode
	}
	if c.tels == nil {
		return nil, nil
	}
	return c.tels[i], nil
}

// N returns the cluster size.
func (c *Cluster) N() int { return c.mem.N() }

// Close stops the cluster, its client-gateway listeners, and flushes
// any durable stores.
func (c *Cluster) Close() {
	c.mu.Lock()
	servers := c.servers
	c.servers = nil
	c.mu.Unlock()
	for _, s := range servers {
		s.Close()
	}
	c.mem.Close()
	closeStores(c.stores)
}

// Node is one member of a distributed TCP deployment.
type Node struct {
	self    int
	cc      core.Config // resolved core config, for /statusz reporting
	tcp     *transport.TCPNode
	st      store.Store
	hub     *gateway.Hub           // nil without a client gateway
	gw      *gateway.Server        // nil without NodeOptions.ClientAddr
	tel     *telemetry.Metrics     // nil without Config.Telemetry
	admin   *telemetry.AdminServer // nil without NodeOptions.AdminAddr
	sub     chan Delivery
	dropped int64 // updated atomically on the consensus loop
}

// nodeExec adapts a TCPNode to gateway.Node.
type nodeExec struct{ n *Node }

func (e nodeExec) Exec(fn func(r *replica.Replica)) { e.n.tcp.Inspect(fn) }

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
func NewTCPNode(opts NodeOptions) (*Node, error) {
	n := &Node{sub: make(chan Delivery, 1024)}
	if opts.ClientAddr != "" {
		opts.Config.ClientGateway = true
	}
	if opts.AdminAddr != "" {
		opts.Config.Telemetry = true
	}
	n.tel = opts.Config.newTelemetry()
	cc := opts.Config.coreConfig()
	if opts.Join {
		cc.StateSync = true
		cc.JoinSync = true
	}
	n.self = opts.Self
	n.cc = cc
	if opts.Config.ClientGateway {
		n.hub = gateway.NewHub(nodeExec{n}, gateway.Options{
			N: cc.N, F: cc.F, RatePerClient: opts.Config.ClientRateLimit,
			Telemetry: n.tel,
		})
	}
	var st store.Store
	if opts.Config.DataDir != "" {
		var err error
		st, err = store.OpenFile(store.FileOptions{
			Dir:          opts.Config.DataDir,
			ForceRestart: opts.Config.ForceRestart,
		})
		if err != nil {
			return nil, err
		}
	}
	params := opts.Config.replicaParams()
	params.Telemetry = n.tel
	tcp, err := transport.NewTCPNode(transport.TCPOptions{
		Core:     cc,
		Replica:  params,
		Self:     opts.Self,
		Addrs:    opts.Addrs,
		Listener: opts.Listener,
		Keys:     opts.Keys,
		Store:    st,
		OnDeliver: func(d replica.Delivery) {
			if n.hub != nil {
				n.hub.OnDeliver(d)
			}
			select {
			case n.sub <- Delivery{
				Time: d.At, Epoch: d.Epoch, Proposer: d.Proposer,
				Txs: d.Txs, Linked: d.Linked,
			}:
			default:
				atomic.AddInt64(&n.dropped, 1)
			}
		},
	})
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	n.tcp = tcp
	n.st = st
	if n.hub != nil {
		// Re-seed gateway proofs from the recovered log so pre-restart
		// commitments stay provable to resubmitting clients.
		var recovered []replica.RecoveredBlock
		tcp.Inspect(func(r *replica.Replica) { recovered = r.RecoveredBlocks() })
		n.hub.Seed(recovered)
	}
	if opts.ClientAddr != "" {
		gw, err := gateway.Serve(n.hub, opts.ClientAddr)
		if err != nil {
			n.Close()
			return nil, err
		}
		n.gw = gw
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
	n.tcp.Inspect(func(r *replica.Replica) {
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
func (n *Node) Submit(tx []byte) { n.tcp.Submit(tx) }

// Deliveries returns this node's delivery channel.
func (n *Node) Deliveries() <-chan Delivery { return n.sub }

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.tcp.Addr() }

// ClientAddr returns the client-gateway listen address ("" when no
// gateway is served).
func (n *Node) ClientAddr() string {
	if n.gw == nil {
		return ""
	}
	return n.gw.Addr()
}

// Stats snapshots the node's counters.
func (n *Node) Stats() Stats {
	var out Stats
	n.tcp.Inspect(func(r *replica.Replica) { out = nodeStats(r, &n.dropped, n.hub) })
	return out
}

// Close stops the node (client gateway first) and flushes its durable
// store.
func (n *Node) Close() {
	if n.admin != nil {
		n.admin.Close()
	}
	if n.gw != nil {
		n.gw.Close()
	}
	n.tcp.Close()
	if n.st != nil {
		n.st.Close()
	}
}
