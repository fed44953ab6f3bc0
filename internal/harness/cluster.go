// Package harness assembles full DispersedLedger clusters on the network
// emulator and runs the paper's experiments. Every emulated figure of the
// evaluation (§6 and appendix A) is RunGeo on a link profile, a mode and
// a load, and every run measures all the per-node quantities any figure
// reads; Fig 2 is RunFig2. cmd/dlbench picks each figure's numbers and
// prints them in the paper's shape.
package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dledger/internal/core"
	"dledger/internal/gateway"
	"dledger/internal/replica"
	"dledger/internal/simnet"
	"dledger/internal/stats"
	"dledger/internal/store"
	"dledger/internal/telemetry"
	"dledger/internal/trace"
	"dledger/internal/wire"
	"dledger/internal/workload"
)

// ClusterOptions configures an emulated cluster run.
type ClusterOptions struct {
	Core    core.Config
	Replica replica.Params

	// Egress bandwidth traces per node; each node's ingress follows the
	// same trace. Delay nil = flat 100 ms one-way, the paper's controlled
	// setting.
	Egress []trace.Trace
	Delay  func(from, to int) time.Duration
	// PriorityWeight is the dispersal:retrieval bandwidth ratio T (§5).
	// Zero = 30.
	PriorityWeight float64

	// Workload: TxSize bytes per transaction; LoadPerNode is the offered
	// Poisson load per node in bytes/second. InfiniteBacklog keeps every
	// mempool saturated instead (the paper's throughput methodology).
	TxSize          int
	LoadPerNode     float64
	InfiniteBacklog bool

	// Durable backs every node with a FileStore in its own directory
	// under a fresh temporary directory, so Crash/Restart work; Close
	// removes it. Off by default: the paper-figure experiments measure
	// the protocol, not the persistence layer.
	Durable bool

	// Telemetry gives every node its own telemetry bundle
	// (Cluster.Tels), enabling epoch-lifecycle tracing and the metrics
	// registry under the emulated clock. Counters and timelines are
	// per-incarnation: Crash/Restart and AddNode install a fresh bundle,
	// matching a real process restart. The tracer ring is sized so a
	// chaos-length run retains every delivered epoch's timeline.
	Telemetry bool

	// Clients attaches this many emulated gateway clients to every node
	// (via a gateway.Hub per node — the library form of the TCP front
	// door), implying content-hash dedup on every replica. Client
	// behaviour mirrors package dlclient: Poisson submissions at
	// ClientRate bytes/s each, retry-after backoff on over-capacity
	// rejections, resubmission of uncommitted transactions after the
	// node restarts, and verification of every streamed commit proof.
	Clients int
	// ClientRate is each client's offered load (default 20 KB/s).
	ClientRate float64
	// ClientStop ends client submissions at this simulated instant so a
	// run's tail can drain (0 = keep submitting to the horizon).
	ClientStop time.Duration

	Seed int64
}

// Cluster is a running emulated deployment. Under Durable each node
// persists through a FileStore, so the harness can crash a node (drop it
// from the network mid-run) and later restart it from its data directory
// — the emulated analogue of kill -9 plus a reboot from the datadir.
// Close releases the stores and removes their directories.
type Cluster struct {
	Sim      *simnet.Sim
	Net      *simnet.Network
	Replicas []*replica.Replica
	Stores   []*store.FileStore
	// dir holds node i's data directory node-<i> (Durable only).
	dir string
	// Hubs are the per-node client gateways (nil without opts.Clients;
	// see ClusterOptions.Clients).
	Hubs []*gateway.Hub
	// Tels are the per-node telemetry bundles (nil without
	// opts.Telemetry). A restarted or joined node gets a fresh bundle,
	// so each entry describes the node's current incarnation only.
	Tels []*telemetry.Metrics
	// progress is each node's cumulative confirmed payload bytes over
	// time (Fig 9; Throughput is its slope), one point per delivered
	// block of the current incarnation.
	progress []stats.TimeSeries
	clients  []*SimClient
	alive    []*bool
	held     map[int]bool
	// userHook is the externally-installed delivery observer of each
	// node (LogRecorder, experiment collectors); the replica's OnDeliver
	// dispatches to the gateway hub first, then to it. It survives
	// Crash/Restart re-wiring.
	userHook []func(replica.Delivery)
	// running is set by Start: from then on boot starts what it builds.
	running bool
	opts    ClusterOptions
}

// hubExec runs gateway submissions against a node's CURRENT replica
// incarnation — the emulator is single-threaded, so inline execution is
// the loop-posting of the real transports.
type hubExec struct {
	c *Cluster
	i int
}

func (e hubExec) Exec(fn func(*replica.Replica)) { fn(e.c.Replicas[e.i]) }

type simCtx struct {
	sim   *simnet.Sim
	net   *simnet.Network
	self  int
	alive *bool
}

func (c *simCtx) Now() time.Duration { return c.sim.Now() }
func (c *simCtx) Send(to int, env wire.Envelope, prio wire.Priority, stream uint64) {
	if !*c.alive {
		return // a crashed incarnation's leftover timers send nothing
	}
	c.net.Send(c.self, to, env, prio, stream)
}
func (c *simCtx) After(d time.Duration, fn func()) { c.sim.After(d, fn) }
func (c *simCtx) Unsend(to int, epoch uint64, proposer int) {
	if !*c.alive {
		return
	}
	c.net.Unsend(c.self, to, epoch, proposer)
}

// harnessTraceRing sizes the per-node tracer ring: large enough that a
// chaos-length run (minutes of simulated time at a 100 ms batch cadence)
// keeps every delivered epoch's timeline for invariant checking.
const harnessTraceRing = 8192

// harnessFlightRing sizes the per-node flight recorder. Chaos runs lean
// on the tail of the journal — the events surrounding the violation —
// so the ring only needs to cover the last few seconds of protocol
// activity, not the whole run.
const harnessFlightRing = 16384

// boot builds node i's next incarnation over st and wires it in: a
// fresh telemetry bundle, a fresh alive flag (the dead incarnation's
// leftover timers keep the old one), delivery dispatch to the gateway
// hub — looked up per delivery, so hubs built later and SetDeliverHook
// compose — and then to hook, and the network handler. On a running
// cluster the node starts at once (hook already in place: recovery can
// deliver blocks synchronously during Start) and its gateway clients
// resubmit their uncommitted transactions, as dlclient does on
// reconnect.
func (c *Cluster) boot(i int, cfg core.Config, st store.Store, hook func(replica.Delivery)) error {
	params := c.opts.Replica
	if c.opts.Telemetry {
		c.Tels[i] = telemetry.New(telemetry.Options{TraceRing: harnessTraceRing, FlightRing: harnessFlightRing})
		params.Telemetry = c.Tels[i]
	}
	alive := new(bool)
	*alive = true
	r, err := replica.New(cfg, i, params, st,
		&simCtx{sim: c.Sim, net: c.Net, self: i, alive: alive})
	if err != nil {
		return err
	}
	c.userHook[i] = hook
	c.Replicas[i] = r
	c.alive[i] = alive
	c.progress[i] = stats.TimeSeries{}
	r.OnDeliver = func(d replica.Delivery) {
		if c.Replicas[i] == r { // not a crashed incarnation's leftover timer
			c.progress[i].Add(d.At, float64(r.Stats.DeliveredPayload))
		}
		if c.Hubs != nil {
			c.Hubs[i].OnDeliver(d)
		}
		if fn := c.userHook[i]; fn != nil {
			fn(d)
		}
	}
	c.Net.SetHandler(i, func(env wire.Envelope) { r.OnEnvelope(env) })
	if c.running {
		r.Start()
		for _, cl := range c.clients {
			if cl.node == i {
				cl.resubmit()
			}
		}
	}
	return nil
}

// freshStore gives node i an empty FileStore under Durable and no store
// otherwise: a nil interface, never a nil *FileStore inside one. A store
// node i already had (a Held slot's first boot) is closed and wiped.
func (c *Cluster) freshStore(i int) (store.Store, error) {
	if !c.opts.Durable {
		return nil, nil
	}
	if c.Stores[i] != nil {
		c.Stores[i].Close()
		if err := os.RemoveAll(c.storeDir(i)); err != nil {
			return nil, err
		}
	}
	return c.openStore(i)
}

func (c *Cluster) storeDir(i int) string { return filepath.Join(c.dir, fmt.Sprintf("node-%d", i)) }

// openStore opens node i's data directory. NoSync is safe: an emulated
// crash kills a process, not a host, so the page cache survives it.
func (c *Cluster) openStore(i int) (store.Store, error) {
	st, err := store.OpenFile(store.FileOptions{Dir: c.storeDir(i), NoSync: true})
	if err != nil {
		return nil, err
	}
	c.Stores[i] = st
	return st, nil
}

// NewCluster builds the emulated cluster (not yet started).
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.Core.CoinSecret == nil {
		opts.Core.CoinSecret = []byte("harness shared coin secret")
	}
	if opts.TxSize == 0 {
		opts.TxSize = 250
	}
	if opts.Clients > 0 {
		// Gateway clients need content-hash dedup for idempotent
		// resubmission (and hashes in Deliveries for commit proofs).
		opts.Replica.ClientDedup = true
		if opts.ClientRate == 0 {
			opts.ClientRate = 20 << 10
		}
	}
	sim := simnet.NewSim()
	net := simnet.NewNetwork(sim, simnet.Config{
		N:              opts.Core.N,
		Delay:          opts.Delay,
		Egress:         opts.Egress,
		PriorityWeight: opts.PriorityWeight,
	})
	n := opts.Core.N
	c := &Cluster{
		Sim: sim, Net: net, opts: opts,
		Replicas: make([]*replica.Replica, n),
		Stores:   make([]*store.FileStore, n),
		alive:    make([]*bool, n),
		userHook: make([]func(replica.Delivery), n),
		progress: make([]stats.TimeSeries, n),
	}
	if opts.Telemetry {
		c.Tels = make([]*telemetry.Metrics, n)
	}
	if opts.Durable {
		dir, err := os.MkdirTemp("", tempDirPrefix)
		if err != nil {
			return nil, err
		}
		c.dir = dir
	}
	for i := 0; i < n; i++ {
		st, err := c.freshStore(i)
		if err == nil {
			err = c.boot(i, opts.Core, st, nil)
		}
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	if opts.Clients > 0 {
		c.Hubs = make([]*gateway.Hub, n)
		for i := range c.Hubs {
			c.Hubs[i] = gateway.NewHub(hubExec{c, i}, gateway.Options{
				N: n, F: opts.Core.F,
				// In simulated time a real 250 ms hint would stall the
				// clients pointlessly; one batch delay is the natural
				// backoff quantum.
				RetryAfter: opts.Replica.BatchDelay,
				Now:        sim.Now,
			})
		}
	}
	return c, nil
}

// SetDeliverHook installs (or replaces) node i's delivery observer. The
// gateway hub, when present, always observes first.
func (c *Cluster) SetDeliverHook(i int, fn func(replica.Delivery)) {
	c.userHook[i] = fn
}

// Alive reports whether node i is currently up.
func (c *Cluster) Alive(i int) bool { return *c.alive[i] }

// Crash kills node i: its traffic is dropped in both directions from the
// current simulated instant. Its data directory (the "disk") survives,
// but the store handle is closed at once, so the dead incarnation's
// leftover timers cannot persist anything after the crash instant (their
// writes fail with store.ErrFenced) — state the node had not persisted
// is lost, exactly as in a process kill.
func (c *Cluster) Crash(i int) {
	*c.alive[i] = false
	c.Net.SetHandler(i, func(wire.Envelope) {})
	if c.Stores[i] != nil {
		c.Stores[i].Close()
	}
}

// Restart boots a fresh node i from its crashed incarnation's data
// directory, opened anew; the dead incarnation keeps its closed handle.
// onDeliver (may be nil) is the new incarnation's delivery observer.
func (c *Cluster) Restart(i int, onDeliver func(replica.Delivery)) error {
	if c.Stores[i] == nil {
		return fmt.Errorf("harness: Restart(%d) requires ClusterOptions.Durable", i)
	}
	if c.Alive(i) || c.held[i] {
		// A second incarnation beside a live one would share its
		// directory and leave the first sending from its timers.
		return fmt.Errorf("harness: Restart(%d) requires a prior Crash(%d)", i, i)
	}
	st, err := c.openStore(i)
	if err != nil {
		return err
	}
	return c.boot(i, c.opts.Core, st, onDeliver)
}

// Hold excludes node i from the initial boot: it neither starts nor
// receives traffic until AddNode spawns it into the running cluster as
// a brand-new member. Call before Start.
func (c *Cluster) Hold(i int) {
	if c.held == nil {
		c.held = map[int]bool{}
	}
	c.held[i] = true
	*c.alive[i] = false
	c.Net.SetHandler(i, func(wire.Envelope) {})
}

// AddNode boots a Held node as a brand-new member of the running
// cluster: an empty store, and — with Core.StateSync — a checkpoint
// bootstrap from its peers before it participates (the emulated
// counterpart of `dlnode -join`). The membership slot must have been
// part of the cluster's configuration from the start; DispersedLedger's
// membership is static, so "a fresh node" means a configured member
// whose first boot happens mid-run.
func (c *Cluster) AddNode(i int, onDeliver func(replica.Delivery)) error {
	if !c.held[i] {
		return fmt.Errorf("harness: AddNode(%d) requires a prior Hold(%d)", i, i)
	}
	if !c.opts.Core.StateSync {
		// Without checkpoint transfer a fresh member can never reach the
		// cluster's log; fail loudly (as the chaos planner does) instead
		// of booting a node that silently wedges.
		return fmt.Errorf("harness: AddNode(%d) requires Core.StateSync", i)
	}
	delete(c.held, i)
	cfg := c.opts.Core
	cfg.JoinSync = true
	st, err := c.freshStore(i)
	if err != nil {
		return err
	}
	return c.boot(i, cfg, st, onDeliver)
}

// tempDirPrefix names the temporary directory a Durable cluster keeps
// its nodes' data directories in, until Close removes it.
const tempDirPrefix = "dledger-harness-"

// Close closes every node's store and removes the cluster's temporary
// directory. A cluster without Durable has nothing to release.
func (c *Cluster) Close() error {
	var errs []error
	for _, st := range c.Stores {
		if st != nil {
			errs = append(errs, st.Close())
		}
	}
	return errors.Join(append(errs, os.RemoveAll(c.dir))...)
}

// Start boots all replicas and installs the workload.
func (c *Cluster) Start() {
	c.running = true
	for i, r := range c.Replicas {
		if c.held[i] {
			continue
		}
		r.Start()
	}
	if c.opts.InfiniteBacklog {
		c.installBacklog()
	} else if c.opts.LoadPerNode > 0 {
		c.installPoisson()
	}
	if c.opts.Clients > 0 {
		c.installClients()
	}
}

// installBacklog keeps every mempool saturated so proposals are never
// demand-limited — the paper's throughput measurement methodology
// ("generate a high load ... to create an infinitely-backlogged system").
func (c *Cluster) installBacklog() {
	target := 4 * c.opts.Replica.BatchBytes
	if c.opts.Replica.FixedBlockBytes > 0 {
		target = 4 * c.opts.Replica.FixedBlockBytes
	}
	if target == 0 {
		target = 4 * (150 << 10)
	}
	var seq uint32
	for i := range c.Replicas {
		i := i
		var refill func()
		refill = func() {
			// Look the replica up at refill time (not capture it): after a
			// Crash/Restart the slot holds a new incarnation, and the
			// workload must follow it rather than feed the dead one.
			if c.Alive(i) {
				r := c.Replicas[i]
				for r.PendingBytes() < target {
					seq++
					r.Submit(workload.Make(i, seq, c.Sim.Now(), c.opts.TxSize))
				}
			}
			c.Sim.After(20*time.Millisecond, refill)
		}
		refill()
	}
}

// installPoisson starts the per-node Poisson generators of §6.1. Each
// submission resolves the node's current incarnation and is dropped
// while the node is down — a crashed node's clients are simply unlucky.
func (c *Cluster) installPoisson() {
	for i := range c.Replicas {
		i := i
		gen := workload.NewGenerator(i, c.opts.TxSize, c.opts.LoadPerNode, c.opts.Seed+int64(i)*7919)
		var arm func()
		arm = func() {
			tx, gap := gen.Next(c.Sim.Now())
			c.Sim.After(gap, func() {
				if c.Alive(i) {
					c.Replicas[i].Submit(tx)
				}
				arm()
			})
		}
		arm()
	}
}

// Run advances simulated time to the horizon.
func (c *Cluster) Run(horizon time.Duration) {
	c.Sim.Run(horizon)
}

// Throughput returns node i's confirmed-payload rate (bytes/second)
// between warmup and end, the paper's per-server throughput metric.
func (c *Cluster) Throughput(i int, warmup, end time.Duration) float64 {
	return c.progress[i].Rate(warmup, end)
}

// RetrieveAmplification returns node i's retrieval-class bytes received
// per payload byte it delivered: a little under one when each block is
// downloaded once (a node serves its own chunk to itself), N/(N−2F) when
// every server's chunk is. Zero for a node that delivered nothing and in
// the HoneyBadger modes, which have no retrieval class.
func (c *Cluster) RetrieveAmplification(i int) float64 {
	_, r := c.Net.BytesReceived(i)
	if p := c.Replicas[i].Stats.DeliveredPayload; p > 0 {
		return float64(r) / float64(p)
	}
	return 0
}

// DispersalFraction returns the ratio of dispersal-class bytes to total
// bytes a node must move per epoch (Fig 13's metric). Both classes are
// normalized per epoch — dispersal bytes per epoch whose dispersal phase
// finished, retrieval bytes per epoch fully delivered — because under
// infinite backlog the retrieval pipeline lags the dispersal pipeline by
// design, and raw byte totals at the end of a finite run would
// undercount retrieval for exactly the configurations with the largest
// backlog.
func (c *Cluster) DispersalFraction(i int) float64 {
	d, r := c.Net.BytesReceived(i)
	st := &c.Replicas[i].Stats
	if st.EpochsDecided == 0 || st.EpochsDelivered == 0 || d+r == 0 {
		return 0
	}
	dPer := float64(d) / float64(st.EpochsDecided)
	rPer := float64(r) / float64(st.EpochsDelivered)
	return dPer / (dPer + rPer)
}
