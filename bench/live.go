package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	dledger "dledger"
	"dledger/dlclient"
	"dledger/internal/mempool"
)

// liveSpec describes one live loopback workload: an in-process TCP
// cluster on 127.0.0.1 driven through the client gateways of its first
// nodes. No delay is injected between nodes, so live latency is
// batching, agreement rounds, fsync and CPU — not WAN latency; wan16
// carries the delays.
type liveSpec struct {
	name   string
	n, f   int
	txSize int
	// rate is the open loop's arrivals in tx/s over all connections, each
	// timed from its due time. Every live workload is an open loop at a
	// rate that leaves the two cores about half idle: a loop that
	// saturates them reports the host's speed of the minute, which on a
	// shared host moves by a quarter between runs (see README).
	rate float64
	// batchDelay overrides the nodes' 100 ms proposal timer (0 keeps it).
	batchDelay time.Duration
	warmup     time.Duration
	// incarnations is how many back-to-back clusters share the measured
	// time; the run reports the median over them.
	incarnations int
	// restart, on a traced run, closes the last node after the measured
	// window and reopens its DataDir under load (core.catchup_s).
	restart bool
}

var liveSpecs = map[string]liveSpec{
	// Eight short incarnations: an n=4 cluster settles at boot into a
	// phase between its nodes' batch timers that moves its p50 by ±12%
	// and keeps it, so the run needs many boots, not long ones.
	"steady4": {name: "steady4", n: 4, f: 1, txSize: 256, rate: 4000, warmup: time.Second, incarnations: 8, restart: true},
	// Sixteen nodes on two cores spend 0.3 CPU-s on an epoch before it
	// carries a byte, so at the default 100 ms timer they run flat out at
	// ~2 epochs/s whatever the load. A 1 s timer paces them at one epoch
	// a second, leaves the cores half idle and makes the latency mostly
	// timer.
	"bulk16": {name: "bulk16", n: 16, f: 5, txSize: 32 << 10, rate: 48, batchDelay: time.Second, warmup: 3 * time.Second, incarnations: 3},
}

const (
	mempoolBytes = 8 << 20
	retainEpochs = 256
	drainLimit   = 10 * time.Second
	txMagic      = 0x646c6231 // "dlb1": marks a transaction as generated here
	txHeader     = 9          // magic, connection, sequence
	// submitters bounds the goroutines that sit in dlclient.Submit waiting
	// for receipts, per connection: enough that a stall of the gateway
	// (an fsync on a slow disk) delays receipts, not the schedule.
	submitters = 4096
	// commitBuffer is the client's commit channel: a full one drops
	// commits, which the run would count as failed transactions.
	commitBuffer = 16384
)

// slot is one delivered block as the correctness gate records it: where
// it sits in the log and a hash of its transactions.
type slot struct {
	epoch    uint64
	proposer int
	txs      int
	hash     uint64
}

// nodeLog consumes one node's Deliveries() into a per-slot hash log.
type nodeLog struct {
	seed  maphash.Seed
	slots []slot
	stop  chan struct{}
	done  chan struct{}
	// following is touched only by the goroutine that boots, gates and
	// closes the cluster.
	following bool

	// Only the reference node (node 0) fills these: the duplicate check
	// over generated transactions and the block-shape samples that size
	// the layer replays.
	reference  bool
	seen       [256][]uint64 // per connection: a bit per sequence number
	duplicates int
	blockBytes []float64
	blockTxs   []float64
}

func (l *nodeLog) record(d dledger.Delivery) {
	var h maphash.Hash
	h.SetSeed(l.seed)
	payload := 0
	for _, tx := range d.Txs {
		h.Write(tx)
		h.WriteByte(0)
		payload += len(tx)
		if l.reference && len(tx) >= txHeader && binary.BigEndian.Uint32(tx) == txMagic {
			bits, seq := &l.seen[tx[4]], binary.BigEndian.Uint32(tx[5:])
			for int(seq/64) >= len(*bits) {
				*bits = append(*bits, 0)
			}
			if (*bits)[seq/64]&(1<<(seq%64)) != 0 {
				l.duplicates++
			}
			(*bits)[seq/64] |= 1 << (seq % 64)
		}
	}
	l.slots = append(l.slots, slot{d.Epoch, d.Proposer, len(d.Txs), h.Sum64()})
	if l.reference && len(d.Txs) > 0 {
		l.blockBytes = append(l.blockBytes, float64(payload))
		l.blockTxs = append(l.blockTxs, float64(len(d.Txs)))
	}
}

// follow starts consuming node's deliveries until halt.
func (l *nodeLog) follow(node *dledger.Node) {
	l.following = true
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	go func() {
		defer close(l.done)
		for {
			select {
			case d := <-node.Deliveries():
				l.record(d)
			case <-l.stop:
				return
			}
		}
	}()
}

// halt stops the consumer; the slots are then safe to read.
func (l *nodeLog) halt() {
	if !l.following {
		return
	}
	l.following = false
	close(l.stop)
	<-l.done
}

// drain records what the node has queued and nobody consumed. After a
// halt and the node's Close it completes the log: those blocks were
// persisted before they were queued, a reopened node never re-delivers
// them, and dropping them would punch a hole in the log that the gate
// would report as divergence.
func (l *nodeLog) drain(node *dledger.Node) {
	for {
		select {
		case d := <-node.Deliveries():
			l.record(d)
		default:
			return
		}
	}
}

// liveCluster is one incarnation of a live workload's cluster.
type liveCluster struct {
	spec   liveSpec
	traced bool
	dir    string
	addrs  []string
	keys   []*dledger.Keyring
	secret []byte
	nodes  []*dledger.Node
	logs   []*nodeLog
	conns  []*conn
	start  time.Time

	// marks is the cluster's epoch clock as the clients see it: one entry
	// when the first commit of a newer epoch arrives on any connection.
	newest atomic.Uint64
	markMu sync.Mutex
	marks  []epochMark
}

// epochMark is the arrival of a new epoch's first commit: when, and the
// process CPU time at that moment.
type epochMark struct {
	at  int64 // ns since cluster start
	cpu float64
}

// observe notes a commit of the given epoch.
func (c *liveCluster) observe(epoch uint64, at int64) {
	if epoch <= c.newest.Load() {
		return
	}
	c.markMu.Lock()
	if epoch > c.newest.Load() {
		c.newest.Store(epoch)
		c.marks = append(c.marks, epochMark{at, cpuSeconds()})
	}
	c.markMu.Unlock()
}

// epochWindow narrows [tA, tB) to the first and the last epoch mark
// inside it. Commits arrive in one burst per epoch, so a window with
// fixed edges gains or loses a whole burst by chance (a tenth of a
// bulk16 incarnation); between two marks the count and the CPU time
// belong to whole epochs. With fewer than two marks the fixed window
// stands.
func (c *liveCluster) epochWindow(tA, tB int64, cpuA, cpuB float64) (int64, int64, float64) {
	c.markMu.Lock()
	defer c.markMu.Unlock()
	var first, last *epochMark
	for i := range c.marks {
		if m := &c.marks[i]; m.at >= tA && m.at < tB {
			if first == nil {
				first = m
			}
			last = m
		}
	}
	if first == nil || first == last {
		return tA, tB, cpuB - cpuA
	}
	return first.at, last.at, last.cpu - first.cpu
}

func (c *liveCluster) nodeOptions(i int, ln net.Listener) dledger.NodeOptions {
	return dledger.NodeOptions{
		Config: dledger.Config{
			N: c.spec.n, F: c.spec.f,
			CoinSecret:   c.secret,
			BatchDelay:   c.spec.batchDelay,
			RetainEpochs: retainEpochs,
			MempoolBytes: mempoolBytes,
			StateSync:    true,
			Telemetry:    c.traced,
			DataDir:      filepath.Join(c.dir, fmt.Sprintf("node-%d", i)),
		},
		Self:       i,
		Addrs:      c.addrs,
		Listener:   ln,
		Keys:       c.keys[i],
		ClientAddr: "127.0.0.1:0",
	}
}

// bootCluster starts the nodes, dials the client connections and waits
// until every connection holds one verified commit.
func bootCluster(spec liveSpec, env *runEnv, incarnation int) (_ *liveCluster, err error) {
	c := &liveCluster{spec: spec, traced: env.traced, start: time.Now()}
	listeners := make([]net.Listener, spec.n)
	defer func() {
		if err != nil {
			for _, ln := range listeners {
				if ln != nil {
					ln.Close() // not yet handed to a node
				}
			}
			c.close()
		}
	}()
	if c.dir, err = os.MkdirTemp(env.dataRoot, spec.name+"-"); err != nil {
		return nil, err
	}
	c.secret = []byte(fmt.Sprintf("bench coin %d/%d", env.seed, incarnation))
	if c.keys, err = dledger.GenerateKeyring(spec.n); err != nil {
		return nil, err
	}
	c.addrs = make([]string, spec.n)
	for i := range listeners {
		if listeners[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		c.addrs[i] = listeners[i].Addr().String()
	}
	seed := maphash.MakeSeed()
	c.nodes = make([]*dledger.Node, spec.n)
	c.logs = make([]*nodeLog, spec.n)
	for i := range c.nodes {
		if c.nodes[i], err = dledger.NewTCPNode(c.nodeOptions(i, listeners[i])); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		listeners[i] = nil
		c.logs[i] = &nodeLog{seed: seed, reference: i == 0}
		c.logs[i].follow(c.nodes[i])
	}
	for k := 0; k < env.connections; k++ {
		cn, err := dialConn(c, k, env, incarnation)
		if err != nil {
			return nil, err
		}
		c.conns = append(c.conns, cn)
	}
	// One verified commit per connection: the cluster is serving.
	errs := make(chan error, len(c.conns))
	for _, cn := range c.conns {
		go func(cn *conn) {
			tx := cn.makeTx(0)
			cm, err := cn.cl.SubmitAndWait(tx, 30*time.Second)
			if err == nil && !cm.Verify(tx) {
				err = fmt.Errorf("connection %d: first commit proof does not verify", cn.id)
			}
			errs <- err
		}(cn)
	}
	for range c.conns {
		if e := <-errs; e != nil && err == nil {
			err = fmt.Errorf("first commit: %w", e)
		}
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// close stops clients, log consumers and nodes and removes the data
// directory. It is safe on a partly built cluster.
func (c *liveCluster) close() {
	for _, cn := range c.conns {
		cn.cl.Close()
		<-cn.consumed
	}
	// Concurrently: a node's Close waits out its writers' redial back-off
	// towards peers that are already gone, a second or two per node.
	var wg sync.WaitGroup
	for i, node := range c.nodes {
		if node == nil {
			continue
		}
		c.logs[i].halt()
		wg.Add(1)
		go func() {
			defer wg.Done()
			node.Close()
		}()
	}
	wg.Wait()
	os.RemoveAll(c.dir)
}

// txRec is one committed transaction's timing, in nanoseconds since the
// cluster's start.
type txRec struct {
	due, commit int64
}

// conn is one client connection with its share of the load.
type conn struct {
	id      int
	c       *liveCluster
	cl      *dlclient.Client
	pad     []byte
	rng     *rand.Rand
	stopped atomic.Bool

	seq       atomic.Uint32
	submitted atomic.Int64
	rejected  atomic.Int64
	errors    atomic.Int64

	mu        sync.Mutex
	inflight  map[mempool.Hash]txRec
	recs      []txRec
	receiptUs []float64 // traced: sampled submit→receipt
	consumed  chan struct{}
}

func dialConn(c *liveCluster, k int, env *runEnv, incarnation int) (*conn, error) {
	cl, err := dlclient.Dial(c.nodes[k].ClientAddr(), dlclient.Options{
		Name:         fmt.Sprintf("bench-%d", k),
		CommitBuffer: commitBuffer,
	})
	if err != nil {
		return nil, fmt.Errorf("dial gateway %d: %w", k, err)
	}
	cn := &conn{
		id: k, c: c, cl: cl,
		pad:      env.pad,
		rng:      rand.New(rand.NewSource(env.seed*1_000_003 + int64(incarnation)*7919 + int64(k))),
		inflight: map[mempool.Hash]txRec{},
		consumed: make(chan struct{}),
	}
	go cn.consume()
	return cn, nil
}

// makeTx builds transaction seq of this connection: a header that makes
// its content unique (the gateway deduplicates by content hash), then
// padding cut from the seeded pad at a sequence-dependent offset.
func (cn *conn) makeTx(seq uint32) []byte {
	tx := make([]byte, cn.c.spec.txSize)
	binary.BigEndian.PutUint32(tx, txMagic)
	tx[4] = byte(cn.id)
	binary.BigEndian.PutUint32(tx[5:], seq)
	off := int(uint64(seq) * 7919 % uint64(len(cn.pad)-len(tx)))
	copy(tx[txHeader:], cn.pad[off:])
	return tx
}

func (cn *conn) now() int64 { return int64(time.Since(cn.c.start)) }

// submit sends one transaction that was due at `due` and accounts for
// its receipt.
func (cn *conn) submit(due int64) {
	seq := cn.seq.Add(1)
	tx := cn.makeTx(seq)
	hash := mempool.HashTx(tx)
	sent := cn.now()
	// Registered before the submission leaves: the commit can overtake
	// the receipt on the wire.
	cn.mu.Lock()
	cn.inflight[hash] = txRec{due: due}
	cn.mu.Unlock()
	cn.submitted.Add(1)
	rc, err := cn.cl.Submit(tx)
	if err == nil && rc.Status == dlclient.StatusAccepted {
		if cn.c.traced && seq%16 == 0 {
			us := float64(cn.now()-sent) / 1e3
			cn.mu.Lock()
			cn.receiptUs = append(cn.receiptUs, us)
			cn.mu.Unlock()
		}
		return
	}
	if err != nil {
		cn.errors.Add(1)
	} else {
		cn.rejected.Add(1)
	}
	cn.mu.Lock()
	delete(cn.inflight, hash)
	cn.mu.Unlock()
}

// consume matches the verified commit stream against what was sent.
// dlclient has already checked every proof it delivers here.
func (cn *conn) consume() {
	defer close(cn.consumed)
	for cm := range cn.cl.Commits() {
		at := cn.now()
		cn.c.observe(cm.Epoch, at)
		cn.mu.Lock()
		rec, ok := cn.inflight[cm.TxHash]
		if ok {
			delete(cn.inflight, cm.TxHash)
			rec.commit = at
			cn.recs = append(cn.recs, rec)
		}
		cn.mu.Unlock() // !ok: the boot probe, or a proof streamed twice
	}
}

func (cn *conn) outstanding() int {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return len(cn.inflight)
}

// run submits on a schedule of absolute due times until the connection
// is stopped: a late wake-up does not push later arrivals back, and each
// transaction is timed from when it was due, so a stall is charged to
// every arrival it delayed. Arrivals are 1/rate apart give or take a
// seeded half of that: independent enough not to lock onto the nodes'
// timers, while the number due in a window has a twelfth of the variance
// Poisson arrivals would give it (bulk16 has ~300 in an incarnation:
// ±6% in the offered load, and so in committed_mb_s). How late each
// arrival due in the measured window [tA, tB) was handed to the client
// goes to late.
func (cn *conn) run(wg *sync.WaitGroup, rate float64, tA, tB int64, late *[]float64, lateMu *sync.Mutex) {
	// Room for half a second of arrivals, so a brief gateway stall delays
	// submissions (and is reported as lateness) instead of blocking the
	// schedule itself.
	jobs := make(chan int64, int(rate/2)+1)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for due := range jobs {
				if due >= tA && due < tB {
					mine = append(mine, float64(cn.now()-due)/1e6)
				}
				cn.submit(due)
			}
			lateMu.Lock()
			*late = append(*late, mine...)
			lateMu.Unlock()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		mean := float64(time.Second) / rate
		due := cn.now()
		for !cn.stopped.Load() {
			if wait := due - cn.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			jobs <- due
			due += int64((0.5 + cn.rng.Float64()) * mean)
		}
	}()
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stolenSeconds is the time the hypervisor has so far run something else
// while a CPU of this machine had work, or 0 where the kernel does not
// say.
func stolenSeconds() float64 {
	stat, _ := os.ReadFile("/proc/stat")
	return parseStolen(string(stat))
}

// parseStolen reads the steal column of /proc/stat's first line, the sum
// over the CPUs in ticks of 1/100 s.
func parseStolen(stat string) float64 {
	line, _, _ := strings.Cut(stat, "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(fields[8], 64)
	return ticks / 100
}

// stealLimit is the share of the machine's CPU time that may be stolen
// during an incarnation before its timings are set aside and the
// incarnation is repeated. A quiet hour of the sandbox steals 0.1–0.3%;
// its noisy minutes steal 5–10%, which moves steady4's p50 by a tenth
// and more, and the worst 35–45%, which triples it (see README).
const stealLimit = 0.02

// timings is what the measured windows of a set of incarnations gave:
// one entry per incarnation, of which the run reports the median.
type timings struct {
	txPerS   []float64 // verified commits per second
	cpuPerTx []float64 // process CPU-seconds per verified commit
	p50      []float64 // ms, due to verified commit
	window   float64   // measured seconds, all incarnations
	// latencies pools the transactions due inside the measured windows
	// (ms), for the tail percentiles of the layer metrics.
	latencies []float64
	late      []float64 // ms, generator lateness
}

// liveTotals pools what the incarnations of one run measured.
type liveTotals struct {
	setups []float64 // seconds per boot
	// timings are those of the incarnations the host left alone; stolen
	// those of the others, which stand in only when none was left alone.
	timings
	stolen      timings
	stolenShare []float64 // per incarnation, share of the CPUs' time
	attempted   int64
	failed      int64 // attempted that never got a verified commit
	rejected    int64 // of those, refused by the gateway
	errored     int64 // of those, Submit returned an error
	violations  []string
	blockBytes  []float64
	blockTxs    []float64
	before      *snapshot // traced: counters around the measured window
	after       *snapshot
	sampled     *sampler
	receiptUs   []float64
	driftMs     float64
	catchupS    float64
	profile     []byte // traced: CPU profile of the measured window
}

// runLive runs the incarnations of a live workload, splitting the
// measured time between them. An incarnation the hypervisor stole more
// than stealLimit from is repeated, half as many times again at most:
// the driver's time for all runs is fixed, and an hour that is stolen
// throughout cannot be waited out.
func runLive(spec liveSpec, env *runEnv, measured time.Duration) (*liveTotals, error) {
	tot := &liveTotals{}
	measure := measured / time.Duration(spec.incarnations)
	most := spec.incarnations + (spec.incarnations+1)/2
	for k := 0; k < most && len(tot.p50) < spec.incarnations; k++ {
		if err := runIncarnation(spec, env, k, measure, tot); err != nil {
			return nil, err
		}
	}
	if len(tot.p50) == 0 {
		tot.timings = tot.stolen
	}
	return tot, nil
}

func runIncarnation(spec liveSpec, env *runEnv, k int, measure time.Duration, tot *liveTotals) error {
	c, err := bootCluster(spec, env, k)
	if err != nil {
		return err
	}
	defer c.close()
	tot.setups = append(tot.setups, time.Since(c.start).Seconds())

	// The warm-up shrinks with very short runs (the smoke tests).
	warmup := min(spec.warmup, time.Duration(env.seconds)*time.Second/4)
	tA := int64(time.Since(c.start) + warmup)
	tB := tA + int64(measure)
	var wg sync.WaitGroup
	var lateMu sync.Mutex
	var late []float64
	stolen0 := stolenSeconds()
	for _, cn := range c.conns {
		cn.run(&wg, spec.rate/float64(len(c.conns)), tA, tB, &late, &lateMu)
	}
	var polled *sampler
	time.Sleep(time.Duration(tA) - time.Since(c.start))
	var profile bytes.Buffer
	if env.traced {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return err
		}
		polled = startSampler(c)
	}
	before := c.snapshot()
	cpu0 := cpuSeconds()
	time.Sleep(time.Duration(tB) - time.Since(c.start))
	cpu1 := cpuSeconds()
	after := c.snapshot()
	share := (stolenSeconds() - stolen0) / ((time.Duration(tB).Seconds() - tot.setups[len(tot.setups)-1]) * float64(runtime.NumCPU()))
	tot.stolenShare = append(tot.stolenShare, share)
	t := &tot.timings
	if share > stealLimit {
		t = &tot.stolen
	}
	if env.traced {
		pprof.StopCPUProfile()
		tot.profile = profile.Bytes()
		polled.stop()
	}
	if env.traced && spec.restart {
		tot.catchupS, err = c.restartLast(env)
		if err != nil {
			return err
		}
	}
	for _, cn := range c.conns {
		cn.stopped.Store(true)
	}
	wg.Wait()
	deadline := time.Now().Add(drainLimit)
	for time.Now().Before(deadline) {
		left := 0
		for _, cn := range c.conns {
			left += cn.outstanding()
		}
		if left == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	wA, wB, cpu := c.epochWindow(tA, tB, cpu0, cpu1)
	t.window += float64(wB-wA) / 1e9
	t.late = append(t.late, late...)
	var inWindow []txRec
	var commits float64
	var latencies []float64
	for _, cn := range c.conns {
		cn.mu.Lock()
		for _, r := range cn.recs {
			if r.commit >= wA && r.commit < wB {
				commits++
			}
			if r.due >= tA && r.due < tB {
				inWindow = append(inWindow, r)
				latencies = append(latencies, float64(r.commit-r.due)/1e6)
			}
		}
		committed := int64(len(cn.recs))
		tot.receiptUs = append(tot.receiptUs, cn.receiptUs...)
		cn.mu.Unlock()
		tot.attempted += cn.submitted.Load()
		tot.failed += cn.submitted.Load() - committed
		tot.rejected += cn.rejected.Load()
		tot.errored += cn.errors.Load()
		if f := cn.cl.VerifyFailures(); f > 0 {
			tot.violations = append(tot.violations, fmt.Sprintf("connection %d: %d commit proofs failed verification", cn.id, f))
		}
	}
	if commits == 0 {
		return errors.New("no transaction committed inside the measured window")
	}
	p50, err := percentile(latencies, 50)
	if err != nil {
		return err
	}
	t.txPerS = append(t.txPerS, commits/(float64(wB-wA)/1e9))
	t.cpuPerTx = append(t.cpuPerTx, cpu/commits)
	t.p50 = append(t.p50, p50)
	t.latencies = append(t.latencies, latencies...)
	if env.traced {
		tot.driftMs = drift(inWindow)
		tot.before, tot.after, tot.sampled = before, after, polled
	}
	tot.violations = append(tot.violations, c.gate()...)
	tot.blockBytes = append(tot.blockBytes, c.logs[0].blockBytes...)
	tot.blockTxs = append(tot.blockTxs, c.logs[0].blockTxs...)
	return nil
}

// gate is the correctness check of one incarnation: every node's log is
// a prefix of the reference node's (same slots, same transactions, same
// order), no generated transaction was delivered twice, no delivery was
// dropped before it could be checked and no durable write failed. It
// stops the log consumers and judges what they recorded; the cluster is
// closed next.
func (c *liveCluster) gate() []string {
	var out []string
	logs := make([][]slot, len(c.nodes))
	for i, node := range c.nodes {
		c.logs[i].halt()
		c.logs[i].drain(node)
		logs[i] = c.logs[i].slots
		st := node.Stats()
		if st.DroppedDeliveries > 0 {
			out = append(out, fmt.Sprintf("node %d: %d deliveries dropped before the gate saw them", i, st.DroppedDeliveries))
		}
		if st.StoreErrors > 0 {
			out = append(out, fmt.Sprintf("node %d: %d durable writes failed", i, st.StoreErrors))
		}
		if g := st.Gateway; g.CommitsDropped > 0 {
			out = append(out, fmt.Sprintf("node %d: gateway dropped %d commits on a full subscriber buffer", i, g.CommitsDropped))
		}
	}
	if d := c.logs[0].duplicates; d > 0 {
		out = append(out, fmt.Sprintf("node 0: %d transactions delivered twice", d))
	}
	if len(logs[0]) == 0 {
		out = append(out, "node 0 delivered nothing")
	}
	for i := 1; i < len(logs); i++ {
		n := len(logs[i])
		if len(logs[0]) < n {
			n = len(logs[0])
		}
		for k := 0; k < n; k++ {
			if logs[i][k] != logs[0][k] {
				out = append(out, fmt.Sprintf("agreement: nodes 0 and %d diverge at log position %d: %+v vs %+v", i, k, logs[0][k], logs[i][k]))
				break
			}
		}
	}
	return out
}

// restartLast closes the last node for a tenth of --seconds,
// reopens its DataDir while the load continues, and returns how long
// after NewTCPNode returned the node was again within two epochs of
// node 0. Its log keeps appending to the same nodeLog, so the gate
// checks the reopened node continues exactly where it stopped.
func (c *liveCluster) restartLast(env *runEnv) (float64, error) {
	last := len(c.nodes) - 1
	c.logs[last].halt()
	c.nodes[last].Close()
	c.logs[last].drain(c.nodes[last])
	c.nodes[last] = nil
	time.Sleep(time.Duration(env.seconds) * time.Second / 10)
	ln, err := net.Listen("tcp", c.addrs[last])
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	node, err := dledger.NewTCPNode(c.nodeOptions(last, ln))
	if err != nil {
		ln.Close()
		return 0, fmt.Errorf("restart: %w", err)
	}
	back := time.Now()
	c.nodes[last] = node
	c.logs[last].follow(node)
	const limit = 10 * time.Second
	for time.Since(back) < limit {
		if c.nodes[0].Stats().EpochsDelivered-node.Stats().EpochsDelivered <= 2 {
			return time.Since(back).Seconds(), nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "bench: restarted node %d not caught up after %v\n", last, limit)
	return limit.Seconds(), nil
}

// drift is the latency median of the last quarter of the window minus
// that of the first quarter, in ms: a queue that grows shows here before
// it shows in a pooled percentile.
func drift(recs []txRec) float64 {
	if len(recs) < 80 {
		return 0
	}
	lo, hi := recs[0].due, recs[0].due
	for _, r := range recs {
		if r.due < lo {
			lo = r.due
		}
		if r.due > hi {
			hi = r.due
		}
	}
	q := (hi - lo) / 4
	var first, last []float64
	for _, r := range recs {
		ms := float64(r.commit-r.due) / 1e6
		switch {
		case r.due < lo+q:
			first = append(first, ms)
		case r.due >= hi-q:
			last = append(last, ms)
		}
	}
	return percentileOrZero(last, 50) - percentileOrZero(first, 50)
}
