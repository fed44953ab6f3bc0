package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/replica"
	"dledger/internal/store"
	"dledger/internal/wire"
	"dledger/internal/workload"
)

// tcpCluster is every node of one loopback mesh.
type tcpCluster []*TCPNode

// newTCPCluster builds all tmpl.Core.N nodes from one option template on
// pre-bound loopback listeners, so every real port is known before any
// node dials. A template without a CoinSecret gets one, and every node
// its keyring. each, when set, adjusts node i's options: its store,
// OnDeliver, keys or connection wrapper. The cluster is closed when the
// test ends.
func newTCPCluster(t *testing.T, tmpl TCPOptions, each func(i int, o *TCPOptions)) tcpCluster {
	t.Helper()
	if tmpl.Core.CoinSecret == nil {
		tmpl.Core.CoinSecret = []byte("tcp test secret")
	}
	listeners := make([]net.Listener, tmpl.Core.N)
	tmpl.Addrs = make([]string, tmpl.Core.N)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], tmpl.Addrs[i] = ln, ln.Addr().String()
	}
	keys := testKeys(t, tmpl.Core.N, 1)
	var c tcpCluster
	t.Cleanup(func() { c.Close() })
	for i, ln := range listeners {
		opts := tmpl
		opts.Self, opts.Listener, opts.Keys = i, ln, keys[i]
		if each != nil {
			each(i, &opts)
		}
		n, err := NewTCPNode(opts)
		if err != nil {
			t.Fatal(err)
		}
		c = append(c, n)
	}
	return c
}

func (c tcpCluster) Close() {
	for _, n := range c {
		n.Close()
	}
}

// positions describes every node's place in the log: its delivered,
// decided and dispersal epochs and whether it is catching up.
func (c tcpCluster) positions() string {
	var b strings.Builder
	for i, n := range c {
		n.Inspect(func(r *replica.Replica) {
			e := r.Engine()
			fmt.Fprintf(&b, "\nnode %d: delivered %d, decided through %d, dispersal %d, catching up %v",
				i, e.DeliveredEpoch(), e.DecidedThrough(), e.DispersalEpoch(), e.CatchingUp())
		})
	}
	return b.String()
}

// waitFor polls cond until it holds; on timeout it fails the test with
// msg and every node's position.
func (c tcpCluster) waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("timeout: " + msg + c.positions())
}

// waitDelivered waits until every node has delivered at least txs
// transactions.
func (c tcpCluster) waitDelivered(t *testing.T, timeout time.Duration, txs int64, msg string) {
	t.Helper()
	c.waitFor(t, timeout, func() bool {
		ok := true
		for _, n := range c {
			n.Inspect(func(r *replica.Replica) { ok = ok && r.Stats.DeliveredTxs >= txs })
		}
		return ok
	}, msg)
}

// epochsDelivered reads node i's delivered-epoch counter.
func (c tcpCluster) epochsDelivered(i int) (epochs int64) {
	c[i].Inspect(func(r *replica.Replica) { epochs = r.Stats.EpochsDelivered })
	return epochs
}

func TestTCPClusterDelivers(t *testing.T) {
	c := newTCPCluster(t, TCPOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeDL},
		Replica: replica.Params{BatchDelay: 20 * time.Millisecond},
	}, nil)
	for i, n := range c {
		for k := 0; k < 5; k++ {
			n.Submit(workload.Make(i, uint32(k), 0, 200))
		}
	}
	c.waitDelivered(t, 30*time.Second, 20, "all TCP nodes deliver all 20 txs")
}

func TestTCPClusterHB(t *testing.T) {
	c := newTCPCluster(t, TCPOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeHB},
		Replica: replica.Params{BatchDelay: 20 * time.Millisecond},
	}, nil)
	for i, n := range c {
		n.Submit(workload.Make(i, 9, 0, 100))
	}
	c.waitDelivered(t, 30*time.Second, 4, "HB over TCP delivers")
}

// TestTCPClusterIdenticalLogs runs the cluster over links that stall
// every read and write by up to 2 ms and requires every node to deliver
// the same transactions in the same order.
func TestTCPClusterIdenticalLogs(t *testing.T) {
	var mu sync.Mutex
	logs := make([][]string, 4)
	c := newTCPCluster(t, TCPOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeDL},
		Replica: replica.Params{BatchDelay: 10 * time.Millisecond},
	}, func(i int, o *TCPOptions) {
		o.Wrap = NewFaultInjector(int64(i), FaultOptions{MaxDelay: 2 * time.Millisecond}).Wrap
		o.OnDeliver = func(d replica.Delivery) {
			mu.Lock()
			for _, tx := range d.Txs {
				logs[i] = append(logs[i], fmt.Sprintf("%d-%d:%x", d.Epoch, d.Proposer, tx[:8]))
			}
			mu.Unlock()
		}
	})
	const perNode = 25
	for i, n := range c {
		for k := 0; k < perNode; k++ {
			n.Submit(workload.Make(i, uint32(k), 0, 128))
		}
	}
	c.waitDelivered(t, 20*time.Second, 4*perNode, "all nodes deliver 100 txs")

	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < 4; i++ {
		if len(logs[i]) != len(logs[0]) {
			t.Fatalf("log lengths differ: %d vs %d", len(logs[i]), len(logs[0]))
		}
		for k := range logs[0] {
			if logs[i][k] != logs[0][k] {
				t.Fatalf("logs diverge at %d: %s vs %s", k, logs[i][k], logs[0][k])
			}
		}
	}
}

func TestTCPClusterInspect(t *testing.T) {
	c := newTCPCluster(t, TCPOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeDL},
		Replica: replica.Params{BatchDelay: 10 * time.Millisecond},
	}, nil)
	c[0].Submit(workload.Make(0, 1, 0, 64))
	c.waitFor(t, 10*time.Second, func() bool {
		var done bool
		c[0].Inspect(func(r *replica.Replica) { done = r.Stats.DeliveredTxs >= 1 })
		return done
	}, "node 0 delivers its tx")
}

// TestTCPNodeValidation: bad options are refused, and a refused node
// closes the listener it was handed. Each node holds a valid keyring, so
// it is refused for the reason named.
func TestTCPNodeValidation(t *testing.T) {
	keys := testKeys(t, 4, 1)
	if _, err := NewTCPNode(TCPOptions{
		Core:  core.Config{N: 4, F: 1, CoinSecret: []byte("s")},
		Self:  9,
		Addrs: []string{"a", "b", "c", "d"},
		Keys:  keys[0],
	}); err == nil {
		t.Fatal("bad Self accepted")
	}
	if _, err := NewTCPNode(TCPOptions{
		Core:  core.Config{N: 4, F: 1},
		Self:  0,
		Addrs: []string{"127.0.0.1:0", "x", "y", "z"},
		Keys:  keys[0],
	}); err == nil {
		t.Fatal("missing coin secret accepted")
	}
	for _, cfg := range []core.Config{
		{N: 4, F: 1},                          // refused by the transport
		{N: 3, F: 1, CoinSecret: []byte("s")}, // refused by the replica
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs := make([]string, cfg.N)
		addrs[0] = ln.Addr().String()
		opts := TCPOptions{Core: cfg, Addrs: addrs, Listener: ln, Keys: testKeys(t, cfg.N, 1)[0]}
		if _, err := NewTCPNode(opts); err == nil {
			t.Fatalf("%+v accepted", cfg)
		}
		if conn, err := net.Dial("tcp", addrs[0]); err == nil {
			conn.Close()
			t.Fatalf("refused node (%+v) left its listener open", cfg)
		}
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	c := newTCPCluster(t, TCPOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeDL},
		Replica: replica.Params{BatchDelay: 20 * time.Millisecond},
	}, nil)
	for _, n := range c {
		n.Close()
		n.Close() // second close must not panic or deadlock
	}
}

// TestCloseDoesNotWaitOutRedialBackoff: a node whose peers are gone
// redials them with a growing back-off, and Close ends those waits at
// once instead of sleeping them out.
func TestCloseDoesNotWaitOutRedialBackoff(t *testing.T) {
	t.Parallel()
	c := newTCPCluster(t, TCPOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeDL},
		Replica: replica.Params{BatchDelay: 20 * time.Millisecond},
	}, nil)
	for i, n := range c {
		n.Submit(workload.Make(i, 1, 0, 100))
	}
	c.waitDelivered(t, 30*time.Second, 4, "the cluster delivers before its peers go")
	for _, n := range c[1:] {
		n.Close()
	}
	time.Sleep(5 * time.Second) // long enough for the back-off to reach dialRetryMax
	start := time.Now()
	c[0].Close()
	if took := time.Since(start); took >= 200*time.Millisecond {
		t.Fatalf("Close took %v with every peer gone, want under 200ms", took)
	}
}

// nodeStores is one FileStore per node, each in its own directory.
type nodeStores struct {
	dirs []string
	sts  []*store.FileStore
}

func newStores(t *testing.T, n int) *nodeStores {
	s := &nodeStores{dirs: make([]string, n), sts: make([]*store.FileStore, n)}
	for i := range s.dirs {
		s.dirs[i] = t.TempDir()
	}
	t.Cleanup(s.close)
	s.reopen(t)
	return s
}

// reopen closes every store and opens its directory again: the next
// incarnation recovers what the previous one wrote.
func (s *nodeStores) reopen(t *testing.T) {
	t.Helper()
	s.close()
	for i, dir := range s.dirs {
		st, err := store.OpenFile(store.FileOptions{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		s.sts[i] = st
	}
}

func (s *nodeStores) close() {
	for _, st := range s.sts {
		if st != nil {
			st.Close()
		}
	}
}

// each gives node i the store s.sts[i].
func (s *nodeStores) each(i int, o *TCPOptions) { o.Store = s.sts[i] }

// TestTCPClusterRestartFromStores shuts a whole cluster down and
// rebuilds it over the same stores (with a small checkpoint interval so
// recovery crosses a checkpoint, not just raw WAL replay): the new
// cluster must resume from the recovered log position, not re-deliver,
// and keep delivering.
func TestTCPClusterRestartFromStores(t *testing.T) {
	stores := newStores(t, 4)
	opts := TCPOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeDL},
		Replica: replica.Params{BatchDelay: 10 * time.Millisecond, CheckpointEvery: 2},
	}
	c := newTCPCluster(t, opts, stores.each)
	for i, n := range c {
		for k := 0; k < 10; k++ {
			n.Submit(workload.Make(i, uint32(k), 0, 100))
		}
	}
	// Node 0 delivers all 40 transactions before the counters are read:
	// nothing it delivers afterwards can change the transaction count.
	var before, txsBefore int64
	c.waitFor(t, 20*time.Second, func() bool {
		c[0].Inspect(func(r *replica.Replica) { before, txsBefore = r.Stats.EpochsDelivered, r.Stats.DeliveredTxs })
		return before >= 4 && txsBefore >= 40
	}, "first incarnation delivers every transaction")
	c.Close()

	stores.reopen(t)
	c2 := newTCPCluster(t, opts, stores.each)
	var recovered, recoveredTxs int64
	c2[0].Inspect(func(r *replica.Replica) {
		recovered = r.Stats.EpochsDelivered
		recoveredTxs = r.Stats.DeliveredTxs
	})
	if recovered < before || recoveredTxs != txsBefore {
		t.Fatalf("recovered epochs=%d txs=%d, want >=%d / ==%d", recovered, recoveredTxs, before, txsBefore)
	}
	for i, n := range c2 {
		for k := 0; k < 10; k++ {
			n.Submit(workload.Make(i, uint32(100+k), 0, 100))
		}
	}
	c2.waitFor(t, 20*time.Second, func() bool { return c2.epochsDelivered(0) > recovered },
		"restarted cluster keeps delivering")
}

// TestEpochCounterConsistentAcrossRestarts runs a cluster through three
// incarnations over the same stores (checkpointing every 2 epochs, so
// recovery crosses checkpoint + WAL replay) and checks the recovered
// EpochsDelivered counter always equals the engine's delivered position
// — the counter must be replayed, not re-counted or double-counted.
func TestEpochCounterConsistentAcrossRestarts(t *testing.T) {
	stores := newStores(t, 4)
	opts := TCPOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeDL},
		Replica: replica.Params{BatchDelay: 5 * time.Millisecond, CheckpointEvery: 2},
	}
	for round := 0; round < 3; round++ {
		c := newTCPCluster(t, opts, stores.each)
		for i, n := range c {
			for k := 0; k < 20; k++ {
				n.Submit(workload.Make(i, uint32(round*100+k), 0, 100))
			}
		}
		// 60 s: generous for a correctness (not timing) assertion — under
		// -race with other CPU-heavy packages in parallel, the real-time
		// cluster can be starved well past the usual 20 s.
		c.waitFor(t, 60*time.Second, func() bool { return c.epochsDelivered(0) >= int64(20*(round+1)) },
			fmt.Sprintf("round %d: cluster delivers this round's epochs", round))
		c[0].Inspect(func(r *replica.Replica) {
			if r.Stats.EpochsDelivered != int64(r.Engine().DeliveredEpoch()) {
				t.Errorf("round %d: EpochsDelivered=%d but engine at %d",
					round, r.Stats.EpochsDelivered, r.Engine().DeliveredEpoch())
			}
		})
		c.Close()
		stores.reopen(t)
	}
}

// writeLog records every Write a dispersal-class link's writer hands
// the socket after its handshake, whose one write is the signed hello.
type writeLog struct {
	mu     sync.Mutex
	writes [][]byte
}

type loggedConn struct {
	net.Conn
	log  *writeLog
	n    int // Writes so far: only the link's writer goroutine writes
	high bool
}

func (c *loggedConn) Write(p []byte) (int, error) {
	if c.n++; c.n == 1 {
		c.high = len(p) == helloSize && p[6] == classHigh
	}
	if c.high && c.n > 1 {
		c.log.mu.Lock()
		c.log.writes = append(c.log.writes, append([]byte(nil), p...))
		c.log.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// TestTurnFlushesInOneWrite: the frames one loop turn sends a peer
// reach the writer together, at the turn's end, so they go out in one
// write, not in as many pieces as the writer happened to wake for.
func TestTurnFlushesInOneWrite(t *testing.T) {
	log := &writeLog{}
	node, peer := handDrivenNode(t, "one turn secret", func(c net.Conn) net.Conn {
		return &loggedConn{Conn: c, log: log}
	})
	c, _ := acceptDispersal(t, peer, 0)
	defer c.Close()

	const frames, marker = 50, 1 << 40
	isMarked := func(frame []byte) bool {
		env, err := wire.Decode(frame)
		return err == nil && env.Epoch >= marker
	}
	// The sends are spaced out the way a turn's engine steps space them,
	// so a writer woken per frame would find the burst in pieces.
	node.loop.post(func() {
		for i := 0; i < frames; i++ {
			env := wire.Envelope{Epoch: marker + uint64(i), Payload: wire.GotChunk{}}
			(*tcpCtx)(node).Send(1, env, wire.PrioDispersal, 0)
			time.Sleep(20 * time.Microsecond)
		}
	})
	for got := 0; got < frames; {
		if isMarked(readFrame(t, c)) {
			got++
		}
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	var perWrite []int // marked frames in each write that carried any
	for _, w := range log.writes {
		marked := 0
		for len(w) > 0 {
			if len(w) < 4 || len(w) < 4+int(binary.BigEndian.Uint32(w)) {
				t.Fatalf("a write ends mid-frame")
			}
			size := 4 + int(binary.BigEndian.Uint32(w))
			if isMarked(w[4:size]) {
				marked++
			}
			w = w[size:]
		}
		if marked > 0 {
			perWrite = append(perWrite, marked)
		}
	}
	if len(perWrite) != 1 {
		t.Fatalf("the turn's %d frames went out in %d writes %v, want one", frames, len(perWrite), perWrite)
	}
}
