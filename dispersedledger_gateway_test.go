package dispersedledger

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dledger/dlclient"
)

// startGatewayCluster boots a 4-node TCP cluster with client gateways,
// returning the nodes and their client addresses.
func startGatewayCluster(t *testing.T, cfg Config) ([]*Node, []string) {
	t.Helper()
	const n = 4
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	keys := testKeyring(t, n)
	nodes := make([]*Node, n)
	clientAddrs := make([]string, n)
	for i := range nodes {
		node, err := NewTCPNode(NodeOptions{
			Config:     cfg,
			Self:       i,
			Addrs:      addrs,
			Listener:   listeners[i],
			Keys:       keys[i],
			ClientAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		clientAddrs[i] = node.ClientAddr()
		go func() { // drain deliveries so the channel never backs up
			for range node.Deliveries() {
			}
		}()
	}
	return nodes, clientAddrs
}

// TestGatewayEndToEnd drives a real 4-node TCP cluster through the
// client gateway: every accepted transaction yields a commit proof the
// client library verifies against the block's transaction root, and two
// clients on different nodes observe identical roots for the same slot.
func TestGatewayEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end TCP gateway test needs wall clock")
	}
	nodes, clientAddrs := startGatewayCluster(t, Config{
		N: 4, F: 1,
		CoinSecret: []byte("gateway e2e secret"),
		BatchDelay: 20 * time.Millisecond,
	})
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	cl, err := dlclient.Dial(clientAddrs[0], dlclient.Options{Name: "e2e-client"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if info := cl.Info(); info.N != 4 || info.F != 1 || info.ClientID == 0 {
		t.Fatalf("handshake info = %+v", info)
	}

	const txCount = 16
	commits := make(map[string]dlclient.Commit)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < txCount; k++ {
		tx := []byte(fmt.Sprintf("e2e tx %02d — payload payload", k))
		wg.Add(1)
		go func(tx []byte) {
			defer wg.Done()
			cm, err := cl.SubmitAndWait(tx, 30*time.Second)
			if err != nil {
				t.Errorf("submit %q: %v", tx, err)
				return
			}
			if !cm.Verify(tx) {
				t.Errorf("commit proof for %q failed verification", tx)
			}
			mu.Lock()
			commits[string(tx)] = cm
			mu.Unlock()
		}(tx)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(commits) != txCount {
		t.Fatalf("commits = %d, want %d", len(commits), txCount)
	}
	if cl.VerifyFailures() != 0 || cl.Outstanding() != 0 {
		t.Fatalf("verifyFailures=%d outstanding=%d", cl.VerifyFailures(), cl.Outstanding())
	}

	// A second client on another node resubmits one committed tx: it must
	// see duplicate-committed and a proof with the identical root — the
	// commit root of a slot is a deterministic function of the agreed
	// block, the same at every honest node.
	cl2, err := dlclient.Dial(clientAddrs[2], dlclient.Options{Name: "e2e-witness"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	probe := []byte("e2e tx 03 — payload payload")
	want := commits[string(probe)]
	deadline := time.Now().Add(30 * time.Second)
	for {
		cm, err := cl2.SubmitAndWait(probe, 10*time.Second)
		if err == nil {
			if cm.Epoch != want.Epoch || cm.Proposer != want.Proposer || cm.Root != want.Root {
				t.Fatalf("cross-node commit mismatch: %+v vs %+v", cm, want)
			}
			break
		}
		// Node 2 may not have delivered that block yet; retry until the
		// dedup index knows it.
		if time.Now().After(deadline) {
			t.Fatalf("witness node never confirmed the commit: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	s := nodes[0].Stats()
	if s.Gateway.Accepted < txCount {
		t.Fatalf("gateway accepted = %d, want >= %d", s.Gateway.Accepted, txCount)
	}
	if s.Gateway.CommitsStreamed < txCount {
		t.Fatalf("commits streamed = %d, want >= %d", s.Gateway.CommitsStreamed, txCount)
	}
}

// TestGatewayOverload floods one node of an in-process cluster through
// its TCP gateway with a tiny mempool budget: submissions beyond the
// budget are rejected with retry-after hints (counted per cause and in
// the public Stats), and the mempool never grows past the budget.
func TestGatewayOverload(t *testing.T) {
	const budget = 4 << 10
	c, err := NewCluster(Config{
		N: 4, F: 1,
		MempoolBytes: budget,
		// A long batch delay keeps the backlog from draining mid-flood,
		// forcing the admission path to do the bounding.
		BatchDelay: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.ServeClients(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	cl, err := dlclient.Dial(addr, dlclient.Options{Name: "flood", NoSubscribe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var accepted, overCapacity int
	var sawHint time.Duration
	tx := make([]byte, 256)
	for k := 0; k < 100; k++ {
		copy(tx, fmt.Sprintf("flood tx %03d", k))
		rc, err := cl.Submit(bytes.Clone(tx))
		if err != nil {
			t.Fatal(err)
		}
		switch rc.Status {
		case dlclient.StatusAccepted:
			accepted++
		case dlclient.StatusOverCapacity:
			overCapacity++
			if rc.RetryAfter > sawHint {
				sawHint = rc.RetryAfter
			}
		default:
			t.Fatalf("unexpected status %v", rc.Status)
		}
		if k%10 == 9 {
			if s, err := c.Stats(0); err == nil && s.MempoolBytes > budget {
				t.Fatalf("mempool %d grew past the %d budget", s.MempoolBytes, budget)
			}
		}
	}
	if accepted == 0 || overCapacity == 0 {
		t.Fatalf("accepted=%d overCapacity=%d: overload never engaged", accepted, overCapacity)
	}
	if sawHint <= 0 {
		t.Fatal("over-capacity receipts carried no retry-after hint")
	}
	s, err := c.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.RejectedSubmissions != int64(overCapacity) {
		t.Fatalf("Stats.RejectedSubmissions = %d, want %d", s.RejectedSubmissions, overCapacity)
	}
	if s.Gateway.RejectedOverCapacity != int64(overCapacity) || s.Gateway.Accepted != int64(accepted) {
		t.Fatalf("gateway counters = %+v", s.Gateway)
	}
}

// TestGatewayCrashRestartDedup is the crash-restart exactly-once
// scenario: a client commits through a durable node, the node is killed
// and restarted from its datadir, and the client's resubmission is
// answered duplicate-committed with a proof that verifies against the
// recovered log — the ledger commits the content exactly once.
func TestGatewayCrashRestartDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-restart gateway test needs a few seconds of wall clock")
	}
	const n = 4
	dir := t.TempDir()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	cfg := func(i int) Config {
		return Config{
			N: n, F: 1,
			CoinSecret:   []byte("gateway restart secret"),
			BatchDelay:   20 * time.Millisecond,
			DataDir:      filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			MempoolBytes: 1 << 20,
		}
	}
	keys := testKeyring(t, n)
	nodes := make([]*Node, n)
	var witnessMu sync.Mutex
	witnessSeen := map[string]int{} // tx content -> delivery count at node 1
	start := func(i int, ln net.Listener) {
		node, err := NewTCPNode(NodeOptions{
			Config: cfg(i), Self: i, Addrs: addrs, Listener: ln, Keys: keys[i],
			ClientAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = node
		go func() {
			for d := range node.Deliveries() {
				if i == 1 {
					witnessMu.Lock()
					for _, tx := range d.Txs {
						witnessSeen[string(tx)]++
					}
					witnessMu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		start(i, listeners[i])
	}
	defer func() {
		for _, node := range nodes {
			if node != nil {
				node.Close()
			}
		}
	}()

	gwAddr0 := nodes[0].ClientAddr()
	cl, err := dlclient.Dial(gwAddr0, dlclient.Options{Name: "restart-client"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tx := []byte("exactly-once transaction through restart")
	original, err := cl.SubmitAndWait(tx, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Kill node 0 and restart it from its datadir. The gateway port
	// changes (ClientAddr picks a fresh port), so reconnect explicitly.
	nodes[0].Close()
	nodes[0] = nil
	time.Sleep(200 * time.Millisecond)
	start(0, nil)

	cl2, err := dlclient.Dial(nodes[0].ClientAddr(), dlclient.Options{Name: "restart-client"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	// Resubmit the committed transaction: the recovered dedup index must
	// refuse to queue it again and re-prove the original commitment.
	recovered, err := cl2.SubmitAndWait(tx, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Epoch != original.Epoch || recovered.Proposer != original.Proposer ||
		recovered.Root != original.Root || recovered.Index != original.Index {
		t.Fatalf("recovered proof %+v differs from original %+v", recovered, original)
	}
	if !recovered.Verify(tx) {
		t.Fatal("recovered proof failed verification")
	}
	if s := nodes[0].Stats(); s.Gateway.RejectedDuplicate == 0 {
		t.Fatalf("expected a duplicate rejection after restart, got %+v", s.Gateway)
	}

	// Give the cluster a moment, then assert the witness delivered the
	// content exactly once — dedup prevented a second commitment.
	time.Sleep(500 * time.Millisecond)
	witnessMu.Lock()
	count := witnessSeen[string(tx)]
	witnessMu.Unlock()
	if count != 1 {
		t.Fatalf("witness delivered the tx %d times, want exactly 1", count)
	}
}

// TestEveryNodeDeduplicatesAndProves: a zero-Config cluster that serves
// no client port still drops and counts in-process duplicates and
// indexes its commits for proofs, and ServeClients opens a port on it
// whose client gets the committed transaction's proof.
func TestEveryNodeDeduplicatesAndProves(t *testing.T) {
	c, err := NewCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats := func(i int) Stats {
		s, err := c.Stats(i)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tx := []byte("one node shape")
	if err := c.Submit(1, tx); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 30*time.Second, func() bool { return stats(1).Gateway.Commits >= 1 },
		"node 1's hub indexed no commit without a client port")
	if err := c.Submit(1, tx); err != nil {
		t.Fatal(err)
	}
	if s := stats(1); s.RejectedSubmissions != 1 || s.Submitted != 1 {
		t.Fatalf("after a committed duplicate: submitted %d, rejected %d; want 1, 1", s.Submitted, s.RejectedSubmissions)
	}

	addr, err := c.ServeClients(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dlclient.Dial(addr, dlclient.Options{Name: "late client"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cm, err := cl.SubmitAndWait(tx, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !cm.Verify(tx) {
		t.Fatal("proof of an in-process commit failed verification")
	}
	if g := stats(1).Gateway; g.RejectedDuplicate != 1 || g.Accepted != 0 {
		t.Fatalf("gateway counters %+v: want the one duplicate and nothing accepted", g)
	}
}

// TestClientPortAfterRestartKeepsExactlyOnce: a durable cluster commits
// two transactions while it serves no client port, then restarts over
// the same DataDir and serves node 0's port. Resubmitting either one
// there, whether it first went through node 0 or through node 1, reads
// duplicate-committed with a proof, because the first incarnation
// already wrote its transaction hashes to the WAL.
func TestClientPortAfterRestartKeepsExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("restart test needs a few seconds of wall clock")
	}
	cfg := Config{BatchDelay: 20 * time.Millisecond, DataDir: t.TempDir()}
	viaPeer, viaSelf := []byte("first submitted through node 1"), []byte("first submitted through node 0")
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1, viaPeer); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(0, viaSelf); err != nil {
		t.Fatal(err)
	}
	deliveries, err := c.Deliveries(0)
	if err != nil {
		t.Fatal(err)
	}
	for seen, timeout := 0, time.After(30*time.Second); seen < 2; {
		select {
		case d := <-deliveries:
			for _, tx := range d.Txs {
				if bytes.Equal(tx, viaPeer) || bytes.Equal(tx, viaSelf) {
					seen++
				}
			}
		case <-timeout:
			c.Close()
			t.Fatalf("node 0 delivered %d of 2 transactions", seen)
		}
	}
	c.Close()

	if c, err = NewCluster(cfg); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.ServeClients(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dlclient.Dial(addr, dlclient.Options{Name: "resubmitter"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, tx := range [][]byte{viaPeer, viaSelf} {
		rc, err := cl.Submit(tx)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Status != dlclient.StatusDuplicateCommitted {
			t.Fatalf("resubmitted %q after the restart: %v, want duplicate-committed", tx, rc.Status)
		}
		cm, err := cl.SubmitAndWait(tx, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !cm.Verify(tx) {
			t.Fatalf("proof of %q failed verification", tx)
		}
	}
}
