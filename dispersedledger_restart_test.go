package dispersedledger

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dledger/internal/workload"
)

// restartHarness runs a 4-node TCP cluster where every node persists to
// its own datadir, and can kill and resurrect individual nodes.
type restartHarness struct {
	t     *testing.T
	dir   string
	addrs []string
	keys  []*Keyring // one keyring for every incarnation
	nodes []*Node

	mu   sync.Mutex
	logs [][]string // per node: delivered "epoch/proposer" in order
	stop []chan struct{}
	done []chan struct{} // closed when a node's reader goroutine exits
}

func (h *restartHarness) config() Config {
	return Config{
		N: 4, F: 1,
		CoinSecret: []byte("restart test secret"),
		BatchDelay: 20 * time.Millisecond,
	}
}

func (h *restartHarness) startNode(i int, ln net.Listener) {
	h.t.Helper()
	cfg := h.config()
	cfg.DataDir = filepath.Join(h.dir, fmt.Sprintf("node-%d", i))
	node, err := NewTCPNode(NodeOptions{
		Config:   cfg,
		Self:     i,
		Addrs:    h.addrs,
		Listener: ln,
		Keys:     h.keys[i],
	})
	if err != nil {
		h.t.Fatalf("start node %d: %v", i, err)
	}
	h.nodes[i] = node
	stop := make(chan struct{})
	done := make(chan struct{})
	h.stop[i] = stop
	h.done[i] = done
	go func() {
		defer close(done)
		for {
			select {
			case d, ok := <-node.Deliveries():
				if !ok {
					return
				}
				h.mu.Lock()
				h.logs[i] = append(h.logs[i], fmt.Sprintf("%d/%d", d.Epoch, d.Proposer))
				h.mu.Unlock()
			case <-stop:
				return
			}
		}
	}()
}

func (h *restartHarness) killNode(i int) {
	// Stop the reader and wait for it, THEN drain what it left queued:
	// the replica persisted (and externalized) those deliveries before
	// the kill, so the recorded pre-crash log must include them — the
	// restarted node correctly never re-delivers a persisted block, and
	// dropping queued entries here used to punch a spurious hole at the
	// crash boundary that the continuation check reported as divergence.
	close(h.stop[i])
	<-h.done[i]
	node := h.nodes[i]
	node.Close()
	for {
		select {
		case d, ok := <-node.Deliveries():
			if !ok {
				h.nodes[i] = nil
				return
			}
			h.mu.Lock()
			h.logs[i] = append(h.logs[i], fmt.Sprintf("%d/%d", d.Epoch, d.Proposer))
			h.mu.Unlock()
		default:
			h.nodes[i] = nil
			return
		}
	}
}

func (h *restartHarness) logLen(i int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.logs[i])
}

func (h *restartHarness) logCopy(i int) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.logs[i]...)
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	if !waitFor(timeout, cond) {
		t.Fatal("timeout: " + msg)
	}
}

// waitFor polls cond until it holds or timeout passes, and reports
// whether it held.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

// TestTCPNodeCrashRestart kills a FileStore-backed node mid-run, lets the
// cluster advance without it, restarts it from its datadir, and checks it
// (a) recovers its delivered-log position (no block re-delivered, none
// skipped), (b) rejoins and keeps delivering, and (c) its full delivery
// sequence — pre-crash plus post-restart — is a consistent continuation
// of the logs the never-crashed nodes produced.
func TestTCPNodeCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-restart test needs a few seconds of wall clock")
	}
	h := &restartHarness{
		t: t, dir: t.TempDir(),
		addrs: make([]string, 4),
		keys:  testKeyring(t, 4),
		nodes: make([]*Node, 4),
		logs:  make([][]string, 4),
		stop:  make([]chan struct{}, 4),
		done:  make([]chan struct{}, 4),
	}
	// Pre-bind all listeners so every real port is known up front; node 0
	// must restart on the same address, so its port must be reusable.
	listeners := make([]net.Listener, 4)
	for i := range h.addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		h.addrs[i] = ln.Addr().String()
	}
	for i := 0; i < 4; i++ {
		h.startNode(i, listeners[i])
	}
	defer func() {
		for i, n := range h.nodes {
			if n != nil {
				close(h.stop[i])
				n.Close()
			}
		}
	}()

	submit := func(nodes []int, rounds int) {
		for k := 0; k < rounds; k++ {
			for _, i := range nodes {
				if h.nodes[i] != nil {
					h.nodes[i].Submit(workload.Make(i, uint32(k), 0, 200))
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Phase 1: all four nodes run; node 0 delivers a healthy prefix.
	submit([]int{0, 1, 2, 3}, 20)
	waitUntil(t, 30*time.Second, func() bool { return h.logLen(0) >= 12 }, "node 0 builds a pre-crash log")

	// Phase 2: crash node 0; the other three keep deciding epochs.
	h.killNode(0)
	preCrash := h.logCopy(0)
	pre1 := h.logLen(1)
	submit([]int{1, 2, 3}, 30)
	waitUntil(t, 30*time.Second, func() bool { return h.logLen(1) >= pre1+9 }, "cluster advances without node 0")

	// Phase 3: restart node 0 from its datadir (fresh listener on the
	// same address) and give it traffic to deliver.
	h.startNode(0, nil)
	if got := h.nodes[0].Stats().EpochsDelivered; got == 0 {
		t.Fatal("restarted node lost its recovered epoch counter")
	}
	submit([]int{0, 1, 2, 3}, 30)
	target := h.logLen(1)
	waitUntil(t, 60*time.Second, func() bool {
		return h.logLen(0) >= target && h.logLen(0) > len(preCrash)
	}, "restarted node catches up past the crash point")

	// The restarted node must not have re-delivered its pre-crash prefix.
	full0 := h.logCopy(0)
	for k := range preCrash {
		if full0[k] != preCrash[k] {
			t.Fatalf("pre-crash prefix mutated at %d: %s vs %s", k, full0[k], preCrash[k])
		}
	}
	// And pre-crash + post-restart must be a prefix of a healthy node's
	// log: same blocks, same order, nothing skipped or duplicated at the
	// crash boundary.
	log1 := h.logCopy(1)
	if len(full0) > len(log1) {
		full0 = full0[:len(log1)]
	}
	for k := range full0 {
		if full0[k] != log1[k] {
			t.Fatalf("restarted log diverges from node 1 at %d: %s vs %s (crash boundary %d)",
				k, full0[k], log1[k], len(preCrash))
		}
	}
	if len(full0) <= len(preCrash) {
		t.Fatalf("no post-restart deliveries compared (%d <= %d)", len(full0), len(preCrash))
	}

	// The recovered chunk store answers retrievals for pre-crash epochs:
	// node 1..3 delivered blocks proposed by node 0 before the crash, and
	// the restarted node re-served its own and others' chunks to catch
	// itself up — both paths are exercised by the log equality above.
}
