package dispersedledger

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dledger/internal/workload"
)

// TestTCPNodeJoinsViaStateSync boots three of a four-node TCP cluster
// with state sync and a bounded retention horizon, drives it until the
// peers have garbage-collected the early epochs, then starts the fourth
// member for the first time with NodeOptions.Join and an empty datadir.
// The joiner must bootstrap from a peer checkpoint (replaying history
// is impossible — it was pruned), deliver new epochs in agreement with
// a witness, and have its own proposals committed by the cluster.
func TestTCPNodeJoinsViaStateSync(t *testing.T) {
	if testing.Short() {
		t.Skip("join test needs a few seconds of wall clock")
	}
	const n = 4
	dir := t.TempDir()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}

	cfg := Config{
		N: n, F: 1,
		CoinSecret:   []byte("join test secret"),
		BatchDelay:   20 * time.Millisecond,
		RetainEpochs: 24,
		StateSync:    true,
	}

	var mu sync.Mutex
	logs := make([][]string, n)
	keys := testKeyring(t, n)
	nodes := make([]*Node, n)
	start := func(i int, join bool, ln net.Listener) {
		c := cfg
		c.DataDir = filepath.Join(dir, fmt.Sprintf("node-%d", i))
		node, err := NewTCPNode(NodeOptions{
			Config: c, Self: i, Addrs: addrs, Listener: ln, Keys: keys[i], Join: join,
		})
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = node
		go func() {
			for d := range node.Deliveries() {
				mu.Lock()
				logs[i] = append(logs[i], fmt.Sprintf("%d/%d", d.Epoch, d.Proposer))
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n-1; i++ {
		start(i, false, listeners[i])
	}
	defer func() {
		for _, node := range nodes {
			if node != nil {
				node.Close()
			}
		}
	}()

	logLen := func(i int) int {
		mu.Lock()
		defer mu.Unlock()
		return len(logs[i])
	}
	// wait is waitUntil that, on a timeout, also prints every node's
	// delivery counters and where the joiner's log leaves the witness's.
	wait := func(cond func() bool, msg string) {
		t.Helper()
		if !waitFor(60*time.Second, cond) {
			t.Fatalf("timeout: %s\n%s", msg, joinDiagnosis(nodes, logs, &mu, n-1, 1))
		}
	}
	submit := func(peers []int, rounds int) {
		for k := 0; k < rounds; k++ {
			for _, i := range peers {
				if nodes[i] != nil {
					nodes[i].Submit(workload.Make(i, uint32(k), 0, 200))
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Phase 1: run the trio well past the retention horizon, so epochs
	// the absent member would need are pruned everywhere and sync points
	// exist (every 16 delivered epochs by default).
	submit([]int{0, 1, 2}, 40)
	wait(func() bool {
		return nodes[1].Stats().EpochsDelivered >= 2*int64(cfg.RetainEpochs)
	}, "cluster advances past the retention horizon")

	// Phase 2: first boot of node 3, empty datadir, Join set.
	joinFrontier := nodes[1].Stats().EpochsDelivered
	start(n-1, true, listeners[n-1])
	wait(func() bool {
		return nodes[n-1].Stats().StateSyncs >= 1
	}, "joiner completes a checkpoint bootstrap")
	submit([]int{0, 1, 2, 3}, 40)
	wait(func() bool {
		return logLen(n-1) >= 12
	}, "joiner delivers after the bootstrap")

	st := nodes[n-1].Stats()
	if st.StateSyncBytes == 0 {
		t.Error("joiner reports zero state-sync bytes fetched")
	}

	// Agreement in window form: the joiner's whole log must appear as
	// one contiguous run inside the witness's log (the synced-over
	// prefix simply absent). Snapshot the joiner first — the witness log
	// only grows, so every joiner entry must already be visible there
	// shortly after.
	wait(func() bool {
		mu.Lock()
		jl := append([]string(nil), logs[n-1]...)
		wl := append([]string(nil), logs[1]...)
		mu.Unlock()
		if len(jl) == 0 {
			return false
		}
		joined := strings.Join(wl, ",")
		return strings.Contains(joined, strings.Join(jl, ","))
	}, "joiner log re-attaches as a window of the witness log")
	if d := nodes[1].Stats().DroppedDeliveries; d != 0 {
		t.Errorf("witness dropped %d deliveries, so its log has gaps:\n%s", d,
			joinDiagnosis(nodes, logs, &mu, n-1, 1))
	}

	// Full participation: the cluster commits a block the joiner
	// proposed after joining.
	wait(func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range logs[1] {
			var epoch uint64
			var prop int
			fmt.Sscanf(e, "%d/%d", &epoch, &prop)
			if prop == n-1 && epoch > uint64(joinFrontier) {
				return true
			}
		}
		return false
	}, "witness commits a block the joiner proposed")
}

// joinDiagnosis renders every running node's delivery counters and the
// first position where the joiner's log leaves the witness's: the
// joiner's log must appear as one contiguous run inside the witness's.
func joinDiagnosis(nodes []*Node, logs [][]string, mu *sync.Mutex, joiner, witness int) string {
	var b strings.Builder
	for i, node := range nodes {
		if node == nil {
			fmt.Fprintf(&b, "node %d: not started\n", i)
			continue
		}
		st := node.Stats()
		fmt.Fprintf(&b, "node %d: EpochsDelivered=%d StateSyncs=%d DroppedDeliveries=%d\n",
			i, st.EpochsDelivered, st.StateSyncs, st.DroppedDeliveries)
	}
	mu.Lock()
	jl := append([]string(nil), logs[joiner]...)
	wl := append([]string(nil), logs[witness]...)
	mu.Unlock()
	fmt.Fprintf(&b, "joiner log %d entries, witness log %d entries\n", len(jl), len(wl))
	if len(jl) == 0 {
		return b.String()
	}
	start := -1
	for k, e := range wl {
		if e == jl[0] {
			start = k
			break
		}
	}
	if start < 0 {
		fmt.Fprintf(&b, "joiner's first block %s is not in the witness log\n", jl[0])
		return b.String()
	}
	for i, e := range jl {
		switch {
		case start+i >= len(wl):
			fmt.Fprintf(&b, "witness log ends at joiner position %d (joiner has %s)\n", i, e)
			return b.String()
		case wl[start+i] != e:
			fmt.Fprintf(&b, "joiner log leaves the witness's at joiner position %d (witness position %d): joiner %s, witness %s\n",
				i, start+i, e, wl[start+i])
			return b.String()
		}
	}
	fmt.Fprintf(&b, "joiner log is a window of the witness log from witness position %d\n", start)
	return b.String()
}
