package dispersedledger

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dledger/internal/dlctl"
	"dledger/internal/mempool"
	"dledger/internal/telemetry"
)

// sampledTx brute-forces a payload the journey sampler (content-hash
// first byte & 63 == 0) deterministically selects, so the smoke test
// can exercise transaction tracing without submitting 64x the traffic.
func sampledTx(k int) []byte {
	for i := 0; ; i++ {
		tx := []byte(fmt.Sprintf("admin sampled tx %d try %d padding padding", k, i))
		if h := mempool.HashTx(tx); h[0]&63 == 0 {
			return tx
		}
	}
}

// adminGet fetches one admin endpoint and returns the body.
func adminGet(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %q", url, resp.StatusCode, body)
	}
	return string(body), resp
}

// TestAdminEndpoints boots a real 4-node TCP cluster with every node
// serving the operator admin endpoint, pushes traffic through it, and
// scrapes /metrics, /statusz, /healthz, /debug/flightrecorder and
// /debug/pprof over HTTP — the end-to-end check for `dlnode -admin` —
// then runs the dlctl aggregator against all four endpoints and checks
// the admin lifecycle on node close.
func TestAdminEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end TCP admin test needs wall clock")
	}
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
	cfg := Config{
		N: 4, F: 1,
		CoinSecret: []byte("admin e2e secret"),
		BatchDelay: 20 * time.Millisecond,
	}
	keys := testKeyring(t, n)
	nodes := make([]*Node, n)
	var mu sync.Mutex
	delivered := 0
	for i := range nodes {
		opts := NodeOptions{
			Config:    cfg,
			Self:      i,
			Addrs:     addrs,
			Listener:  listeners[i],
			Keys:      keys[i],
			AdminAddr: "127.0.0.1:0", // every node scrapeable, for dlctl
		}
		node, err := NewTCPNode(opts)
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = node
		i := i
		go func() {
			for range node.Deliveries() {
				if i == 0 {
					mu.Lock()
					delivered++
					mu.Unlock()
				}
			}
		}()
	}
	defer func() {
		for _, nd := range nodes {
			if nd != nil {
				nd.Close()
			}
		}
	}()
	if nodes[0].AdminAddr() == "" {
		t.Fatal("node 0 has no admin address")
	}

	// Drive enough traffic that every lifecycle stage fires on node 0,
	// including journey-sampled transactions submitted at node 0 so the
	// tx-phase decomposition has material.
	for k := 0; k < 8; k++ {
		nodes[0].Submit(sampledTx(k))
		for i, nd := range nodes {
			nd.Submit([]byte(fmt.Sprintf("admin tx %d-%d padding padding", i, k)))
		}
		time.Sleep(30 * time.Millisecond)
	}
	waitUntil(t, 30*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered >= 8
	}, "node 0 never delivered 8 blocks")

	base := "http://" + nodes[0].AdminAddr()

	// Journey finalization is asynchronous with the delivery callback;
	// wait until node 0's counter shows completed sampled journeys.
	waitUntil(t, 30*time.Second, func() bool {
		body, _ := adminGet(t, base+"/metrics")
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "dl_tx_journeys_completed_total ") &&
				!strings.HasSuffix(line, " 0") {
				return true
			}
		}
		return false
	}, "node 0 never finalized a sampled tx journey")

	// /healthz: trivially alive.
	if body, _ := adminGet(t, base+"/healthz"); body != "ok\n" {
		t.Fatalf("/healthz body = %q", body)
	}

	// /metrics: Prometheus text with the families every layer registers.
	metrics, resp := adminGet(t, base+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE dl_epochs_delivered_total counter",
		"# TYPE dl_epoch_stage_seconds histogram",
		`dl_epoch_stage_seconds_bucket{stage="e2e",le="+Inf"}`,
		`dl_transport_sent_frames_total{class="dispersal"}`,
		`dl_transport_recv_bytes_total{class="retrieval"}`,
		`dl_tx_confirm_seconds_count{scope="all"}`,
		"dl_txs_delivered_total",
		"dl_mempool_bytes",
		// The transaction-tracing release: sampled journey phases and
		// the queue/backpressure gauge family.
		"# TYPE dl_tx_phase_seconds histogram",
		`dl_tx_phase_seconds_bucket{phase="mempool_wait",le="+Inf"}`,
		`dl_tx_phase_seconds_bucket{phase="ba",le="+Inf"}`,
		"dl_tx_journeys_sampled_total",
		`dl_queue_mempool_txs{shard="front"}`,
		"dl_queue_mempool_oldest_age_ms",
		"dl_queue_proposal_fill_pct",
		"dl_queue_ba_inflight",
		"dl_queue_retrieval_inflight",
		`dl_queue_transport_write{peer="1"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The scraped node really delivered: its counter series is nonzero.
	sawDelivered := false
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "dl_epochs_delivered_total ") &&
			!strings.HasSuffix(line, " 0") {
			sawDelivered = true
		}
	}
	if !sawDelivered {
		t.Error("dl_epochs_delivered_total is zero after 8 deliveries")
	}

	// /statusz: one consistent JSON snapshot with position, mempool,
	// metrics and the slow-epoch breakdown.
	statusz, resp := adminGet(t, base+"/statusz")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/statusz content type %q", ct)
	}
	var status map[string]json.RawMessage
	if err := json.Unmarshal([]byte(statusz), &status); err != nil {
		t.Fatalf("/statusz is not JSON: %v", err)
	}
	for _, key := range []string{"schema_version", "node", "config", "position", "mempool", "sync", "store", "metrics", "slowest_epochs", "inflight_epochs", "timelines", "queues", "tx_phases"} {
		if _, ok := status[key]; !ok {
			t.Errorf("/statusz missing %q", key)
		}
	}
	// The schema-2 panels carry real series, not empty maps.
	var queues map[string]json.RawMessage
	if err := json.Unmarshal(status["queues"], &queues); err != nil || len(queues) == 0 {
		t.Errorf("/statusz queues panel empty (err %v): %s", err, status["queues"])
	}
	if _, ok := queues["dl_queue_ba_inflight"]; !ok {
		t.Errorf("/statusz queues panel missing dl_queue_ba_inflight: %s", status["queues"])
	}
	var phases map[string]telemetry.HistogramSnapshot
	if err := json.Unmarshal(status["tx_phases"], &phases); err != nil {
		t.Fatalf("/statusz tx_phases: %v", err)
	}
	if hs, ok := phases[`dl_tx_phase_seconds{phase="mempool_wait"}`]; !ok || hs.Count == 0 {
		t.Errorf("/statusz tx_phases missing finalized mempool_wait observations: %s", status["tx_phases"])
	}
	var schema int
	if err := json.Unmarshal(status["schema_version"], &schema); err != nil || schema != telemetry.StatusSchemaVersion {
		t.Errorf("/statusz schema_version = %s (err %v), want %d", status["schema_version"], err, telemetry.StatusSchemaVersion)
	}
	var pos struct {
		DeliveredEpoch uint64 `json:"delivered_epoch"`
	}
	if err := json.Unmarshal(status["position"], &pos); err != nil {
		t.Fatalf("/statusz position: %v", err)
	}
	if pos.DeliveredEpoch == 0 {
		t.Error("/statusz position.delivered_epoch is zero after deliveries")
	}
	var slowest []struct {
		Epoch  uint64             `json:"epoch"`
		E2EMs  float64            `json:"e2e_ms"`
		Stages map[string]float64 `json:"stages_ms"`
	}
	if err := json.Unmarshal(status["slowest_epochs"], &slowest); err != nil {
		t.Fatalf("/statusz slowest_epochs: %v", err)
	}
	if len(slowest) == 0 {
		t.Error("/statusz slowest_epochs empty after deliveries")
	} else if slowest[0].E2EMs <= 0 {
		t.Errorf("slowest epoch %d has e2e %.3fms, want > 0", slowest[0].Epoch, slowest[0].E2EMs)
	}

	// pprof is mounted on the admin mux (not the global default mux).
	if body, _ := adminGet(t, base+"/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline returned empty body")
	}

	// The flight recorder journaled the run's protocol events.
	flight, _ := adminGet(t, base+"/debug/flightrecorder")
	if !strings.Contains(flight, "flight recorder:") {
		t.Errorf("/debug/flightrecorder missing header:\n%.400s", flight)
	}
	for _, want := range []string{"vote_cast", "decide", "deliver", "tx_phase", "at=committed"} {
		if !strings.Contains(flight, want) {
			t.Errorf("/debug/flightrecorder missing %q events", want)
		}
	}

	// dlctl smoke: aggregate all four nodes and render the cluster
	// report with joined critical paths.
	adminAddrs := make([]string, n)
	for i, nd := range nodes {
		adminAddrs[i] = nd.AdminAddr()
	}
	sts, errs := dlctl.ScrapeAll(nil, adminAddrs)
	if len(errs) > 0 {
		t.Fatalf("dlctl scrape errors: %v", errs)
	}
	if len(sts) != n {
		t.Fatalf("dlctl scraped %d/%d nodes", len(sts), n)
	}
	var report strings.Builder
	dlctl.Report(&report, sts, errs, 3)
	out := report.String()
	for _, want := range []string{
		"cluster: mode=", "n=4", "positions:", "node 0", "node 3",
		"link health", "acks=",
		"slowest epochs (top 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dlctl report missing %q:\n%s", want, out)
		}
	}
	// The acceptance bar: at least one per-epoch critical path line that
	// names the bottleneck stage and the gating peer.
	if !strings.Contains(out, "<- slowest") {
		t.Errorf("dlctl report names no slowest edge:\n%s", out)
	}
	if !strings.Contains(out, "peer ") {
		t.Errorf("dlctl report attributes no edge to a peer:\n%s", out)
	}

	// dlctl latency smoke: the "where is my latency" view renders a real
	// phase decomposition (with its reconciliation sum), the queue
	// gauges, and the critical-path context off the same scrape.
	var latview strings.Builder
	dlctl.LatencyReport(&latview, sts, errs, 3)
	lout := latview.String()
	for _, want := range []string{
		"tx phase decomposition",
		"mempool_wait", "ba", "deliver",
		"phase sum",
		"client-observed commit latency",
		"queues (backpressure gauges, per node)",
		"node 0: mempool front=",
		"slowest epochs (top 3",
	} {
		if !strings.Contains(lout, want) {
			t.Errorf("dlctl latency view missing %q:\n%s", want, lout)
		}
	}

	// Lifecycle: closing a node must tear down its admin endpoint — the
	// port refuses connections and is immediately rebindable.
	closedAdmin := nodes[3].AdminAddr()
	nodes[3].Close()
	nodes[3] = nil
	if _, err := net.DialTimeout("tcp", closedAdmin, 500*time.Millisecond); err == nil {
		t.Error("closed node's admin port still accepts connections")
	}
	if l, err := net.Listen("tcp", closedAdmin); err != nil {
		t.Errorf("closed node's admin port not rebindable: %v", err)
	} else {
		l.Close()
	}
}
