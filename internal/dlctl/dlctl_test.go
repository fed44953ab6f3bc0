package dlctl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"dledger/internal/telemetry"
)

// fakeNode serves a minimal /statusz for one synthetic node.
func fakeNode(t *testing.T, payload map[string]any) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/statusz" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(payload)
	}))
}

func TestScrapeRejectsSchemaDrift(t *testing.T) {
	srv := fakeNode(t, map[string]any{
		"schema_version": telemetry.StatusSchemaVersion + 1,
		"node":           0,
	})
	defer srv.Close()
	_, err := Scrape(nil, srv.URL)
	if err == nil {
		t.Fatal("Scrape accepted a drifted schema_version")
	}
	if !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("error %q does not name the schema mismatch", err)
	}

	// A missing schema_version (version-0 payload) is drift too.
	old := fakeNode(t, map[string]any{"node": 0})
	defer old.Close()
	if _, err := Scrape(nil, old.URL); err == nil {
		t.Fatal("Scrape accepted a payload without schema_version")
	}
}

// TestScrapeRejectsV1Node is the mixed-version path for the 1→2 schema
// bump: a this-version dlctl pointed at a pre-transaction-tracing node
// (literal version-1 payload) must hard-fail with the upgrade hint, not
// render a cluster whose latency panels are silently empty.
func TestScrapeRejectsV1Node(t *testing.T) {
	srv := fakeNode(t, map[string]any{
		"schema_version": 1,
		"node":           0,
		"config":         map[string]any{"n": 4, "f": 1, "mode": "dl"},
	})
	defer srv.Close()
	_, err := Scrape(nil, srv.URL)
	if err == nil {
		t.Fatal("Scrape accepted a version-1 payload")
	}
	for _, want := range []string{"schema version 1", "speaks 2", "upgrade the older side"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestScrapeRejectsNonJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintln(w, "<html>login page</html>")
	}))
	defer srv.Close()
	if _, err := Scrape(nil, srv.URL); err == nil {
		t.Fatal("Scrape accepted a non-JSON response")
	}
}

func TestReportLaggardsLinksAndPaths(t *testing.T) {
	ms := time.Millisecond
	mkTimeline := func(epoch uint64, e2e time.Duration) telemetry.Timeline {
		tl := telemetry.Timeline{Epoch: epoch}
		tl.T[telemetry.StageDisperseStart] = 0
		tl.Have |= 1 << telemetry.StageDisperseStart
		tl.T[telemetry.StageDisperseDone] = e2e / 2
		tl.Have |= 1 << telemetry.StageDisperseDone
		tl.T[telemetry.StageDeliver] = e2e
		tl.Have |= 1 << telemetry.StageDeliver
		tl.Peers = []telemetry.PeerSpan{{Peer: 1, Event: telemetry.PeerEcho, At: e2e / 2}}
		return tl
	}
	status := func(node int, delivered uint64, tls []telemetry.Timeline) *Status {
		st := &Status{Addr: fmt.Sprintf("n%d:1", node), SchemaVersion: telemetry.StatusSchemaVersion, Node: node}
		st.Config.N, st.Config.F, st.Config.Mode, st.Config.RetainEpochs = 4, 1, "dl", 8
		st.Position.DeliveredEpoch = delivered
		st.Timelines = tls
		raw := func(v any) json.RawMessage {
			b, _ := json.Marshal(v)
			return b
		}
		st.Metrics = map[string]json.RawMessage{
			`dl_transport_peer_acks_total{peer="1"}`:            raw(42),
			`dl_transport_peer_replayed_frames_total{peer="1"}`: raw(3),
			`dl_transport_peer_rtt_us{peer="1"}`:                raw(1500),
			"dl_epochs_delivered_total":                         raw(delivered),
		}
		return st
	}
	sts := []*Status{
		status(0, 20, []telemetry.Timeline{mkTimeline(19, 40*ms), mkTimeline(20, 90*ms)}),
		status(2, 10, nil), // 10 behind with retain 8: past the horizon
	}
	var b strings.Builder
	Report(&b, sts, []error{fmt.Errorf("dlctl: n3:1: HTTP 500")}, 1)
	out := b.String()
	for _, want := range []string{
		"UNREACHABLE",
		"cluster: mode=dl n=4 f=1",
		"node 0 (n0:1): delivered=20",
		"PAST the retain horizon (8)",
		"node 0 -> peer 1: acks=42 replayed=3 rtt=1.5ms",
		"[reconnected: frames were replayed]",
		"slowest epochs (top 1",
		"epoch 20",
		"disperse 45ms @node0 (echo peer 1)",
		"<- slowest",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Top-1 truncation: the faster epoch 19 must be absent.
	if strings.Contains(out, "epoch 19") {
		t.Errorf("report shows more than top-K epochs:\n%s", out)
	}
}

// TestLatencyReport renders the latency view over two synthetic nodes
// and checks the phase table (node-averaged quantiles), the phase sum,
// the queue gauges, and the empty-journeys fallback.
func TestLatencyReport(t *testing.T) {
	raw := func(v any) json.RawMessage {
		b, _ := json.Marshal(v)
		return b
	}
	hist := func(count uint64, p50, p95 float64) json.RawMessage {
		return raw(telemetry.HistogramSnapshot{Count: count, Sum: p50 * float64(count), P50: p50, P95: p95})
	}
	status := func(node int, p50BA float64) *Status {
		st := &Status{Addr: fmt.Sprintf("n%d:1", node), SchemaVersion: telemetry.StatusSchemaVersion, Node: node}
		st.Config.N, st.Config.F, st.Config.Mode = 4, 1, "dl"
		st.Metrics = map[string]json.RawMessage{
			`dl_tx_phase_seconds{phase="mempool_wait"}`: hist(10, 0.050, 0.200),
			`dl_tx_phase_seconds{phase="ba"}`:           hist(10, p50BA, 2*p50BA),
			`dl_tx_phase_seconds{phase="deliver"}`:      hist(10, 0.010, 0.020),
			`dl_queue_mempool_txs{shard="front"}`:       raw(3),
			`dl_queue_mempool_txs{shard="clients"}`:     raw(7),
			"dl_queue_mempool_oldest_age_ms":            raw(150),
			"dl_queue_proposal_fill_pct":                raw(85),
			"dl_queue_retrieval_inflight":               raw(2),
			"dl_queue_ba_inflight":                      raw(4),
			`dl_queue_transport_write{peer="2"}`:        raw(9),
			`dl_queue_transport_write{peer="3"}`:        raw(1),
		}
		return st
	}
	var b strings.Builder
	LatencyReport(&b, []*Status{status(0, 1.0), status(1, 3.0)}, nil, 1)
	out := b.String()
	for _, want := range []string{
		"tx phase decomposition",
		"mempool_wait  count=20",
		"p50=50ms",
		"ba            count=20",
		"p50=2s", // mean of 1s and 3s
		"phase sum",
		"p50=2.06s", // 0.05 + 2.0 + 0.01
		"client-observed commit latency",
		"node 0: mempool front=3 clients=7 oldest=150ms proposal_fill=85% retrieval=2 ba=4",
		"write_q_max=9@peer2",
		"no delivered timelines yet",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("latency view missing %q:\n%s", want, out)
		}
	}
	// admit_wait was never observed: the row must be absent, not zero.
	if strings.Contains(out, "admit_wait") {
		t.Errorf("unobserved phase rendered:\n%s", out)
	}

	b.Reset()
	empty := &Status{Addr: "n0:1", SchemaVersion: telemetry.StatusSchemaVersion}
	empty.Config.N, empty.Config.F, empty.Config.Mode = 4, 1, "dl"
	LatencyReport(&b, []*Status{empty}, nil, 1)
	if !strings.Contains(b.String(), "no sampled journeys finalized yet") {
		t.Errorf("empty-journeys fallback missing:\n%s", b.String())
	}
}

// FuzzDecodeStatus: a /statusz body is whatever the scraped address
// returns. One that decodes must render in both views without panicking,
// however its fields and series disagree with each other.
func FuzzDecodeStatus(f *testing.F) {
	golden, err := os.ReadFile("../harness/testdata/observable/statusz.json")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := decodeStatus("n0:1", bytes.NewReader(golden)); err != nil {
		f.Fatalf("the golden body must reach the renderers: %v", err)
	}
	f.Add(golden)
	f.Add([]byte(`{"schema_version":2,"config":{"n":-1,"f":7},"metrics":{"dl_proposals_total{trigger=\"opened\"}":{}}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := decodeStatus("n0:1", bytes.NewReader(body))
		if err != nil {
			return
		}
		Report(io.Discard, []*Status{st, st}, nil, 3)
		LatencyReport(io.Discard, []*Status{st, st}, nil, 3)
	})
}
