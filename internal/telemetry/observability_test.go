package telemetry

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestHistogramQuantileEdgeCases(t *testing.T) {
	reg := NewRegistry()

	// Empty histogram: every quantile reads zero.
	empty := reg.Histogram("dl_empty_seconds", "", "empty", ExpBuckets(1, 2, 4), 0)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}

	// Single finite bucket: every in-range observation resolves inside
	// [0, bound] and never exceeds the bound.
	single := reg.Histogram("dl_single_seconds", "", "single", []int64{100}, 0)
	single.Observe(40)
	single.Observe(60)
	if got := single.Quantile(1); got != 100 {
		t.Fatalf("single-bucket Quantile(1) = %d, want the bucket bound 100", got)
	}
	if got := single.Quantile(0.5); got <= 0 || got > 100 {
		t.Fatalf("single-bucket Quantile(0.5) = %d, want within (0, 100]", got)
	}

	// Saturated top bucket: observations beyond the last finite bound all
	// land in +Inf, and quantiles clamp to the last finite bound instead
	// of fabricating an unbounded value.
	bounds := ExpBuckets(10, 10, 3) // 10, 100, 1000
	sat := reg.Histogram("dl_sat_seconds", "", "saturated", bounds, 0)
	for i := 0; i < 50; i++ {
		sat.Observe(5_000_000)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := sat.Quantile(q); got != 1000 {
			t.Fatalf("saturated Quantile(%v) = %d, want clamp to last finite bound 1000", q, got)
		}
	}
	if sat.Count() != 50 {
		t.Fatalf("saturated count = %d, want 50", sat.Count())
	}
}

func TestSlowestEpochsOrderingTies(t *testing.T) {
	m := New(Options{TraceRing: 16})
	tr := m.Trace()
	deliver := func(epoch uint64, e2e time.Duration) {
		base := time.Duration(epoch) * time.Second
		observe(m, epoch, StageDisperseStart, base)
		observe(m, epoch, StageDeliver, base+e2e)
	}
	// Epochs 3 and 7 tie at 50ms; epoch 5 is slower; epoch 9 faster.
	deliver(7, 50*time.Millisecond)
	deliver(3, 50*time.Millisecond)
	deliver(5, 80*time.Millisecond)
	deliver(9, 10*time.Millisecond)

	got := tr.SlowestEpochs(4)
	want := []uint64{5, 3, 7, 9} // E2E desc, ties broken by epoch asc
	if len(got) != len(want) {
		t.Fatalf("SlowestEpochs returned %d timelines, want %d", len(got), len(want))
	}
	for i, tl := range got {
		if tl.Epoch != want[i] {
			t.Fatalf("SlowestEpochs order = %v..., want %v (tie must break epoch-ascending)",
				epochsOf(got), want)
		}
	}
	// Truncation keeps the slowest prefix.
	if top := tr.SlowestEpochs(2); len(top) != 2 || top[0].Epoch != 5 || top[1].Epoch != 3 {
		t.Fatalf("SlowestEpochs(2) = %v, want [5 3]", epochsOf(top))
	}
}

func epochsOf(tls []Timeline) []uint64 {
	out := make([]uint64, len(tls))
	for i := range tls {
		out[i] = tls[i].Epoch
	}
	return out
}

func TestObservePeerFirstWinsAndBounds(t *testing.T) {
	m := New(Options{TraceRing: 4})
	tr := m.Trace()
	observePeer(m, 1, PeerEcho, 2, 10*time.Millisecond)
	observePeer(m, 1, PeerEcho, 2, 99*time.Millisecond) // duplicate: first wins
	observePeer(m, 1, PeerVote, 2, 20*time.Millisecond) // same peer, other event
	observePeer(m, 1, PeerEcho, -1, time.Millisecond)   // invalid peer: dropped
	observe(m, 1, StageDisperseStart, 0)
	observe(m, 1, StageDeliver, 50*time.Millisecond)

	got := tr.Delivered()
	if len(got) != 1 {
		t.Fatalf("delivered %d timelines", len(got))
	}
	tl := got[0]
	if at, ok := tl.PeerAt(PeerEcho, 2); !ok || at != 10*time.Millisecond {
		t.Fatalf("PeerAt(echo, 2) = %v %v, want first observation 10ms", at, ok)
	}
	if at, ok := tl.PeerAt(PeerVote, 2); !ok || at != 20*time.Millisecond {
		t.Fatalf("PeerAt(vote, 2) = %v %v", at, ok)
	}
	if len(tl.Peers) != 2 {
		t.Fatalf("timeline has %d peer spans, want 2 (dup and invalid dropped)", len(tl.Peers))
	}

	// The span list is bounded even under a flood of distinct peers.
	for p := 0; p < 3*maxPeerSpans; p++ {
		observePeer(m, 2, PeerRetrieveResp, p, time.Duration(p))
	}
	observe(m, 2, StageDeliver, time.Hour)
	all := tr.Delivered()
	flooded := all[len(all)-1]
	if len(flooded.Peers) != maxPeerSpans {
		t.Fatalf("flooded timeline retained %d spans, want cap %d", len(flooded.Peers), maxPeerSpans)
	}
}

func TestFlightRecorderRingAndNil(t *testing.T) {
	var nilM *Metrics
	nilM.Emit(Event{Kind: StageBADecide, Epoch: 1}) // must not panic
	if nilFR := nilM.Flight(); nilFR.Events() != nil || nilFR.Total() != 0 {
		t.Fatal("nil recorder must read empty")
	}

	m := New(Options{FlightRing: 4})
	fr := m.Flight()
	for i := 0; i < 10; i++ {
		m.Emit(Event{At: time.Duration(i) * time.Millisecond, Kind: StageDeliver, Epoch: uint64(i)})
	}
	if fr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", fr.Total())
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring size 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Epoch != want {
			t.Fatalf("event %d epoch = %d, want %d (oldest-first after wrap)", i, ev.Epoch, want)
		}
	}

	var b strings.Builder
	if err := fr.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "4 events retained, 10 recorded") {
		t.Fatalf("WriteText header missing counts:\n%s", b.String())
	}

	ev := Event{At: time.Second, Kind: VoteCast, Epoch: 7, Peer: 3, Arg: 5}
	s := ev.String()
	for _, want := range []string{"vote_cast", "epoch=7", "peer=3", "arg=5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event line %q missing %q", s, want)
		}
	}
}

// TestAdminServerLifecycle is the regression test for the admin endpoint
// leak: Close must release the port (a new listener can bind it), reject
// further connections, and be idempotent.
func TestAdminServerLifecycle(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeAdmin(l, New(Options{}), nil)
	addr := srv.Addr().String()

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("pre-close GET: %v", err)
	}
	resp.Body.Close()

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The port must be free again — the listener is really gone, not
	// leaked to a still-running Serve goroutine.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port still held after Close: %v", err)
	}
	l2.Close()
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Fatal("connection still accepted after Close")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestAdminDropsHalfSentRequest: a client that never finishes its
// request line is disconnected once adminReadHeaderTimeout passes,
// instead of holding the connection forever.
func TestAdminDropsHalfSentRequest(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeAdmin(l, New(Options{}), nil)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /metr")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(adminReadHeaderTimeout + 3*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("half-sent request still open %v later (header timeout %v): %v",
			time.Since(start), adminReadHeaderTimeout, err)
	}
	if d := time.Since(start); d < adminReadHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the %v header timeout", d, adminReadHeaderTimeout)
	}
}

func TestStatusSchemaAndFlightEndpoint(t *testing.T) {
	m := New(Options{FlightRing: 8})
	m.Emit(Event{At: time.Millisecond, Kind: StageBADecide, Epoch: 3, Arg: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeAdmin(l, m, nil)
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	resp, err := http.Get(base + "/statusz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/statusz Content-Type = %q, want application/json", ct)
	}
	var status struct {
		SchemaVersion int `json:"schema_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.SchemaVersion != StatusSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", status.SchemaVersion, StatusSchemaVersion)
	}

	// Text rendering of the flight journal.
	resp2, err := http.Get(base + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := resp2.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "decide") || !strings.Contains(sb.String(), "epoch=3") {
		t.Fatalf("/debug/flightrecorder missing the recorded event:\n%s", sb.String())
	}

	// JSON rendering carries the schema version and structured events.
	resp3, err := http.Get(base + "/debug/flightrecorder?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var fj struct {
		SchemaVersion int     `json:"schema_version"`
		Total         uint64  `json:"total"`
		Events        []Event `json:"events"`
	}
	if err := json.NewDecoder(resp3.Body).Decode(&fj); err != nil {
		t.Fatal(err)
	}
	if fj.SchemaVersion != StatusSchemaVersion || fj.Total != 1 || len(fj.Events) != 1 || fj.Events[0].Epoch != 3 {
		t.Fatalf("flightrecorder JSON = %+v", fj)
	}
}
