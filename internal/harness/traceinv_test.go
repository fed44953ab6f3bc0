package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/mempool"
	"dledger/internal/replica"
	"dledger/internal/telemetry"
	"dledger/internal/trace"
)

// TestTraceCompletenessCleanRun drives a healthy emulated cluster with
// telemetry on and asserts the trace invariant holds on every node —
// and that the checker actually has material (spans, stage panel).
func TestTraceCompletenessCleanRun(t *testing.T) {
	const n = 4
	traces := make([]trace.Trace, n)
	for i := range traces {
		traces[i] = trace.Constant(2 * trace.MB)
	}
	c, err := NewCluster(ClusterOptions{
		Core:        core.Config{N: n, F: 1, Mode: core.ModeDL, CoinSecret: []byte("trace inv test")},
		Replica:     replica.Params{BatchDelay: 100 * time.Millisecond},
		Egress:      traces,
		TxSize:      250,
		LoadPerNode: 100 << 10,
		Telemetry:   true,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	lr := NewLogRecorder(c)
	c.Start()
	c.Run(20 * time.Second)

	for i := 0; i < n; i++ {
		if len(lr.Log(i)) == 0 {
			t.Fatalf("node %d delivered nothing", i)
		}
		if got := len(c.Tels[i].Trace().Delivered()); got == 0 {
			t.Fatalf("node %d has no delivered timelines", i)
		}
		if v := CheckTraceCompleteness(i, c.Tels[i], lr.Log(i)); len(v) != 0 {
			t.Fatalf("node %d trace violations: %v", i, v)
		}
	}
	panel := stagePanel(c)
	for _, seg := range []string{"ba", "e2e"} {
		if panel[seg].Count == 0 || panel[seg].P95Ms <= 0 {
			t.Fatalf("stage panel missing %q: %+v", seg, panel)
		}
	}
	// The journey layer must have finished at least one sampled
	// transaction somewhere in the cluster, and the phase panel must
	// carry the decomposition.
	finished := 0
	for i := 0; i < n; i++ {
		finished += len(c.Tels[i].Journeys().Completed())
	}
	if finished == 0 {
		t.Fatal("no sampled transaction journeys completed")
	}
	phases := phasePanel(c)
	for _, ph := range []string{"mempool_wait", "ba", "deliver"} {
		if phases[ph].Count == 0 {
			t.Fatalf("phase panel missing %q: %+v", ph, phases)
		}
	}
}

// TestTraceCompletenessDetects feeds the checker a log the telemetry
// never saw and expects violations, including the nil-bundle case.
func TestTraceCompletenessDetects(t *testing.T) {
	if v := CheckTraceCompleteness(0, nil, nil); len(v) != 1 || !strings.Contains(v[0], "no telemetry bundle") {
		t.Fatalf("nil bundle not flagged: %v", v)
	}
	const n = 4
	traces := make([]trace.Trace, n)
	for i := range traces {
		traces[i] = trace.Constant(2 * trace.MB)
	}
	c, err := NewCluster(ClusterOptions{
		Core:      core.Config{N: n, F: 1, Mode: core.ModeDL, CoinSecret: []byte("trace inv test")},
		Replica:   replica.Params{BatchDelay: 100 * time.Millisecond},
		Egress:    traces,
		TxSize:    250,
		Telemetry: true,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A fabricated log claiming epochs 1 and 2 delivered blocks: epoch 1
	// must be flagged (no timeline); epoch 2, the max epoch, is the
	// horizon-cut exemption; the counters must be flagged too.
	log := []LogEntry{
		{Epoch: 1, Proposer: 0, TxCount: 3},
		{Epoch: 2, Proposer: 1, TxCount: 2},
	}
	v := CheckTraceCompleteness(0, c.Tels[0], log)
	joined := strings.Join(v, "\n")
	if !strings.Contains(joined, "epoch 1 with no timeline") {
		t.Fatalf("missing-timeline violation not raised:\n%s", joined)
	}
	if strings.Contains(joined, "epoch 2 with no timeline") {
		t.Fatalf("max-epoch exemption not applied:\n%s", joined)
	}
	if !strings.Contains(joined, "delivered blocks") || !strings.Contains(joined, "delivered txs") {
		t.Fatalf("counter reconciliation not raised:\n%s", joined)
	}
}

// sampledTx extends name with a counter until telemetry samples it: the
// first byte of its content hash is a multiple of 64 (journeys sample
// one transaction in 64).
func sampledTx(name string) []byte {
	for i := 0; ; i++ {
		tx := fmt.Appendf(nil, "%s/%d", name, i)
		if h := mempool.HashTx(tx); h[0]%64 == 0 {
			return tx
		}
	}
}

// TestJourneyViolationsDetect exercises the journey half of the checker
// with hand-built bad states: a finalized journey in an epoch the log
// never shows the node proposing, and a live journey stuck in a block
// the log already delivered.
func TestJourneyViolationsDetect(t *testing.T) {
	m := telemetry.New(telemetry.Options{})
	jour := m.Journeys()
	tx := sampledTx("phantom")
	m.Emit(telemetry.Event{Kind: telemetry.TxEnqueued, At: time.Second}, tx)
	m.Emit(telemetry.Event{Kind: telemetry.TxProposed, At: 2 * time.Second, Epoch: 9}, tx)
	m.Emit(telemetry.Event{Kind: telemetry.BlockDelivered, At: 3 * time.Second, Epoch: 9})
	m.Emit(telemetry.Event{Kind: telemetry.StageDeliver, At: 3 * time.Second, Epoch: 9}) // finalized in epoch 9

	stuck := sampledTx("stuck")
	m.Emit(telemetry.Event{Kind: telemetry.TxEnqueued, At: time.Second}, stuck)
	m.Emit(telemetry.Event{Kind: telemetry.TxProposed, At: 2 * time.Second, Epoch: 4}, stuck) // never finalized

	waiting := sampledTx("waiting")
	m.Emit(telemetry.Event{Kind: telemetry.TxEnqueued, At: time.Second}, waiting)
	m.Emit(telemetry.Event{Kind: telemetry.TxProposed, At: 2 * time.Second, Epoch: 3}, waiting) // lost its BA, not linked yet

	log := []LogEntry{
		{Epoch: 3, Proposer: 1, TxCount: 1}, // epoch 3 delivered without node 0's block
		{Epoch: 4, Proposer: 0, TxCount: 1},
		{Epoch: 5, Proposer: 1, TxCount: 1},
	}
	joined := strings.Join(checkJourneys(0, jour, 5, log), "\n")
	if !strings.Contains(joined, "which its log never shows it proposing") {
		t.Fatalf("phantom-epoch journey not flagged:\n%s", joined)
	}
	if !strings.Contains(joined, "stuck live in delivered epoch 4") {
		t.Fatalf("stuck journey not flagged:\n%s", joined)
	}
	if strings.Contains(joined, "epoch 3") {
		t.Fatalf("journey of a block still awaiting linking flagged:\n%s", joined)
	}
	if v := checkJourneys(0, nil, 0, nil); v != nil {
		t.Fatalf("nil journeys must be silent, got %v", v)
	}
}
