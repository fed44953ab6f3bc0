package telemetry

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"dledger/internal/mempool"
)

// mkTx brute-forces a payload whose content hash is (or is not)
// journey-sampled at the default 1/64 rate.
func mkTx(t *testing.T, sampled bool) []byte {
	t.Helper()
	tx := make([]byte, 64)
	for i := uint32(0); i < 1<<16; i++ {
		binary.BigEndian.PutUint32(tx, i)
		h := mempool.HashTx(tx)
		if (h[0]&63 == 0) == sampled {
			out := make([]byte, len(tx))
			copy(out, tx)
			return out
		}
	}
	t.Fatal("no payload found")
	return nil
}

// sampledTx extends name with a counter until its content hash is
// journey-sampled, so each name gives a distinct sampled transaction.
func sampledTx(name string) []byte {
	for i := 0; ; i++ {
		tx := fmt.Appendf(nil, "%s/%d", name, i)
		if h := mempool.HashTx(tx); h[0]&sampleMask == 0 {
			return tx
		}
	}
}

// newTestJourneys builds a bundle and returns it with its journeys.
func newTestJourneys(t *testing.T, opts Options) (*Metrics, *Journeys) {
	t.Helper()
	m := New(opts)
	j := m.Journeys()
	if j == nil {
		t.Fatal("New returned no journeys for enabled telemetry")
	}
	return m, j
}

// The journey facts, reported the way the replica and the hub do (the
// tests' proposals and blocks are node 0's).
func submitted(m *Metrics, tx []byte, now time.Duration) {
	m.Emit(Event{Kind: TxEnqueued, At: now}, tx)
}
func admitted(m *Metrics, tx []byte, wait time.Duration) {
	h := mempool.HashTx(tx)
	m.Emit(Event{Kind: TxAdmitted, Arg: int64(wait)}, h[:])
}
func proposed(m *Metrics, txs [][]byte, epoch uint64, now time.Duration) {
	m.Emit(Event{Kind: TxProposed, At: now, Epoch: epoch}, txs...)
}
func blockDelivered(m *Metrics, epoch uint64, now time.Duration) {
	m.Emit(Event{Kind: BlockDelivered, At: now, Epoch: epoch})
}
func proofIngested(m *Metrics, epoch uint64, wait time.Duration) {
	m.Emit(Event{Kind: TxProofIngested, Epoch: epoch, Arg: int64(wait)})
}
func epochDelivered(m *Metrics, epoch uint64, now time.Duration) {
	m.Emit(Event{Kind: StageDeliver, At: now, Epoch: epoch})
}

func TestJourneyLifecycle(t *testing.T) {
	m, j := newTestJourneys(t, Options{})
	tx := sampledTx("payment 1")
	h := mempool.HashTx(tx)

	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	submitted(m, tx, sec(1))
	admitted(m, tx, 5*time.Millisecond)
	proposed(m, [][]byte{tx}, 7, sec(2))
	observe(m, 7, StageDisperseStart, sec(2))
	observe(m, 7, StageDisperseDone, sec(3))
	observe(m, 7, StageBAInput, sec(3))
	observe(m, 7, StageBADecide, sec(5))
	blockDelivered(m, 7, sec(6))
	proofIngested(m, 7, 2*time.Millisecond)
	epochDelivered(m, 7, sec(6.5))

	done := j.Completed()
	if len(done) != 1 {
		t.Fatalf("completed = %d journeys, want 1", len(done))
	}
	jr := done[0]
	if !jr.Complete || jr.Epoch != 7 || jr.Hash != h {
		t.Fatalf("journey = %+v", jr)
	}
	want := map[Phase]time.Duration{
		PhaseAdmitWait:   5 * time.Millisecond,
		PhaseMempoolWait: sec(1),
		PhaseDisperse:    sec(1),
		PhaseBA:          sec(2),
		PhaseRetrieve:    sec(1),
		PhaseDeliver:     sec(0.5),
		PhaseProof:       2 * time.Millisecond,
	}
	for p, d := range want {
		if jr.Phases[p] != d {
			t.Errorf("phase %s = %s, want %s", p, jr.Phases[p], d)
		}
	}
	// Telescoping reconciliation: the replica-clock phases sum exactly
	// to Done-Enqueued, plus the hub-measured durations.
	var sum time.Duration
	for _, d := range jr.Phases {
		sum += d
	}
	if wantSum := sec(5.5) + 7*time.Millisecond; sum != wantSum {
		t.Errorf("phase sum = %s, want %s", sum, wantSum)
	}
	for p := Phase(0); p < NumPhases; p++ {
		hs := m.Registry().FindHistogram(PhaseMetric, `phase="`+p.String()+`"`)
		if hs == nil {
			t.Fatalf("no histogram for phase %s", p)
		}
		if hs.Count() != 1 {
			t.Errorf("phase %s histogram count = %d, want 1", p, hs.Count())
		}
	}
	if len(j.Live()) != 0 {
		t.Errorf("live = %d journeys after finalize, want 0", len(j.Live()))
	}
}

// TestReProposal: under HB a dropped block's transactions re-propose in
// a later epoch; the journey must follow the move and the histograms
// must count the final attempt exactly once.
func TestReProposal(t *testing.T) {
	m, j := newTestJourneys(t, Options{})
	tx := sampledTx("re-proposed")
	submitted(m, tx, time.Second)
	proposed(m, [][]byte{tx}, 3, 2*time.Second)
	proposed(m, [][]byte{tx}, 5, 4*time.Second)

	// The abandoned epoch finalizes nothing.
	epochDelivered(m, 3, 5*time.Second)
	if n := len(j.Completed()); n != 0 {
		t.Fatalf("epoch 3 finalized %d journeys, want 0", n)
	}
	blockDelivered(m, 5, 6*time.Second)
	epochDelivered(m, 5, 6*time.Second)
	done := j.Completed()
	if len(done) != 1 || done[0].Epoch != 5 || done[0].Proposals != 2 {
		t.Fatalf("completed = %+v", done)
	}
	if done[0].Phases[PhaseMempoolWait] != 3*time.Second {
		t.Errorf("mempool_wait = %s, want 3s (to the final proposal)", done[0].Phases[PhaseMempoolWait])
	}
	if hs := m.Registry().FindHistogram(PhaseMetric, `phase="mempool_wait"`); hs.Count() != 1 {
		t.Errorf("mempool_wait count = %d, want 1 (no double-count)", hs.Count())
	}
}

// TestLostBAThenLinked: a block that loses its agreement instance is not
// part of its own epoch's delivery. Its transactions commit when a later
// epoch links the block in, and only then do their journeys finalize,
// with the wait for linking counted.
func TestLostBAThenLinked(t *testing.T) {
	m, j := newTestJourneys(t, Options{})
	tx := sampledTx("censored")
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	submitted(m, tx, sec(1))
	proposed(m, [][]byte{tx}, 3, sec(2))
	observe(m, 3, StageDisperseDone, sec(3))
	observe(m, 3, StageBADecide, sec(4))
	epochDelivered(m, 3, sec(5)) // S of epoch 3 does not hold our block

	if n := len(j.Completed()); n != 0 {
		t.Fatalf("epoch 3 finalized %d journeys of a block it did not deliver", n)
	}
	if live := j.Live(); len(live) != 1 || live[0].Epoch != 3 || live[0].HasDelivered {
		t.Fatalf("live after the lost epoch = %+v, want the one undelivered journey", live)
	}
	epochDelivered(m, 4, sec(6)) // nor does epoch 4 link it
	if n := len(j.Completed()); n != 0 {
		t.Fatalf("epoch 4 finalized %d journeys", n)
	}

	// Epoch 5's linked stage delivers block (3, self).
	m.Emit(Event{Kind: BlockDeliveredLinked, At: sec(8), Epoch: 3})
	epochDelivered(m, 5, sec(8.5))
	done := j.Completed()
	if len(done) != 1 || len(j.Live()) != 0 {
		t.Fatalf("completed = %+v, live = %d", done, len(j.Live()))
	}
	jr := done[0]
	if jr.Epoch != 3 || !jr.HasDelivered || jr.Delivered != sec(8) || jr.Done != sec(8.5) {
		t.Fatalf("journey = %+v", jr)
	}
	want := map[Phase]time.Duration{
		PhaseMempoolWait: sec(1),
		PhaseDisperse:    sec(1),
		PhaseBA:          sec(1),
		PhaseRetrieve:    sec(4), // decided at 4 s, linked in at 8 s
		PhaseDeliver:     sec(0.5),
	}
	for p, d := range want {
		if jr.Phases[p] != d {
			t.Errorf("phase %s = %s, want %s", p, jr.Phases[p], d)
		}
	}
	if hs := m.Registry().FindHistogram(PhaseMetric, `phase="retrieve"`); hs.Count() != 1 {
		t.Errorf("retrieve count = %d, want 1", hs.Count())
	}
}

func TestSamplingIsDeterministicByHash(t *testing.T) {
	m, j := newTestJourneys(t, Options{})
	for i := 0; i < 256; i++ {
		tx := []byte{byte(i), byte(i >> 8)}
		h := mempool.HashTx(tx)
		if _, sampled := j.sampledHash(tx); sampled != (h[0]&63 == 0) {
			t.Fatalf("sampledHash(%x) = %v, want first-byte rule", h[:4], sampled)
		}
	}
	samp := mkTx(t, true)
	submitted(m, samp, time.Second)
	if len(j.Live()) != 1 {
		t.Fatalf("sampled tx not tracked")
	}
	submitted(m, mkTx(t, false), time.Second)
	if len(j.Live()) != 1 {
		t.Fatalf("unsampled tx tracked")
	}
}

func TestUnsetPhasesClampNonNegative(t *testing.T) {
	// A journey finalized with no timeline and out-of-order clocks must
	// still produce non-negative phases.
	m, j := newTestJourneys(t, Options{})
	tx := sampledTx("stuck")
	submitted(m, tx, 5*time.Second)
	proposed(m, [][]byte{tx}, 2, 6*time.Second)
	blockDelivered(m, 2, 3*time.Second) // clock oddity: deliver "before" proposal
	epochDelivered(m, 2, 4*time.Second)
	done := j.Completed()
	if len(done) != 1 {
		t.Fatalf("completed = %d", len(done))
	}
	for p := Phase(0); p < NumPhases; p++ {
		if done[0].Phases[p] < 0 {
			t.Errorf("phase %s negative: %s", p, done[0].Phases[p])
		}
	}
}

func TestLiveEvictionBounded(t *testing.T) {
	m, j := newTestJourneys(t, Options{})
	for i := 0; i < maxLiveJourneys+6; i++ {
		submitted(m, sampledTx(fmt.Sprint(i)), time.Duration(i)*time.Second)
	}
	if n := len(j.Live()); n != maxLiveJourneys {
		t.Fatalf("live = %d, want %d (maxLiveJourneys)", n, maxLiveJourneys)
	}
}

func TestNilJourneysNoOp(t *testing.T) {
	var m *Metrics
	submitted(m, []byte("x"), 0)
	admitted(m, []byte("x"), 0)
	proposed(m, [][]byte{{1}}, 1, 0)
	blockDelivered(m, 1, 0)
	proofIngested(m, 1, 0)
	epochDelivered(m, 1, 0)
	if j := m.Journeys(); j != nil || j.Live() != nil || j.Completed() != nil {
		t.Fatal("nil Metrics must have nil, empty-reading Journeys")
	}
}

// TestUnsampledFastPathAllocs is the hot-path guard: an unsampled
// transaction must cost zero allocations through every per-tx hook.
func TestUnsampledFastPathAllocs(t *testing.T) {
	m, _ := newTestJourneys(t, Options{})
	tx := mkTx(t, false)
	batch := [][]byte{tx}
	if n := testing.AllocsPerRun(200, func() { submitted(m, tx, time.Second) }); n != 0 {
		t.Errorf("TxEnqueued(unsampled) = %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { admitted(m, tx, time.Millisecond) }); n != 0 {
		t.Errorf("TxAdmitted(unsampled) = %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { proposed(m, batch, 1, time.Second) }); n != 0 {
		t.Errorf("TxProposed(unsampled) = %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { blockDelivered(m, 1, time.Second) }); n != 0 {
		t.Errorf("BlockDelivered(no sampled tx) = %v allocs/run, want 0", n)
	}
}

// TestNilEmitAllocs is the disabled-telemetry guard: with a nil bundle
// Emit is a nil check — no allocation, whatever the fact carries.
func TestNilEmitAllocs(t *testing.T) {
	var m *Metrics
	tx := mkTx(t, true)
	batch := [][]byte{tx, tx}
	if n := testing.AllocsPerRun(200, func() {
		m.Emit(Event{Kind: TxEnqueued, At: time.Second}, tx)
		m.Emit(Event{Kind: TxProposed, At: time.Second, Epoch: 1}, batch...)
		m.Emit(Event{Kind: PeerVote, At: time.Second, Epoch: 1, Peer: 2})
	}); n != 0 {
		t.Errorf("Emit on a nil bundle = %v allocs/run, want 0", n)
	}
}
