package telemetry

// Sampled transaction journeys: client submit → gateway admission →
// mempool enqueue → proposal inclusion → dispersal → BA decide →
// delivery → proof stream, folded from the transaction kinds of the
// event stream. Nothing here touches wire or WAL formats, so seeded
// runs replay byte-identically with telemetry on or off.
//
// Sampling is deterministic by content hash: a transaction is sampled
// iff the first byte of its sha256 content hash has its low six bits
// clear (sampleMask: 1 in 64). Every node — and every replay — therefore
// samples the same transactions, which is what lets chaos invariants
// reconcile journeys against delivery logs.
//
// Clock safety: a transaction only ever rides its origin node's own
// proposal (the mempool is per-node), so the whole journey is
// observable on one node with one Context clock. The gateway hub runs
// on a different clock domain (wall time vs the replica loop's
// virtual clock under emulation); it therefore contributes only
// self-measured durations (admit wait, proof ingest), never
// timestamps.

import (
	"encoding/binary"
	"math"
	"sync"
	"time"

	"dledger/internal/mempool"
)

// Phase identifies one segment of a transaction's journey, in
// pipeline order.
type Phase uint8

// Transaction journey phases, in pipeline order.
const (
	// PhaseAdmitWait: gateway admission (rate check, dedup, interest
	// registration, handoff into the replica loop). Hub-measured
	// duration; absent when txs bypass the gateway.
	PhaseAdmitWait Phase = iota
	// PhaseMempoolWait: mempool enqueue → popped into a proposal — the
	// queueing delay.
	PhaseMempoolWait
	// PhaseDisperse: proposal → own VID dispersal complete.
	PhaseDisperse
	// PhaseBA: dispersal complete → all N BA instances decided.
	PhaseBA
	// PhaseRetrieve: BA decide → containing block delivered locally.
	PhaseRetrieve
	// PhaseDeliver: block delivered → whole epoch delivered in order.
	PhaseDeliver
	// PhaseProof: proof-stream ingest of the delivered epoch
	// (hub-measured duration; absent without a gateway).
	PhaseProof
	// NumPhases is the number of journey phases.
	NumPhases
)

// phaseNames indexes Phase -> the metric label / exposition name.
var phaseNames = [NumPhases]string{
	"admit_wait", "mempool_wait", "disperse", "ba", "retrieve", "deliver", "proof",
}

// String returns the phase's exposition label.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseMetric is the histogram family journeys observe phase durations
// into, labelled phase="...".
const PhaseMetric = "dl_tx_phase_seconds"

// Journey is one sampled transaction's recorded trip. Timestamps
// (Enqueued, Proposed, Delivered, Done) are the origin replica's
// Context clock; AdmitWait and ProofWait are hub-measured durations.
type Journey struct {
	// Hash is the transaction's sha256 content hash.
	Hash mempool.Hash
	// Epoch is the epoch whose proposal included the tx (0 until
	// proposed).
	Epoch uint64
	// Enqueued is when the tx entered the mempool.
	Enqueued time.Duration
	// Proposed is when the tx was popped into an epoch proposal (the
	// latest attempt: under HB a dropped proposal re-proposes).
	Proposed time.Duration
	// Delivered is when the containing block delivered locally.
	Delivered time.Duration
	// Done is when the whole epoch delivered (commit point).
	Done time.Duration
	// AdmitWait is the hub-measured gateway admission duration.
	AdmitWait time.Duration
	// ProofWait is the hub-measured proof-stream ingest duration of
	// the delivered epoch.
	ProofWait time.Duration
	// Proposals counts proposal inclusions (>1 = re-proposed).
	Proposals int
	// HasAdmit/HasProof/HasDelivered report which optional
	// observations arrived.
	HasAdmit, HasProof, HasDelivered bool
	// Complete reports the journey finalized (epoch delivered);
	// Phases is valid only then.
	Complete bool
	// Phases holds the finalized per-phase durations.
	Phases [NumPhases]time.Duration
}

const (
	// journeyRing is the number of completed journeys retained.
	journeyRing = 1024
	// maxLiveJourneys bounds in-progress journeys; beyond it the oldest
	// is evicted.
	maxLiveJourneys = 4096
	// sampleMask selects the sampled transactions: those whose content
	// hash's first byte has these bits clear, 1 in 64.
	sampleMask = 63
)

// proposal is this node's proposal for one epoch: its log slot's
// proposer and the sampled transactions riding it, in block order.
// A block that loses its agreement instance is delivered through
// linking, epochs after its own epoch's timeline retired: dispersed and
// decided keep that timeline's dispersal-done and BA-decide stamps for
// it.
type proposal struct {
	proposer           int32
	txs                []mempool.Hash
	dispersed, decided time.Duration
	delivered          bool
}

// Journeys folds the transaction kinds into sampled journeys for one
// node. Events arrive from the replica loop and the gateway hub; a
// mutex serializes them. A nil *Journeys reads empty.
type Journeys struct {
	mu      sync.Mutex
	live    map[mempool.Hash]*Journey
	order   []mempool.Hash // live insertion order, for eviction
	byEpoch map[uint64]*proposal
	// ready lists the proposal epochs whose block was delivered and
	// whose journeys finalize when the delivering epoch completes.
	ready []uint64
	done  ring[Journey]

	trace  *Tracer
	flight *FlightRecorder

	hist      [NumPhases]*Histogram
	sampled   *Counter
	completed *Counter
	liveGauge *Gauge
}

// phaseBounds: 1ms .. ~131s at factor √2 — twice the resolution of the
// epoch stage histograms, because the operator-facing reconciliation
// (phase p50 sum vs client-observed commit latency) is only as tight
// as the quantile interpolation. The scan runs once per sampled
// journey at finalize, so the extra bounds cost nothing on the hot
// path.
var phaseBounds = ExpBuckets(int64(time.Millisecond), math.Sqrt2, 35)

// newJourneys builds the journey fold: registered in reg, joined to
// the epoch tracer, journaling checkpoints to the flight recorder.
func newJourneys(reg *Registry, trace *Tracer, flight *FlightRecorder) *Journeys {
	j := &Journeys{
		live:    map[mempool.Hash]*Journey{},
		byEpoch: map[uint64]*proposal{},
		done:    ring[Journey]{buf: make([]Journey, journeyRing)},
		trace:   trace,
		flight:  flight,
	}
	const help = "Per-transaction journey phase durations (sampled)."
	for p := Phase(0); p < NumPhases; p++ {
		j.hist[p] = reg.Histogram(PhaseMetric, `phase="`+phaseNames[p]+`"`, help, phaseBounds, 1e-9)
	}
	j.sampled = reg.Counter("dl_tx_journeys_sampled_total", "", "Transactions sampled into journey tracing.")
	j.completed = reg.Counter("dl_tx_journeys_completed_total", "", "Sampled journeys finalized at epoch delivery.")
	j.liveGauge = reg.Gauge("dl_tx_journeys_live", "", "Sampled journeys in progress.")
	return j
}

// sampledHash returns tx's content hash and whether it is
// journey-sampled. Deterministic: every node and every replay samples
// the same transactions. An unsampled transaction costs this one hash
// and mask test per fact — no allocation, no lock.
func (j *Journeys) sampledHash(tx []byte) (mempool.Hash, bool) {
	h := mempool.HashTx(tx)
	return h, h[0]&sampleMask == 0
}

// checkpoint journals a sampled transaction passing checkpoint kind.
func (j *Journeys) checkpoint(kind Kind, h mempool.Hash, epoch uint64, now time.Duration) {
	j.flight.record(Event{At: now, Kind: kind, Epoch: epoch, Arg: int64(binary.BigEndian.Uint32(h[:4]))})
}

// enqueued records txs entering the mempool at now.
func (j *Journeys) enqueued(txs [][]byte, now time.Duration) {
	for _, tx := range txs {
		h, ok := j.sampledHash(tx)
		if !ok {
			continue
		}
		j.mu.Lock()
		if _, ok := j.live[h]; ok { // resubmit of a live sampled tx
			j.mu.Unlock()
			continue
		}
		if len(j.live) >= maxLiveJourneys {
			j.evictOldestLocked()
		}
		if len(j.order) >= 2*maxLiveJourneys {
			j.compactOrderLocked()
		}
		j.live[h] = &Journey{Hash: h, Enqueued: now}
		j.order = append(j.order, h)
		n := len(j.live)
		j.mu.Unlock()
		j.sampled.Inc()
		j.liveGauge.Set(int64(n))
		j.checkpoint(TxEnqueued, h, 0, now)
	}
}

// evictOldestLocked drops the oldest live journey. Caller holds j.mu.
func (j *Journeys) evictOldestLocked() {
	for len(j.order) > 0 {
		h := j.order[0]
		j.order = j.order[1:]
		jr, ok := j.live[h]
		if !ok {
			continue // already finalized
		}
		delete(j.live, h)
		if jr.Proposals > 0 {
			j.dropFromEpochLocked(jr.Epoch, h)
		}
		return
	}
}

// compactOrderLocked drops finalized/evicted entries from the
// insertion-order list (it accumulates stale hashes as journeys
// complete). Caller holds j.mu.
func (j *Journeys) compactOrderLocked() {
	kept := j.order[:0]
	for _, h := range j.order {
		if _, ok := j.live[h]; ok {
			kept = append(kept, h)
		}
	}
	j.order = kept
}

// dropFromEpochLocked removes h from epoch's proposal. Caller holds
// j.mu.
func (j *Journeys) dropFromEpochLocked(epoch uint64, h mempool.Hash) {
	p := j.byEpoch[epoch]
	if p == nil {
		return
	}
	for i := range p.txs {
		if p.txs[i] == h {
			p.txs = append(p.txs[:i], p.txs[i+1:]...)
			break
		}
	}
	if len(p.txs) == 0 {
		delete(j.byEpoch, epoch)
	}
}

// admitted attaches the hub-measured gateway admission duration to the
// journeys of the transactions with the given content hashes (reported
// after the replica accepted them).
func (j *Journeys) admitted(hashes [][]byte, wait time.Duration) {
	for _, hash := range hashes {
		h := mempool.Hash(hash)
		if h[0]&sampleMask != 0 {
			continue
		}
		j.mu.Lock()
		if jr, ok := j.live[h]; ok {
			jr.AdmitWait, jr.HasAdmit = wait, true
		}
		j.mu.Unlock()
	}
}

// proposed records the transactions of the proposal this node just
// made for log slot (ev.Epoch, ev.Peer). Re-proposal of a sampled tx
// (HB drops its block) moves the journey to the new epoch; phase
// histograms only see the final, delivered attempt.
func (j *Journeys) proposed(txs [][]byte, ev Event) {
	for _, tx := range txs {
		h, ok := j.sampledHash(tx)
		if !ok {
			continue
		}
		j.mu.Lock()
		jr, ok := j.live[h]
		if !ok {
			j.mu.Unlock()
			continue
		}
		if jr.Proposals > 0 {
			j.dropFromEpochLocked(jr.Epoch, h)
		}
		jr.Epoch, jr.Proposed = ev.Epoch, ev.At
		jr.Proposals++
		p := j.byEpoch[ev.Epoch]
		if p == nil {
			p = &proposal{proposer: ev.Peer}
			j.byEpoch[ev.Epoch] = p
		}
		p.txs = append(p.txs, h)
		j.mu.Unlock()
		j.checkpoint(TxProposed, h, ev.Epoch, ev.At)
	}
}

// slotLocked returns the sampled transactions riding this node's
// proposal in log slot (ev.Epoch, ev.Peer) — none when the slot is
// another node's block, which carries other nodes' transactions.
// Caller holds j.mu.
func (j *Journeys) slotLocked(ev Event) []mempool.Hash {
	if p := j.byEpoch[ev.Epoch]; p != nil && p.proposer == ev.Peer {
		return p.txs
	}
	return nil
}

// blockDelivered records the local delivery of block (ev.Epoch,
// ev.Peer) at ev.At — in its own epoch when it won its agreement
// instance, in a later epoch's linked stage when it lost.
func (j *Journeys) blockDelivered(ev Event) {
	j.mu.Lock()
	p := j.byEpoch[ev.Epoch]
	if p == nil || p.proposer != ev.Peer || p.delivered {
		j.mu.Unlock()
		return
	}
	p.delivered = true
	j.ready = append(j.ready, ev.Epoch)
	marked := make([]mempool.Hash, 0, len(p.txs))
	for _, h := range p.txs {
		if jr := j.live[h]; jr != nil {
			jr.Delivered, jr.HasDelivered = ev.At, true
			marked = append(marked, h)
		}
	}
	j.mu.Unlock()
	for _, h := range marked {
		j.checkpoint(TxBlockDelivered, h, ev.Epoch, ev.At)
	}
}

// proofIngested attaches the hub-measured proof-stream ingest duration
// of block (ev.Epoch, ev.Peer). The hub's delivery hook runs
// synchronously from the replica's delivery path, between the block's
// delivery and the epoch's finalization, so the duration lands before
// the journeys complete.
func (j *Journeys) proofIngested(ev Event) {
	j.mu.Lock()
	for _, h := range j.slotLocked(ev) {
		if jr := j.live[h]; jr != nil {
			jr.ProofWait, jr.HasProof = time.Duration(ev.Arg), true
		}
	}
	j.mu.Unlock()
}

// epochDelivered finalizes, at now, the journeys of every block
// delivered since the last epoch completed: the epoch segment is joined
// against the proposal epoch's timeline, phase durations are computed via
// clamped telescoping checkpoints, histograms observed, and the journeys
// move to the completed ring. A journey proposed in epoch whose block
// this delivery did not include stays live: the block lost its agreement
// instance and commits when a later epoch links it in (or, under HB,
// when its transactions are proposed again).
func (j *Journeys) epochDelivered(epoch uint64, now time.Duration) {
	j.mu.Lock()
	if p := j.byEpoch[epoch]; p != nil && !p.delivered {
		// The tracer retires the epoch's timeline on this very event.
		tl := j.trace.inflightCopy(epoch)
		p.dispersed, p.decided = tl.At(StageDisperseDone), tl.At(StageBADecide)
	}
	var done []Journey
	for _, pe := range j.ready {
		p := j.byEpoch[pe]
		if p == nil {
			continue
		}
		delete(j.byEpoch, pe)
		// Whichever of the two holds the stamps: the kept ones are zero
		// while the timeline is inflight, and the timeline once retired.
		tl := j.trace.inflightCopy(pe)
		dispersed := max(p.dispersed, tl.At(StageDisperseDone))
		decided := max(p.decided, tl.At(StageBADecide))
		for _, h := range p.txs {
			jr, ok := j.live[h]
			if !ok {
				continue
			}
			delete(j.live, h)
			finalize(jr, dispersed, decided, now)
			j.done.push(*jr)
			done = append(done, *jr)
		}
	}
	j.ready = j.ready[:0]
	n := len(j.live)
	j.mu.Unlock()
	if done == nil {
		return
	}
	j.liveGauge.Set(int64(n))
	// Histograms are atomic; observe outside the lock.
	for i := range done {
		jr := &done[i]
		for ph := PhaseMempoolWait; ph <= PhaseDeliver; ph++ {
			j.hist[ph].Observe(int64(jr.Phases[ph]))
		}
		if jr.HasAdmit {
			j.hist[PhaseAdmitWait].Observe(int64(jr.Phases[PhaseAdmitWait]))
		}
		if jr.HasProof {
			j.hist[PhaseProof].Observe(int64(jr.Phases[PhaseProof]))
		}
		j.completed.Inc()
		j.checkpoint(TxCommitted, jr.Hash, epoch, now)
	}
}

// finalize computes jr's phase durations from clamped telescoping
// checkpoints: each checkpoint is at least its predecessor, so every
// phase is non-negative and the mempool→deliver phases sum exactly to
// Done − Enqueued. dispersed and decided are the proposal epoch's
// dispersal-done and BA-decide stamps (0 when the tracer observed none,
// which the clamp absorbs).
func finalize(jr *Journey, dispersed, decided, now time.Duration) {
	c0 := max(jr.Proposed, jr.Enqueued)
	c1 := max(c0, dispersed)
	c2 := max(c1, decided)
	c3 := c2
	if jr.HasDelivered {
		c3 = max(c2, jr.Delivered)
	}
	c4 := max(c3, now)
	jr.Done = c4
	jr.Phases[PhaseMempoolWait] = c0 - jr.Enqueued
	jr.Phases[PhaseDisperse] = c1 - c0
	jr.Phases[PhaseBA] = c2 - c1
	jr.Phases[PhaseRetrieve] = c3 - c2
	jr.Phases[PhaseDeliver] = c4 - c3
	if jr.HasAdmit {
		jr.Phases[PhaseAdmitWait] = jr.AdmitWait
	}
	if jr.HasProof {
		jr.Phases[PhaseProof] = jr.ProofWait
	}
	jr.Complete = true
}

// Live returns copies of the in-progress journeys, oldest first.
func (j *Journeys) Live() []Journey {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Journey, 0, len(j.live))
	for _, h := range j.order {
		if jr, ok := j.live[h]; ok {
			out = append(out, *jr)
		}
	}
	return out
}

// Completed returns the retained finalized journeys, oldest first.
func (j *Journeys) Completed() []Journey {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done.snapshot()
}
