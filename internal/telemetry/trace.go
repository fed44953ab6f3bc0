package telemetry

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// PeerSpan is one recorded per-peer sub-span observation.
type PeerSpan struct {
	// Peer is the peer's node id.
	Peer int `json:"peer"`
	// Event is the sub-span kind (PeerChunkSent..PeerRetrieveResp).
	Event Kind `json:"event"`
	// At is the Context-clock observation time.
	At time.Duration `json:"at"`
}

// peerSpanWire is PeerSpan without its JSON methods. /statusz numbers
// the sub-span kinds from zero (chunk_sent = 0), and aggregators of the
// same schema version parse that form.
type peerSpanWire PeerSpan

// MarshalJSON writes the /statusz form of the span.
func (s PeerSpan) MarshalJSON() ([]byte, error) {
	s.Event -= PeerChunkSent
	return json.Marshal(peerSpanWire(s))
}

// UnmarshalJSON reads the /statusz form of the span.
func (s *PeerSpan) UnmarshalJSON(b []byte) error {
	if err := json.Unmarshal(b, (*peerSpanWire)(s)); err != nil {
		return err
	}
	s.Event += PeerChunkSent
	return nil
}

// maxPeerSpans bounds one timeline's per-peer observation list. Honest
// emission is O(N) spans per event kind per epoch, far below the cap;
// the cap only matters if a buggy or hostile layer floods StageActions.
const maxPeerSpans = 1024

// Timeline is one epoch's recorded stage timestamps (Context clock,
// i.e. time since node start — simulated time under the emulator).
// Timestamps from different nodes are NOT comparable (each node's clock
// counts from its own start); cross-node analysis joins on durations.
type Timeline struct {
	// Epoch is the epoch number.
	Epoch uint64 `json:"epoch"`
	// T holds the first-observed timestamp per stage kind; valid only
	// where the Have bit is set.
	T [NumStages]time.Duration `json:"t"`
	// Have is a bitmask of observed stages (bit i = Kind(i)).
	Have uint8 `json:"have"`
	// Peers holds the per-peer sub-span observations, in arrival order,
	// first observation per (event, peer), bounded by maxPeerSpans.
	Peers []PeerSpan `json:"peers,omitempty"`
}

// Has reports whether stage s was observed.
func (tl *Timeline) Has(s Kind) bool { return tl.Have&(1<<s) != 0 }

// At returns the timestamp of stage s (0 if unobserved).
func (tl *Timeline) At(s Kind) time.Duration {
	if !tl.Has(s) {
		return 0
	}
	return tl.T[s]
}

// E2E returns the disperse-start -> deliver duration, or the
// ba-input -> deliver duration when the node never proposed, or 0.
func (tl *Timeline) E2E() time.Duration {
	if !tl.Has(StageDeliver) {
		return 0
	}
	switch {
	case tl.Has(StageDisperseStart):
		return tl.T[StageDeliver] - tl.T[StageDisperseStart]
	case tl.Has(StageBAInput):
		return tl.T[StageDeliver] - tl.T[StageBAInput]
	}
	return 0
}

// PeerAt returns the observation time of the (event, peer) sub-span and
// whether it was observed.
func (tl *Timeline) PeerAt(ev Kind, peer int) (time.Duration, bool) {
	for i := range tl.Peers {
		if tl.Peers[i].Event == ev && tl.Peers[i].Peer == peer {
			return tl.Peers[i].At, true
		}
	}
	return 0, false
}

// PeerSpans returns the timeline's observations of one event kind, in
// arrival order (a fresh slice; safe to retain).
func (tl *Timeline) PeerSpans(ev Kind) []PeerSpan {
	var out []PeerSpan
	for i := range tl.Peers {
		if tl.Peers[i].Event == ev {
			out = append(out, tl.Peers[i])
		}
	}
	return out
}

// Segment is one pipeline segment of an epoch: the span between two
// stage boundaries, and the per-peer sub-span whose latest arrival
// before End names the peer that gated it.
type Segment struct {
	Name       string
	Start, End Kind
	Gate       Kind
}

// Segments lists the pipeline segments in order; Name is also the
// dl_epoch_stage_seconds label the segment feeds. The disperse segment
// is measured on the proposer (each node times only its own
// dispersal); its gate is the echo — the (n−2f)-th got-chunk vote —
// that completed it. BA is gated by the latest vote arrival before
// decide, retrieval by the latest chunk return before delivery.
var Segments = [...]Segment{
	{"disperse", StageDisperseStart, StageDisperseDone, PeerEcho},
	{"ba", StageBAInput, StageBADecide, PeerVote},
	{"retrieve", StageRetrieveStart, StageDeliver, PeerRetrieveResp},
}

// StageBreakdown returns the per-segment durations of a delivered
// timeline keyed by segment name (disperse, ba, retrieve, e2e);
// segments with missing endpoints are omitted.
func (tl *Timeline) StageBreakdown() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, seg := range Segments {
		if tl.Has(seg.Start) && tl.Has(seg.End) {
			out[seg.Name] = tl.T[seg.End] - tl.T[seg.Start]
		}
	}
	if e := tl.E2E(); e > 0 {
		out["e2e"] = e
	}
	return out
}

// maxInflight bounds the not-yet-delivered epoch map; epochs beyond it
// evict the oldest (an epoch that never delivers on this node, e.g.
// spanned by a state-sync install, must not leak).
const maxInflight = 4096

// Tracer folds the epoch-lifecycle kinds into timelines:
// first-observation-wins stage timestamps per epoch, a ring buffer of
// delivered timelines for the "slowest recent epochs" query, and
// per-segment latency histograms registered under
// dl_epoch_stage_seconds. A nil *Tracer reads empty.
type Tracer struct {
	mu        sync.Mutex
	inflight  map[uint64]*Timeline
	delivered ring[Timeline]

	// hist holds one histogram per segment, then e2e.
	hist [len(Segments) + 1]*Histogram
}

// stageSecondsBounds: 1ms .. ~131s, factor 2 (log-scale, 18 buckets).
var stageSecondsBounds = ExpBuckets(int64(time.Millisecond), 2, 18)

// newTracer builds a tracer keeping the last ringSize delivered epoch
// timelines (0 picks the default of 512) and registers its per-segment
// histograms in reg.
func newTracer(reg *Registry, ringSize int) *Tracer {
	t := &Tracer{
		inflight:  map[uint64]*Timeline{},
		delivered: newRing[Timeline](ringSize, 512),
	}
	const name, help = "dl_epoch_stage_seconds", "Per-epoch stage segment durations."
	for i, seg := range Segments {
		t.hist[i] = reg.Histogram(name, `stage="`+seg.Name+`"`, help, stageSecondsBounds, 1e-9)
	}
	t.hist[len(Segments)] = reg.Histogram(name, `stage="e2e"`, help, stageSecondsBounds, 1e-9)
	return t
}

// observe records a stage boundary or a per-peer sub-span of ev.Epoch
// at ev.At. The first observation of a stage, and of a (kind, peer)
// sub-span, wins: the engine may emit a boundary once per block (e.g.
// retrieval start), and re-asks and duplicate arrivals are expected;
// the span list is bounded by maxPeerSpans. StageDeliver completes the
// timeline: segment histograms are updated and the timeline moves to
// the delivered ring, so sub-spans observed after delivery are dropped
// with the rest of the epoch's late observations.
func (t *Tracer) observe(ev Event) {
	peerSpan := ev.Kind >= PeerChunkSent
	if peerSpan && ev.Peer < 0 {
		return
	}
	t.mu.Lock()
	tl := t.timeline(ev.Epoch)
	switch {
	case peerSpan:
		if len(tl.Peers) < maxPeerSpans {
			if _, seen := tl.PeerAt(ev.Kind, int(ev.Peer)); !seen {
				tl.Peers = append(tl.Peers, PeerSpan{Peer: int(ev.Peer), Event: ev.Kind, At: ev.At})
			}
		}
	case !tl.Has(ev.Kind):
		tl.T[ev.Kind] = ev.At
		tl.Have |= 1 << ev.Kind
	}
	if ev.Kind != StageDeliver {
		t.mu.Unlock()
		return
	}
	delete(t.inflight, ev.Epoch)
	t.delivered.push(*tl)
	t.mu.Unlock()
	// Histograms are atomic; update outside the tracer lock.
	for i, seg := range Segments {
		if tl.Has(seg.Start) && tl.Has(seg.End) {
			t.hist[i].Observe(int64(tl.T[seg.End] - tl.T[seg.Start]))
		}
	}
	if e := tl.E2E(); e > 0 {
		t.hist[len(Segments)].Observe(int64(e))
	}
}

// timeline returns (creating if needed) the inflight timeline for
// epoch. Caller holds t.mu.
func (t *Tracer) timeline(epoch uint64) *Timeline {
	tl := t.inflight[epoch]
	if tl == nil {
		if len(t.inflight) >= maxInflight {
			oldest := uint64(0)
			first := true
			for e := range t.inflight {
				if first || e < oldest {
					oldest, first = e, false
				}
			}
			delete(t.inflight, oldest)
		}
		tl = &Timeline{Epoch: epoch}
		t.inflight[epoch] = tl
	}
	return tl
}

// inflightCopy returns a copy of epoch's not-yet-delivered timeline
// (the zero Timeline when there is none). The journeys fold joins its
// epoch segment through it at delivery time, before the StageDeliver
// observation retires the timeline.
func (t *Tracer) inflightCopy(epoch uint64) Timeline {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tl := t.inflight[epoch]; tl != nil {
		return *tl
	}
	return Timeline{}
}

// Delivered returns the retained delivered timelines, oldest first.
func (t *Tracer) Delivered() []Timeline {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.delivered.snapshot()
}

// SlowestEpochs returns up to n delivered timelines ordered by
// end-to-end duration, slowest first — the operator's "show me the 10
// slowest recent epochs" query.
func (t *Tracer) SlowestEpochs(n int) []Timeline {
	all := t.Delivered()
	sort.Slice(all, func(i, j int) bool {
		ei, ej := all[i].E2E(), all[j].E2E()
		if ei != ej {
			return ei > ej
		}
		return all[i].Epoch < all[j].Epoch
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// InflightEpochs returns the number of epochs with observed stages but
// no delivery yet.
func (t *Tracer) InflightEpochs() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.inflight)
}
