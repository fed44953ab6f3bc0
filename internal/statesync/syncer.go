package statesync

import (
	"bytes"
	"sort"

	"dledger/internal/store"
	"dledger/internal/wire"
)

// Syncer phases.
const (
	phaseOffers   = iota // collecting SyncOffer attestations
	phaseManifest        // pulling manifest pages for the adopted point
	phaseChunks          // opportunistic chunk-inventory pulls
	phaseDone
)

// maxChunkPages bounds the chunk-inventory stream pulled per donor;
// maxManifestPages bounds one manifest transfer (56 KB pages × 256 =
// 14 MB, far above any real manifest) so a Byzantine donor cannot grow
// the page buffer without bound by never sending Last.
const (
	maxChunkPages    = 256
	maxManifestPages = 256
)

// Out is one outgoing message the driving engine must send.
type Out struct {
	To    int
	Epoch uint64 // envelope epoch (the sync target; 1 for hello)
	Msg   wire.Msg
}

// ImportedChunk is one donor chunk record that passed verification.
type ImportedChunk struct {
	From int
	Rec  store.ChunkRecord
}

// Result ends the bootstrap phase of a sync. Exactly one of Manifest
// (install this state, then run the status catch-up) and Fallback (no
// attested checkpoint exists — run the ordinary catch-up from scratch)
// is meaningful.
type Result struct {
	Manifest *store.Manifest
	Fallback bool
}

// Syncer is the joiner-side automaton. Single-threaded, driven by the
// engine's event loop; every method returns the messages to send.
type Syncer struct {
	n, f, self int

	phase  int
	offers map[int][]wire.SyncPoint
	// replied marks peers whose offer (possibly empty) arrived.
	replied map[int]bool

	target wire.SyncPoint
	donors []int
	di     int
	// ruledOut counts donors excluded this attempt (evicted reply,
	// corrupt transfer, or a page-cap overrun). Each manifest transfer
	// is pulled from a single donor, so blame for a bad transfer is
	// exact; when every attester is ruled out, the target is abandoned
	// and offer collection restarts. advanced marks transfer progress
	// since the last retry tick, so a multi-page transfer merely slower
	// than the tick period is not torn down mid-flight.
	ruledOut int
	advanced bool
	page     uint32
	pages    [][]byte

	chunkPage map[int]uint32
	chunkDone map[int]bool
	stalls    map[int]int

	// Stats accumulates the client-side counters.
	Stats Stats
}

// NewSyncer builds the automaton for node self of an (n, f) cluster.
func NewSyncer(n, f, self int) *Syncer {
	return &Syncer{
		n: n, f: f, self: self,
		offers:  map[int][]wire.SyncPoint{},
		replied: map[int]bool{},
	}
}

// Bootstrapping reports whether the sync still gates normal operation
// (offer collection or manifest transfer). The opportunistic chunk phase
// runs concurrently with the status catch-up and does not gate anything.
func (s *Syncer) Bootstrapping() bool {
	return s.phase == phaseOffers || s.phase == phaseManifest
}

// Done reports whether the automaton has nothing left to do.
func (s *Syncer) Done() bool { return s.phase == phaseDone }

// Target returns the adopted sync point (zero before adoption).
func (s *Syncer) Target() wire.SyncPoint { return s.target }

// Start (re)broadcasts the hello. Idempotent; also used as the offer-
// phase retry.
func (s *Syncer) Start() []Out {
	outs := make([]Out, 0, s.n-1)
	for i := 0; i < s.n; i++ {
		if i != s.self {
			outs = append(outs, Out{To: i, Epoch: 1, Msg: wire.SyncHello{}})
		}
	}
	return outs
}

// OnOffer ingests one peer's attestations.
func (s *Syncer) OnOffer(from int, m wire.SyncOffer) []Out {
	if s.phase != phaseOffers || from < 0 || from >= s.n || from == s.self {
		return nil
	}
	// Deduplicate within the offer: support counting is per PEER, and a
	// peer listing the same (epoch, hash) twice must not count twice —
	// otherwise a single Byzantine offer [P, P] would fabricate the f+1
	// attestations that gate manifest adoption.
	points := make([]wire.SyncPoint, 0, len(m.Points))
	for _, pt := range m.Points {
		dup := false
		for _, seen := range points {
			if seen == pt {
				dup = true
				break
			}
		}
		if !dup {
			points = append(points, pt)
		}
		if len(points) == maxOfferPoints {
			break
		}
	}
	s.offers[from] = points
	s.replied[from] = true
	return s.evaluateOffers()
}

// evaluateOffers adopts the newest point with f+1 identical
// attestations, if any, and begins the manifest pull.
func (s *Syncer) evaluateOffers() []Out {
	// Count support per (epoch, hash) claim, iterating peers in id order
	// so the choice is deterministic under the seeded emulator.
	type cand struct {
		point      wire.SyncPoint
		supporters []int
	}
	var cands []cand
	peers := make([]int, 0, len(s.offers))
	for p := range s.offers {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	for _, p := range peers {
		for _, pt := range s.offers[p] {
			found := false
			for i := range cands {
				if cands[i].point == pt {
					// Defense in depth against double-counting one
					// peer: OnOffer dedups, but the invariant is cheap
					// to enforce here too (supporters are appended in
					// peer order, so a repeat can only be the last).
					if n := len(cands[i].supporters); n == 0 || cands[i].supporters[n-1] != p {
						cands[i].supporters = append(cands[i].supporters, p)
					}
					found = true
					break
				}
			}
			if !found {
				cands = append(cands, cand{point: pt, supporters: []int{p}})
			}
		}
	}
	best := -1
	for i := range cands {
		if len(cands[i].supporters) < s.f+1 {
			continue
		}
		if best == -1 || cands[i].point.Epoch > cands[best].point.Epoch ||
			(cands[i].point.Epoch == cands[best].point.Epoch &&
				bytes.Compare(cands[i].point.Hash[:], cands[best].point.Hash[:]) < 0) {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	s.phase = phaseManifest
	s.target = cands[best].point
	s.donors = append([]int(nil), cands[best].supporters...)
	s.di = 0
	s.ruledOut = 0
	s.page = 0
	s.pages = nil
	return []Out{s.pullManifest()}
}

func (s *Syncer) pullManifest() Out {
	return Out{
		To:    s.donors[s.di],
		Epoch: s.target.Epoch,
		Msg:   wire.SyncPull{Section: wire.SyncSectionManifest, Page: s.page},
	}
}

// excludeDonor rules the current donor out of this attempt (it NAKed,
// served a transfer that failed the attested hash, or overran the page
// cap) and restarts the transfer from the next attester — never from
// scratch, or a single Byzantine co-attester could livelock the join.
// Only when every attester is ruled out is the target abandoned.
func (s *Syncer) excludeDonor() []Out {
	s.ruledOut++
	if s.ruledOut >= len(s.donors) {
		return s.restart()
	}
	s.di = (s.di + 1) % len(s.donors)
	s.page = 0
	s.pages = nil
	return []Out{s.pullManifest()}
}

// restart abandons the current attempt and returns to offer collection
// with fresh claims.
func (s *Syncer) restart() []Out {
	s.phase = phaseOffers
	s.offers = map[int][]wire.SyncPoint{}
	s.replied = map[int]bool{}
	s.target = wire.SyncPoint{}
	s.donors = nil
	s.pages = nil
	s.page = 0
	return s.Start()
}

// OnPage ingests one transfer page. done is non-nil when the bootstrap
// phase concludes (manifest verified, or the attempt fell back);
// chunks carries any verified chunk records from inventory pages.
func (s *Syncer) OnPage(from int, epoch uint64, m wire.SyncPage) (outs []Out, done *Result, chunks []ImportedChunk) {
	switch s.phase {
	case phaseManifest:
		if from != s.donors[s.di] || epoch != s.target.Epoch ||
			m.Section != wire.SyncSectionManifest || m.Page != s.page {
			return nil, nil, nil
		}
		if m.Last && len(m.Data) == 0 && s.page == 0 {
			// Donor no longer holds the point (evicted) — or refuses.
			return s.excludeDonor(), nil, nil
		}
		s.Stats.BytesFetched += int64(len(m.Data))
		s.pages = append(s.pages, m.Data)
		s.advanced = true
		if !m.Last {
			s.page++
			if s.page >= maxManifestPages {
				return s.excludeDonor(), nil, nil
			}
			return []Out{s.pullManifest()}, nil, nil
		}
		blob := bytes.Join(s.pages, nil)
		s.pages = nil
		if store.ManifestHash(blob) != s.target.Hash {
			// The whole transfer came from this one donor, so a hash
			// mismatch convicts it (f+1 peers attested the real hash).
			return s.excludeDonor(), nil, nil
		}
		manifest, err := store.DecodeManifest(blob)
		if err != nil {
			return s.excludeDonor(), nil, nil
		}
		s.Stats.Syncs++
		outs = s.startChunkPhase()
		return outs, &Result{Manifest: manifest}, nil
	case phaseChunks:
		if m.Section != wire.SyncSectionChunks || epoch != s.target.Epoch {
			return nil, nil, nil
		}
		want, pulling := s.chunkPage[from]
		if !pulling || s.chunkDone[from] || m.Page != want {
			return nil, nil, nil
		}
		s.stalls[from] = 0
		chunks = s.parseChunkPage(from, m.Data)
		if m.Last || want+1 >= maxChunkPages {
			s.chunkDone[from] = true
			s.maybeFinishChunks()
			return nil, nil, chunks
		}
		s.chunkPage[from] = want + 1
		return []Out{{To: from, Epoch: s.target.Epoch,
			Msg: wire.SyncPull{Section: wire.SyncSectionChunks, Page: want + 1}}}, nil, chunks
	}
	return nil, nil, nil
}

// startChunkPhase begins the opportunistic inventory pulls, one stream
// per attesting donor.
func (s *Syncer) startChunkPhase() []Out {
	s.phase = phaseChunks
	s.chunkPage = map[int]uint32{}
	s.chunkDone = map[int]bool{}
	s.stalls = map[int]int{}
	donors := append([]int(nil), s.donors...)
	sort.Ints(donors)
	var outs []Out
	for _, d := range donors {
		s.chunkPage[d] = 0
		outs = append(outs, Out{To: d, Epoch: s.target.Epoch,
			Msg: wire.SyncPull{Section: wire.SyncSectionChunks, Page: 0}})
	}
	return outs
}

func (s *Syncer) maybeFinishChunks() {
	for _, d := range s.donors {
		if !s.chunkDone[d] {
			return
		}
	}
	s.phase = phaseDone
}

// parseChunkPage decodes and verifies the length-prefixed chunk records
// of one inventory page. Records that fail verification are dropped
// individually — a Byzantine donor wastes its own bandwidth, nothing
// else.
func (s *Syncer) parseChunkPage(from int, data []byte) []ImportedChunk {
	var out []ImportedChunk
	for r := wire.NewReader(data); r.Len() > 0; {
		entry := r.View(int(r.U32()))
		if r.Err() != nil {
			break // a cut-off entry ends the page
		}
		rec, err := store.DecodeChunkRecord(entry)
		if err != nil || rec.Epoch <= s.target.Epoch || !VerifyChunkRecord(from, rec) {
			continue
		}
		s.Stats.ChunksImported++
		out = append(out, ImportedChunk{From: from, Rec: rec})
	}
	return out
}

// Tick is the retry driver, armed by the engine on a fixed period. It
// re-issues whatever is outstanding; done is non-nil when the automaton
// concludes the cluster has no checkpoint to offer (fall back to the
// ordinary status catch-up).
func (s *Syncer) Tick() (outs []Out, done *Result) {
	switch s.phase {
	case phaseOffers:
		// Fall back once a quorum has answered and nobody offered any
		// point at all: at least one honest peer has no checkpoint, and
		// if the cluster is genuinely past the horizon the catch-up's
		// pruned-epoch detection re-enters state sync.
		if len(s.replied) >= s.f+1 {
			any := false
			for _, pts := range s.offers {
				if len(pts) > 0 {
					any = true
					break
				}
			}
			if !any {
				s.phase = phaseDone
				s.Stats.Fallbacks++
				return nil, &Result{Fallback: true}
			}
		}
		// Claims exist but no f+1 agreement yet: re-hello while KEEPING
		// what has arrived (a reply straggling across tick boundaries
		// must still count, or a slow link could collect f offers, lose
		// them to the tick, and livelock). Fresh replies overwrite per
		// peer, so rings drift toward alignment as peers deliver; a
		// stale claim that wins adoption and cannot be served is shed
		// by the donor-exclusion path, not here.
		return s.Start(), nil
	case phaseManifest:
		// Pages arrived since the last tick: the transfer is alive,
		// merely slower than the tick period — re-issue the current
		// pull (in case the in-flight one was lost) and leave it be.
		if s.advanced {
			s.advanced = false
			return []Out{s.pullManifest()}, nil
		}
		// The donor went quiet: rotate to the next attester and restart
		// the transfer from page 0. Transfers are single-donor so that
		// a bad one is convictable by the hash check; mixing pages from
		// several donors would leave nobody to blame. Unlike exclusion,
		// a timeout does not rule the donor out — it may just be slow,
		// and the rotation revisits it if everyone else stalls too.
		s.di = (s.di + 1) % len(s.donors)
		s.page = 0
		s.pages = nil
		return []Out{s.pullManifest()}, nil
	case phaseChunks:
		donors := append([]int(nil), s.donors...)
		sort.Ints(donors)
		for _, d := range donors {
			if s.chunkDone[d] {
				continue
			}
			s.stalls[d]++
			if s.stalls[d] > 3 {
				// Donor unresponsive: the inventory is opportunistic, so
				// give up on it rather than stall the tick loop forever.
				s.chunkDone[d] = true
				continue
			}
			outs = append(outs, Out{To: d, Epoch: s.target.Epoch,
				Msg: wire.SyncPull{Section: wire.SyncSectionChunks, Page: s.chunkPage[d]}})
		}
		s.maybeFinishChunks()
		return outs, nil
	}
	return nil, nil
}
