package core

// State-sync glue: wires the statesync automata (checkpoint transfer)
// into the engine's message flow. See internal/statesync for the
// protocol and its trust argument; this file owns
//
//   - the donor side: answering SyncHello with the tracker's attested
//     points, serving manifest pages from the replica-provided
//     SyncSource, and streaming the retained chunk inventory,
//   - the joiner side: driving a statesync.Syncer (offer collection,
//     paged manifest pull, opportunistic chunk import) and installing
//     the verified manifest into the engine,
//   - chunk back-fill: with state sync enabled, a node that retrieves a
//     block over the network reconstructs its own AVID chunk from it
//     (the retrieval already has the full block in hand) and adopts the
//     completion — so a joiner becomes a first-class chunk server for
//     the epochs it synced across, and its VID completion watermark
//     recovers instead of sticking at the join point forever.

import (
	"sort"

	"dledger/internal/avid"
	"dledger/internal/statesync"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// SyncSource is the donor-side data provider, implemented by the
// replica (whose statesync.Tracker records a manifest at every sync
// point as epochs deliver).
type SyncSource interface {
	// SyncPoints returns the resident attestable points, newest first.
	SyncPoints() []wire.SyncPoint
	// SyncBlob returns the canonical manifest bytes of a resident point
	// (nil once evicted).
	SyncBlob(epoch uint64) []byte
}

// SetSyncSource installs the donor-side data provider. Without one the
// engine answers SyncHello with an empty offer (a valid "nothing to
// serve" attestation).
func (e *Engine) SetSyncSource(src SyncSource) { e.syncSource = src }

// SyncStats returns the node's state-sync counters (client and donor
// side combined).
func (e *Engine) SyncStats() statesync.Stats {
	s := e.syncStats
	if e.syncer != nil {
		s.Syncs += e.syncer.Stats.Syncs
		s.Fallbacks += e.syncer.Stats.Fallbacks
		s.BytesFetched += e.syncer.Stats.BytesFetched
		s.ChunksImported += e.syncer.Stats.ChunksImported
	}
	return s
}

// syncBootstrapping reports whether a checkpoint bootstrap still gates
// normal operation.
func (e *Engine) syncBootstrapping() bool {
	return e.syncer != nil && e.syncer.Bootstrapping()
}

// startStateSync begins (or restarts) the checkpoint bootstrap: used by
// Start on a fresh node with Config.JoinSync, and by the status
// catch-up when it discovers the cluster pruned the epochs it needs.
func (e *Engine) startStateSync() {
	if e.syncer != nil && e.syncer.Bootstrapping() {
		return
	}
	if e.syncer != nil {
		// A previous sync is still in its opportunistic chunk phase;
		// bank its counters before replacing it.
		e.mergeSyncerStats()
	}
	// Bootstrapping supersedes the status catch-up; it restarts from the
	// synced position afterwards.
	e.catchup = nil
	e.catchupToken = 0
	e.syncer = statesync.NewSyncer(e.cfg.N, e.cfg.F, e.self)
	e.emitSyncOuts(e.syncer.Start())
	e.armSyncTimer()
}

func (e *Engine) armSyncTimer() {
	e.syncToken = e.armTimer(catchupRetry)
}

// syncTick drives the syncer's retry logic (donor rotation, re-pulls,
// the no-checkpoint fallback).
func (e *Engine) syncTick() {
	if e.syncer == nil {
		return
	}
	outs, done := e.syncer.Tick()
	e.emitSyncOuts(outs)
	if done != nil {
		e.finishBootstrap(nil)
	}
	if e.syncer != nil && e.syncer.Done() {
		e.mergeSyncerStats()
	} else if e.syncer != nil {
		e.armSyncTimer()
	}
}

func (e *Engine) mergeSyncerStats() {
	e.syncStats.Syncs += e.syncer.Stats.Syncs
	e.syncStats.Fallbacks += e.syncer.Stats.Fallbacks
	e.syncStats.BytesFetched += e.syncer.Stats.BytesFetched
	e.syncStats.ChunksImported += e.syncer.Stats.ChunksImported
	e.syncer = nil
	e.syncToken = 0
}

func (e *Engine) emitSyncOuts(outs []statesync.Out) {
	for _, o := range outs {
		if o.To < 0 || o.To >= e.cfg.N || o.To == e.self {
			continue
		}
		env := wire.Envelope{From: e.self, Epoch: o.Epoch, Proposer: 0, Payload: o.Msg}
		e.emit(o.To, env, wire.PriorityOf(o.Msg), o.Epoch)
	}
}

// ----- Donor side -----

func (e *Engine) onSyncHello(env wire.Envelope) {
	if !e.cfg.StateSync || env.From < 0 || env.From >= e.cfg.N || env.From == e.self {
		return
	}
	offer := wire.SyncOffer{}
	if e.syncSource != nil {
		offer.Points = e.syncSource.SyncPoints()
	}
	out := wire.Envelope{From: e.self, Epoch: env.Epoch, Proposer: 0, Payload: offer}
	e.emit(env.From, out, wire.PrioDispersal, 0)
}

func (e *Engine) onSyncPull(env wire.Envelope, m wire.SyncPull) {
	if !e.cfg.StateSync || env.From < 0 || env.From >= e.cfg.N || env.From == e.self {
		return
	}
	page := wire.SyncPage{Section: m.Section, Page: m.Page, Last: true}
	switch m.Section {
	case wire.SyncSectionManifest:
		var blob []byte
		if e.syncSource != nil {
			blob = e.syncSource.SyncBlob(env.Epoch)
		}
		if blob != nil {
			if data, last, ok := statesync.Page(blob, m.Page); ok {
				page.Data, page.Last = data, last
			}
		}
		// A nil blob (evicted or never held) answers as an empty final
		// page — the puller's cue to pick a fresh target.
	case wire.SyncSectionChunks:
		page.Data, page.Last = e.chunkInventoryPage(env.Epoch, m.Page)
	default:
		return
	}
	e.syncStats.PagesServed++
	out := wire.Envelope{From: e.self, Epoch: env.Epoch, Proposer: 0, Payload: page}
	e.emit(env.From, out, wire.PrioRetrieval, env.Epoch)
}

// chunkInventoryPage serializes one page of this node's retained chunk
// records for epochs beyond the sync target: length-prefixed
// store.ChunkRecord entries, in (epoch, proposer) order. A record
// belongs to exactly the page its cumulative byte offset starts in, so
// no record is served twice or — the subtler failure — swallowed by a
// byte-skip residue and served by no page at all; sizes are computed
// without encoding, so serving a high page number does not copy the
// whole inventory (any peer can ask, on the engine's own loop). The
// inventory is re-enumerated per pull — it shifts as epochs deliver
// and prune, which is fine because every entry is individually
// verified and deduplicated at the receiver.
func (e *Engine) chunkInventoryPage(target uint64, page uint32) (data []byte, last bool) {
	epochs := make([]uint64, 0, len(e.epochs))
	for epoch := range e.epochs {
		if epoch > target {
			epochs = append(epochs, epoch)
		}
	}
	sort.Slice(epochs, func(a, b int) bool { return epochs[a] < epochs[b] })

	off := 0
	start := int(page) * statesync.PageBytes
	end := start + statesync.PageBytes
	var buf []byte
	for _, epoch := range epochs {
		es := e.epochs[epoch]
		for j, v := range es.vids {
			if v == nil || !v.HasChunk() { // HasChunk implies completion
				continue
			}
			root, data, proof, _ := v.StoredChunk()
			rec := store.ChunkRecord{Epoch: epoch, Proposer: j, Root: root, HasChunk: true, Data: data, Proof: proof}
			if off >= end {
				return buf, false // records beyond this page remain
			}
			if off >= start {
				buf = wire.AppendBytes(buf, store.EncodeChunkRecord(rec))
			}
			off += store.ChunkRecordSize(rec) + 4
		}
	}
	return buf, true
}

// ----- Joiner side -----

func (e *Engine) onSyncOffer(env wire.Envelope, m wire.SyncOffer) {
	if e.syncer == nil {
		return
	}
	e.emitSyncOuts(e.syncer.OnOffer(env.From, m))
}

func (e *Engine) onSyncPage(env wire.Envelope, m wire.SyncPage) {
	if e.syncer == nil {
		return
	}
	outs, done, chunks := e.syncer.OnPage(env.From, env.Epoch, m)
	if done != nil {
		e.finishBootstrap(done.Manifest)
	}
	e.stageSyncChunks(chunks)
	e.emitSyncOuts(outs)
	if e.syncer != nil && e.syncer.Done() {
		e.mergeSyncerStats()
	}
}

// finishBootstrap installs the verified manifest (nil on the
// no-checkpoint fallback) and hands off to the status catch-up for the
// live tail.
func (e *Engine) finishBootstrap(m *store.Manifest) {
	if m != nil && e.installManifest(m) {
		e.syncStats.LastSyncEpoch = m.Epoch
		e.actions = append(e.actions, SyncInstallAction{Epoch: m.Epoch, Committed: m.Committed})
		// Post-sync retrievals behave like post-crash ones: resend
		// variants with retry timers, until delivery reaches the
		// frontier the catch-up finds.
		e.recovered = true
	}
	e.startCatchup()
}

// installManifest bootstraps the engine to the manifest's position.
// Everything at or before the position is subsumed by the checkpoint;
// per-epoch state beyond it (allocated by live traffic that arrived
// mid-bootstrap) is rebuilt through the catch-up and live participation.
func (e *Engine) installManifest(m *store.Manifest) bool {
	if m.N != e.cfg.N || len(m.LinkedFloor) != e.cfg.N || m.Epoch <= e.deliveredEpoch {
		return false
	}
	oldEpochs := e.epochs
	e.epochs = map[uint64]*epochState{}
	e.retr = map[blockKey]*retrState{}
	e.delivered = map[blockKey]bool{}
	e.deliveries = map[uint64]*epochDelivery{}
	e.myBlocks = map[uint64]*wire.Block{}
	e.decidedSet = map[uint64]bool{}
	e.sched = newRetrSched(e.cfg.N, e.params.K())
	// Staged donor chunks from a previous sync reference pre-install
	// epochs; left behind they would strand budget (only deliverBlock
	// and maybePrune drop them, and neither visits synced-over keys).
	e.syncStaged = nil
	e.stagedCount = 0
	for j := range e.vidDone {
		e.vidDone[j] = map[uint64]bool{}
	}
	e.deliveredEpoch = m.Epoch
	e.decidedThrough = m.Epoch
	e.prunedThrough = m.Epoch
	copy(e.linkedFloor, m.LinkedFloor)
	for j := range e.watermark {
		// Adopting the floor as the completion watermark is sound:
		// epochs at or below floor[j] are delivered, so node j's blocks
		// there exist and are retrievable — exactly the promise a V
		// entry makes to the linking computation. Chunk back-fill
		// advances it further as the tail delivers.
		if m.LinkedFloor[j] > e.watermark[j] {
			e.watermark[j] = m.LinkedFloor[j]
		}
	}
	if m.Epoch > e.lastProposed {
		e.lastProposed = m.Epoch
	}
	for _, b := range m.Blocks {
		e.restoreBlock(b.Epoch, b.Proposer, b.Bad, b.V)
	}
	// BA vote state: everything at or below the installed epoch is stale
	// round state for outcomes the checkpoint already carries — discarded
	// with the epochs map (messages for those epochs are dropped by the
	// prunedThrough guard, so the discarded votes can never be
	// contradicted). Instances ABOVE the install point may hold votes
	// this node already put on the wire; carry exactly the BA automata
	// across (their journals and sent-guards intact) so post-sync
	// participation in those epochs cannot equivocate. The rest of the
	// per-epoch state (VIDs, retrievals) is rebuilt by catch-up and live
	// traffic as before.
	carried := make([]uint64, 0, len(oldEpochs))
	for epoch := range oldEpochs {
		if epoch > m.Epoch {
			carried = append(carried, epoch)
		}
	}
	sort.Slice(carried, func(a, b int) bool { return carried[a] < carried[b] })
	for _, epoch := range carried {
		for j, b := range oldEpochs[epoch].bas {
			if b != nil {
				e.epochState(epoch).bas[j] = b
			}
		}
	}
	// Carried instances that decided DURING the bootstrap need their
	// decision tail run explicitly, or their slot wedges the epoch (see
	// runRestoredDecisions).
	e.runRestoredDecisions(carried)
	return true
}

// frontierBlocks captures the objective delivered-block window of the
// canonical manifest at delivered position u: every delivered block
// still consultable by future engine steps — beyond the per-node
// linked floors and beyond the retention horizon. The horizon cutoff
// must be horizonFloor(u), a function of the position alone: the local
// prunedThrough is NOT objective (a freshly-synced node's sits at its
// install epoch until delivery outruns it), and filtering on it would
// make synced nodes attest manifest hashes no full node ever matches.
// Sorted, so the action stream stays replayable byte-for-byte.
func (e *Engine) frontierBlocks(u uint64) []store.ManifestBlock {
	horizon := e.horizonFloor(u)
	return e.deliveredBlocks(func(key blockKey) bool {
		return key.epoch > e.linkedFloor[key.proposer] && key.epoch > horizon
	})
}

// ----- Imported chunks -----

// stageSyncChunks routes verified donor chunks: straight into an active
// retrieval when one exists, staged (bounded) for retrievals the
// catch-up has not started yet.
func (e *Engine) stageSyncChunks(chunks []statesync.ImportedChunk) {
	for _, c := range chunks {
		if c.Rec.Proposer < 0 || c.Rec.Proposer >= e.cfg.N || c.From < 0 || c.From >= e.cfg.N {
			continue
		}
		key := blockKey{c.Rec.Epoch, c.Rec.Proposer}
		if e.delivered[key] || key.epoch <= e.prunedThrough {
			continue
		}
		rc := wire.ReturnChunk{Root: c.Rec.Root, Data: c.Rec.Data, Proof: c.Rec.Proof}
		if rs := e.retr[key]; rs != nil {
			if !rs.done && rs.ret != nil {
				e.ingestReturnChunk(key, rs, c.From, rc)
			}
			continue
		}
		if e.syncStaged == nil {
			e.syncStaged = map[blockKey]map[int]wire.ReturnChunk{}
		}
		m := e.syncStaged[key]
		if m == nil {
			if e.stagedCount >= statesync.MaxStagedChunks {
				continue
			}
			m = map[int]wire.ReturnChunk{}
			e.syncStaged[key] = m
		}
		if _, ok := m[c.From]; !ok {
			if e.stagedCount >= statesync.MaxStagedChunks {
				continue
			}
			m[c.From] = rc
			e.stagedCount++
		}
	}
}

// drainStaged feeds staged sync chunks into a just-started retrieval;
// reports whether they completed it outright (no requests needed).
func (e *Engine) drainStaged(key blockKey, rs *retrState) bool {
	m := e.syncStaged[key]
	if m == nil {
		return false
	}
	froms := make([]int, 0, len(m))
	for from := range m {
		froms = append(froms, from)
	}
	sort.Ints(froms)
	for _, from := range froms {
		if e.ingestReturnChunk(key, rs, from, m[from]) {
			break
		}
	}
	e.dropStaged(key)
	return rs.done
}

func (e *Engine) dropStaged(key blockKey) {
	if m := e.syncStaged[key]; m != nil {
		e.stagedCount -= len(m)
		delete(e.syncStaged, key)
	}
}

// ----- Chunk back-fill -----

// advanceWatermark records a VID completion and advances the per-node
// completion watermark through any newly-contiguous prefix.
func (e *Engine) advanceWatermark(proposer int, epoch uint64) {
	if epoch <= e.watermark[proposer] {
		return
	}
	e.vidDone[proposer][epoch] = true
	e.advanceContiguous(proposer)
}

// advanceContiguous consumes the contiguous run of recorded completions
// above the watermark (shared by live completion, chunk back-fill, and
// the hard-prune watermark jump).
func (e *Engine) advanceContiguous(j int) {
	for e.vidDone[j][e.watermark[j]+1] {
		delete(e.vidDone[j], e.watermark[j]+1)
		e.watermark[j]++
	}
}

// backfillOwnChunk reconstructs this node's AVID chunk from a block just
// retrieved over the network and adopts the VID completion. The agreed
// root is trustworthy — K proof-valid chunks from distinct servers plus
// the re-encoding check pin it, the same argument live retrieval rests
// on — so the adoption claims nothing a Byzantine donor could have
// planted. This is what lets a state-synced joiner serve chunks (and
// recover its completion watermark) for epochs it never participated
// in, and any lagging node become a useful server for blocks it had to
// download anyway.
func (e *Engine) backfillOwnChunk(key blockKey, raw []byte) {
	if key.epoch <= e.prunedThrough {
		return
	}
	// The steady state for the foreign blocks of every epoch: this node's
	// server completed live and holds its chunk. Adopting the completion
	// again would change nothing, so skip recomputing the chunk — a full
	// Reed–Solomon encode plus an N-leaf Merkle tree per retrieved block.
	if e.holdsChunk(key) {
		return
	}
	root, data, proof, err := avid.OwnChunk(e.params, e.self, raw)
	if err != nil {
		return
	}
	v := e.vid(key.epoch, key.proposer)
	wasDone, _ := v.Completed()
	outs := v.AdoptComplete(root, data, proof)
	for _, o := range outs {
		out := wire.Envelope{From: e.self, Epoch: key.epoch, Proposer: key.proposer, Payload: o.Msg}
		e.emit(o.To, out, e.priorityFor(o.Msg), key.epoch)
	}
	if done, _ := v.Completed(); !done {
		return
	}
	if !wasDone {
		e.advanceWatermark(key.proposer, key.epoch)
		if !e.cfg.Mode.voteAfterRetrieve() && !e.isDecided(key.epoch) {
			// The completion is genuine (the block was committed or
			// linked), so the vote the live path would have cast on
			// completion is due now.
			e.inputBA(key.epoch, key.proposer, true)
		}
	}
}
