package core

// Crash recovery. A node's durable footprint has three parts (package
// store): the WAL of protocol outcomes, the chunk store of AVID
// fragments, and periodic engine snapshots. This file turns those back
// into a running engine:
//
//   - Restore rebuilds engine state from snapshot + WAL replay + chunk
//     records. It runs on a fresh engine, before Start.
//   - Start (seeing e.recovered) re-arms the runtime machinery the state
//     alone cannot express: retrievals for decided-but-undelivered
//     epochs, re-votes for restored dispersals, and the status catch-up.
//   - The status protocol re-learns decisions the node slept through.
//     Peers do not repeat what they said meanwhile, and decided epochs'
//     instances are gone from every journal, so a restarted node asks
//     its peers and adopts an epoch's outcome only on f+1 identical
//     replies — the usual quorum argument: at most f are Byzantine, so
//     one honest witness vouches for the outcome, and agreement says all
//     honest witnesses report the same set.
//
// Recovery model: outcomes (decisions, deliveries, completed dispersals)
// are durable and never contradicted — replay is deterministic and the
// post-restart delivery sequence is a consistent continuation. In-flight
// BA votes are persisted too (store.RecVote, written before each vote
// reaches the wire and group-committed with its step): Restore rebuilds
// the round state of every undecided instance from the journal, Start
// re-broadcasts exactly the recorded votes (a halted instance's: its
// Term), and the restored guards make a contradictory vote impossible —
// so a restart no longer consumes fault budget, and a whole-cluster
// simultaneous restart of in-flight epochs is correct by construction
// (the union of all journals is a faithful copy of what anyone said).
// Only datadirs written before vote persistence retain the old
// Byzantine-absorption caveat for their first restart.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"dledger/internal/avid"
	"dledger/internal/ba"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// Snapshot is the engine's durable state at a WAL position, saved as the
// checkpoint payload and applied before WAL replay on recovery.
type Snapshot struct {
	LastProposed   uint64
	DecidedThrough uint64
	DeliveredEpoch uint64
	PrunedThrough  uint64
	Watermark      []uint64
	LinkedFloor    []uint64
	// Decided lists resident decided epochs with their committed sets
	// (needed to rebuild the delivery pipeline and to answer peers'
	// StatusRequests after a restart).
	Decided []SnapEpoch
	// Blocks lists delivered blocks with their observation arrays
	// (needed so later epochs' linking computations still have the
	// observations, and so nothing is delivered twice).
	Blocks []store.ManifestBlock
	// MyBlocks carries this node's still-resident proposals (encoded),
	// so a restarted node can re-disperse an in-flight block and serve
	// its own undelivered blocks locally even after the WAL records that
	// carried them were compacted away.
	MyBlocks []SnapMyBlock
	// Votes carries the vote journals of in-flight (undecided-epoch) BA
	// instances. The WAL's RecVote records cover votes since the
	// checkpoint; this section covers the ones the checkpoint's
	// compaction dropped — without it, a checkpoint taken while an epoch
	// is still in flight would forget votes already on the wire and
	// reopen the equivocation window. Instances of decided epochs are
	// deliberately absent: their outcome is installed by Decided, and
	// the engine refuses to grow fresh votable instances for them.
	Votes []SnapVotes
}

// SnapEpoch is one decided epoch in a Snapshot.
type SnapEpoch struct {
	Epoch uint64
	S     []int
}

// SnapMyBlock is one resident own-proposal in a Snapshot.
type SnapMyBlock struct {
	Epoch uint64
	Block []byte
}

// SnapVotes is one in-flight BA instance's vote journal in a Snapshot.
// A halted instance's journal is its Term alone; Halted brings it back
// halted, so a restore does not grow a votable instance where the
// previous incarnation had released its round journal.
type SnapVotes struct {
	Epoch    uint64
	Proposer int
	Halted   bool
	Votes    []ba.Vote
}

// Snapshot captures the engine's durable state. Call it between steps
// (the replica calls it on its event loop) so the state is consistent
// with the WAL position.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		LastProposed:   e.lastProposed,
		DecidedThrough: e.decidedThrough,
		DeliveredEpoch: e.deliveredEpoch,
		PrunedThrough:  e.prunedThrough,
		Watermark:      append([]uint64(nil), e.watermark...),
		LinkedFloor:    append([]uint64(nil), e.linkedFloor...),
	}
	for epoch, es := range e.epochs {
		if es.decided {
			s.Decided = append(s.Decided, SnapEpoch{Epoch: epoch, S: append([]int(nil), es.S...)})
		}
	}
	s.Blocks = e.deliveredBlocks(nil)
	for epoch, blk := range e.myBlocks {
		s.MyBlocks = append(s.MyBlocks, SnapMyBlock{Epoch: epoch, Block: blk.Encode()})
	}
	for epoch, es := range e.epochs {
		if es.decided {
			continue
		}
		for j, b := range es.bas {
			if b == nil {
				continue
			}
			votes := b.Votes()
			if len(votes) == 0 && !b.Halted() {
				continue
			}
			s.Votes = append(s.Votes, SnapVotes{Epoch: epoch, Proposer: j, Halted: b.Halted(), Votes: votes})
		}
	}
	sort.Slice(s.Votes, func(a, b int) bool {
		if s.Votes[a].Epoch != s.Votes[b].Epoch {
			return s.Votes[a].Epoch < s.Votes[b].Epoch
		}
		return s.Votes[a].Proposer < s.Votes[b].Proposer
	})
	sort.Slice(s.Decided, func(a, b int) bool { return s.Decided[a].Epoch < s.Decided[b].Epoch })
	sort.Slice(s.MyBlocks, func(a, b int) bool { return s.MyBlocks[a].Epoch < s.MyBlocks[b].Epoch })
	return s
}

// deliveredBlocks lists the delivered blocks that keep passes (nil: all
// of them), each with its observation array when one was kept, sorted by
// (epoch, proposer) — the entries of a snapshot and of a state-sync
// manifest.
func (e *Engine) deliveredBlocks(keep func(blockKey) bool) []store.ManifestBlock {
	var out []store.ManifestBlock
	for key := range e.delivered {
		if keep != nil && !keep(key) {
			continue
		}
		b := store.ManifestBlock{Epoch: key.epoch, Proposer: key.proposer, Bad: true}
		if rs := e.retr[key]; rs != nil && !rs.bad && rs.V != nil {
			b.Bad = false
			b.V = append([]uint64(nil), rs.V...)
		}
		out = append(out, b)
	}
	store.SortManifestBlocks(out)
	return out
}

// ----- Snapshot codec (deterministic binary, like package wire) -----

// Encode serializes the snapshot.
func (s *Snapshot) Encode() []byte {
	buf := make([]byte, 0, 64+16*(len(s.Watermark)+len(s.Decided)+len(s.Blocks)))
	buf = binary.BigEndian.AppendUint64(buf, s.LastProposed)
	buf = binary.BigEndian.AppendUint64(buf, s.DecidedThrough)
	buf = binary.BigEndian.AppendUint64(buf, s.DeliveredEpoch)
	buf = binary.BigEndian.AppendUint64(buf, s.PrunedThrough)
	// One count for both per-node arrays.
	buf = wire.AppendU64s(buf, s.Watermark)
	for _, v := range s.LinkedFloor {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Decided)))
	for _, d := range s.Decided {
		buf = binary.BigEndian.AppendUint64(buf, d.Epoch)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(d.S)))
		for _, j := range d.S {
			buf = binary.BigEndian.AppendUint16(buf, uint16(j))
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Blocks)))
	for _, b := range s.Blocks {
		buf = b.AppendTo(buf)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.MyBlocks)))
	for _, m := range s.MyBlocks {
		buf = binary.BigEndian.AppendUint64(buf, m.Epoch)
		buf = wire.AppendBytes(buf, m.Block)
	}
	// Vote section (appended last: snapshots from before vote persistence
	// simply end here and decode with no votes).
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Votes)))
	for _, v := range s.Votes {
		buf = binary.BigEndian.AppendUint64(buf, v.Epoch)
		buf = binary.BigEndian.AppendUint16(buf, uint16(v.Proposer))
		buf = wire.AppendBool(buf, v.Halted)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Votes)))
		for _, vt := range v.Votes {
			buf = append(buf, byte(vt.Kind))
			buf = binary.BigEndian.AppendUint32(buf, vt.Round)
			buf = wire.AppendBool(buf, vt.Value)
		}
	}
	return buf
}

var errBadSnapshot = errors.New("core: malformed snapshot")

// DecodeSnapshot parses Encode output.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	r := wire.NewReader(data)
	s := &Snapshot{LastProposed: r.U64(), DecidedThrough: r.U64(), DeliveredEpoch: r.U64(), PrunedThrough: r.U64()}
	n := r.Count(int(r.U16()), 16)
	s.Watermark, s.LinkedFloor = r.U64s(n), r.U64s(n)
	for nd := r.Count(int(r.U32()), 10); nd > 0 && r.Err() == nil; nd-- {
		s.Decided = append(s.Decided, SnapEpoch{Epoch: r.U64(), S: r.NodeIDs(int(r.U16()))})
	}
	s.Blocks = store.ReadManifestBlocks(r)
	for nm := r.Count(int(r.U32()), 12); nm > 0 && r.Err() == nil; nm-- {
		s.MyBlocks = append(s.MyBlocks, SnapMyBlock{Epoch: r.U64(), Block: r.Bytes32()})
	}
	// A pre-vote-persistence snapshot ends here: no vote section.
	if r.Len() > 0 {
		for nv := r.Count(int(r.U32()), 15); nv > 0 && r.Err() == nil; nv-- {
			v := SnapVotes{Epoch: r.U64(), Proposer: int(r.U16()), Halted: r.U8()&1 != 0}
			for cnt := r.Count(int(r.U32()), 6); cnt > 0; cnt-- {
				v.Votes = append(v.Votes, ba.Vote{Kind: ba.VoteKind(r.U8()), Round: r.U32(), Value: r.Bool()})
			}
			s.Votes = append(s.Votes, v)
		}
	}
	if r.Done() != nil {
		return nil, errBadSnapshot
	}
	return s, nil
}

// ----- Restore -----

// Restore rebuilds engine state from a checkpoint snapshot (may be nil),
// the WAL records after it (in LSN order), and the chunk store. It must
// run on a fresh engine, before Start.
func (e *Engine) Restore(snap *Snapshot, recs []store.Record, chunks []store.ChunkRecord) error {
	if e.lastProposed != 0 || e.deliveredEpoch != 0 || len(e.epochs) != 0 {
		return errors.New("core: Restore requires a fresh engine")
	}
	if snap != nil {
		if len(snap.Watermark) != e.cfg.N || len(snap.LinkedFloor) != e.cfg.N {
			return fmt.Errorf("core: snapshot is for N=%d, engine has N=%d", len(snap.Watermark), e.cfg.N)
		}
		e.lastProposed = snap.LastProposed
		e.deliveredEpoch = snap.DeliveredEpoch
		e.decidedThrough = snap.DecidedThrough
		e.prunedThrough = snap.PrunedThrough
		copy(e.watermark, snap.Watermark)
		copy(e.linkedFloor, snap.LinkedFloor)
		for _, d := range snap.Decided {
			e.markDecided(d.Epoch, d.S)
		}
		for _, b := range snap.Blocks {
			e.restoreBlock(b.Epoch, b.Proposer, b.Bad, b.V)
		}
		for _, m := range snap.MyBlocks {
			e.restoreMyBlock(m.Epoch, m.Block)
		}
	}
	// Vote journals concatenate snapshot state with the WAL records after
	// it (the WAL suffix is strictly newer, so order is preserved); the
	// instances are rebuilt only after every record has been applied, so
	// journals of epochs that decided before the crash are discarded —
	// matching the live policy that decided epochs' outcomes, not their
	// round state, are what survives.
	votes := map[blockKey][]ba.Vote{}
	halted := map[blockKey]bool{}
	if snap != nil {
		for _, sv := range snap.Votes {
			key := blockKey{sv.Epoch, sv.Proposer}
			votes[key] = append(votes[key], sv.Votes...)
			if sv.Halted {
				halted[key] = true
			}
		}
	}
	for _, rec := range recs {
		if rec.Type == store.RecVote {
			key := blockKey{rec.Epoch, rec.Proposer}
			votes[key] = append(votes[key], ba.Vote{
				Kind: ba.VoteKind(rec.VoteKind), Round: rec.Round, Value: rec.Value,
			})
			continue
		}
		e.applyRecord(rec)
	}
	e.restoreBAs(votes, halted)
	e.restoreChunks(chunks)
	// Own blocks that already delivered (or whose slot was dropped by a
	// decided epoch) are dead weight; shed them like the live path does.
	for epoch := range e.myBlocks {
		key := blockKey{epoch, e.self}
		es := e.epochs[epoch]
		dropped := es != nil && es.decided && es.baOut[e.self] == 0 && !e.delivered[key]
		if e.delivered[key] || dropped || epoch <= e.prunedThrough {
			delete(e.myBlocks, epoch)
		}
	}
	e.recovered = true
	return nil
}

// restoreMyBlock re-installs one of our own proposals from its durable
// encoding.
func (e *Engine) restoreMyBlock(epoch uint64, enc []byte) {
	blk, err := wire.DecodeBlock(enc)
	if err != nil || blk.Epoch != epoch || blk.Proposer != e.self {
		return
	}
	e.myBlocks[epoch] = blk
	if epoch > e.lastProposed {
		e.lastProposed = epoch
	}
}

// markDecided installs an epoch's decision without re-running the
// decision tail (pipeline creation happens in resumeRecovered, so replay
// stays side-effect free).
func (e *Engine) markDecided(epoch uint64, S []int) {
	if epoch == 0 {
		return
	}
	es := e.epochState(epoch)
	if es.decided {
		return
	}
	es.decided = true
	es.outs = e.cfg.N
	for j := range es.baOut {
		es.baOut[j] = 0
	}
	for _, j := range S {
		if j < 0 || j >= e.cfg.N {
			continue
		}
		if es.baOut[j] != 1 {
			es.baOut[j] = 1
			es.ones++
			es.S = append(es.S, j)
		}
	}
	sort.Ints(es.S)
	if epoch > e.decidedThrough {
		e.decidedSet[epoch] = true
		for e.decidedSet[e.decidedThrough+1] {
			delete(e.decidedSet, e.decidedThrough+1)
			e.decidedThrough++
		}
	}
}

func (e *Engine) restoreBlock(epoch uint64, proposer int, bad bool, v []uint64) {
	if epoch == 0 || proposer < 0 || proposer >= e.cfg.N {
		return
	}
	key := blockKey{epoch, proposer}
	e.delivered[key] = true
	if e.retr[key] == nil {
		rs := &retrState{done: true, bad: bad}
		if !bad && len(v) == e.cfg.N {
			rs.V = v
		} else {
			rs.bad = true
		}
		e.retr[key] = rs
	}
}

func (e *Engine) applyRecord(rec store.Record) {
	switch rec.Type {
	case store.RecProposed:
		if rec.Epoch > e.lastProposed {
			e.lastProposed = rec.Epoch
		}
		e.restoreMyBlock(rec.Epoch, rec.Block)
	case store.RecDecided:
		e.markDecided(rec.Epoch, rec.S)
	case store.RecBlock:
		e.restoreBlock(rec.Epoch, rec.Proposer, false, rec.V)
	case store.RecEpochDone:
		if rec.Epoch > e.deliveredEpoch {
			e.deliveredEpoch = rec.Epoch
		}
		if len(rec.Floor) == e.cfg.N {
			copy(e.linkedFloor, rec.Floor)
		}
	}
}

// restoreBAs rebuilds in-flight BA instances from recovered vote
// journals (see ba.Restore): sent-state guards and the round position
// come back, so the restored node re-sends exactly its pre-crash votes
// (resumeRecovered broadcasts them) and can never contradict them.
// Journals of decided or pruned epochs are dropped — their outcome is
// already installed, and toBA/inputBA refuse to grow fresh votable
// instances for decided epochs, so nothing can equivocate there either.
// Halted-only instances are present in votes too (the snapshot loop in
// Restore registers every instance's key, journal or not).
func (e *Engine) restoreBAs(votes map[blockKey][]ba.Vote, halted map[blockKey]bool) {
	for key, vs := range votes {
		e.restoreBA(key, halted[key], vs)
	}
}

// runRestoredDecisions runs the decision tail for restored (or
// sync-carried) instances that re-enter with Decided() already true:
// the toBA/inputBA decision-edge (nowDecided && !wasDecided) can never
// fire for them again, so without this pass their slot's baOut would
// stay pending forever and the epoch could only decide through catch-up
// adoption — which misses epochs the cluster finishes right after the
// catch-up passes them, wedging delivery (found by driving a real TCP
// cluster: high epoch rates make the window routine; it shows up as a
// bootstrap re-sync loop). Callers pass epochs in sorted order so
// seeded replays stay byte-identical; onBADecided is idempotent.
func (e *Engine) runRestoredDecisions(epochs []uint64) {
	for _, epoch := range epochs {
		es := e.epochs[epoch]
		if es == nil || es.decided {
			continue
		}
		for j, b := range es.bas {
			if b == nil {
				continue
			}
			if d, v := b.Decided(); d {
				e.onBADecided(epoch, j, v)
			}
		}
	}
}

func (e *Engine) restoreBA(key blockKey, halted bool, vs []ba.Vote) {
	if key.epoch == 0 || key.epoch <= e.prunedThrough ||
		key.proposer < 0 || key.proposer >= e.cfg.N || e.isDecided(key.epoch) {
		return
	}
	es := e.epochState(key.epoch)
	if es.bas[key.proposer] != nil {
		return
	}
	b := ba.Restore(e.cfg.N, e.cfg.F, e.coins.ForInstance(key.epoch, key.proposer), halted, vs)
	b.SetJournal(e.voteJournal(key.epoch, key.proposer))
	es.bas[key.proposer] = b
}

// restoreChunks rebuilds the VID servers whose dispersals had completed
// and recomputes the completion watermark that feeds our V arrays. Only
// durably-recorded completions count, so the restored watermark never
// overstates what this node can back.
func (e *Engine) restoreChunks(chunks []store.ChunkRecord) {
	for _, c := range chunks {
		if c.Epoch == 0 || c.Epoch <= e.prunedThrough || c.Proposer < 0 || c.Proposer >= e.cfg.N {
			continue
		}
		es := e.epochState(c.Epoch)
		if es.vids[c.Proposer] == nil {
			es.vids[c.Proposer] = avid.RestoreServer(e.params, e.self, c.Root, c.HasChunk, c.Data, c.Proof)
		}
		e.advanceWatermark(c.Proposer, c.Epoch)
	}
}

// resumeRecovered re-arms runtime machinery after Restore, from Start.
// Every loop below walks its map in sorted epoch order: the messages and
// timers emitted here feed the deterministic emulator, and replaying a
// seeded chaos run byte-for-byte requires the restart step to emit in a
// fixed order too.
func (e *Engine) resumeRecovered() {
	// Re-disperse in-flight proposals: identical chunks under the same
	// root, so this is idempotent at every server, and it revives epochs
	// whose original dispersal died with this process (without it, a
	// cluster-wide restart could leave an epoch no node can ever decide).
	for _, epoch := range sortedEpochs(e.myBlocks) {
		blk := e.myBlocks[epoch]
		if e.isDecided(epoch) {
			continue
		}
		chunks, _, err := avid.Disperse(e.params, blk.Encode())
		if err != nil {
			continue
		}
		for i, c := range chunks {
			env := wire.Envelope{From: e.self, Epoch: epoch, Proposer: e.self, Payload: c}
			if i == e.self {
				e.queue = append(e.queue, env)
			} else {
				e.actions = append(e.actions, SendAction{To: i, Env: env, Prio: wire.PrioDispersal})
			}
		}
	}

	// Rebuild the delivery pipeline for decided-but-undelivered epochs
	// and (re)start their retrievals. Blocks already delivered have
	// restored retrState entries and are skipped by the idempotent
	// startRetrieval; re-running a BA stage re-derives the same linked
	// set from the same restored observations.
	epochOrder := sortedEpochs(e.epochs)
	for _, epoch := range epochOrder {
		es := e.epochs[epoch]
		if !es.decided || epoch <= e.deliveredEpoch {
			continue
		}
		if e.deliveries[epoch] == nil {
			e.queueDelivery(epoch, append([]int(nil), es.S...))
		}
	}
	e.pumpRetrievals()
	// Re-send the recorded votes of every in-flight agreement instance.
	// The journal is exactly what the previous incarnation put on the
	// wire (plus any votes synced but never transmitted); receivers
	// dedup, so re-sending is idempotent. After a whole-cluster
	// simultaneous restart these re-sends are the only surviving copy of
	// the in-flight rounds — every node's received-state died with it —
	// so agreement resumes from the union of the journals by
	// construction instead of relying on benign scheduling.
	for _, epoch := range epochOrder {
		es := e.epochs[epoch]
		if es.decided {
			continue
		}
		for j, b := range es.bas {
			if b == nil {
				continue
			}
			for _, s := range b.ResendVotes() {
				out := wire.Envelope{From: e.self, Epoch: epoch, Proposer: j, Payload: s.Msg}
				e.emit(s.To, out, wire.PrioDispersal, 0)
			}
		}
	}
	// Restored instances that had decided before the crash (their Term is
	// in the journal) need their decision tail run explicitly (see
	// runRestoredDecisions). This runs after the re-send loop so the
	// fresh votes the N−f rule may cast here are sent once, not re-sent.
	e.runRestoredDecisions(epochOrder)
	// Re-enter agreement for restored dispersals whose epoch is still
	// undecided: DL votes on completion, HB votes after re-downloading.
	// The vote was likely cast in the previous life; receivers dedup.
	for _, epoch := range epochOrder {
		es := e.epochs[epoch]
		if es.decided || epoch <= e.decidedThrough {
			continue
		}
		for j, v := range es.vids {
			if v == nil {
				continue
			}
			if done, _ := v.Completed(); !done {
				continue
			}
			if e.cfg.Mode.voteAfterRetrieve() {
				e.startRetrieval(blockKey{epoch, j})
			} else {
				e.inputBA(epoch, j, true)
			}
		}
	}
	e.tryDeliver()
	e.startCatchup()
}

// sortedEpochs returns a map's epoch keys in ascending order.
func sortedEpochs[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// ----- Status catch-up protocol -----

// startCatchup begins asking peers for decisions made while this node
// was down.
func (e *Engine) startCatchup() {
	e.catchup = &catchupState{through: map[int]uint64{}}
	e.requestStatus()
}

// requestStatus (re)broadcasts the StatusRequest for the next epoch this
// node has not seen decide, and arms the retry timer.
func (e *Engine) requestStatus() {
	cu := e.catchup
	cu.epoch = e.decidedThrough + 1
	cu.decided = map[int][]byte{}
	cu.notDecided = map[int]bool{}
	env := wire.Envelope{From: e.self, Epoch: cu.epoch, Proposer: 0, Payload: wire.StatusRequest{}}
	for i := 0; i < e.cfg.N; i++ {
		if i != e.self {
			e.emit(i, env, wire.PrioDispersal, 0)
		}
	}
	e.catchupToken = e.armTimer(catchupRetry)
}

func (e *Engine) finishCatchup() {
	if e.catchup != nil {
		e.actions = append(e.actions, CatchupDoneAction{})
	}
	e.catchup = nil
	e.catchupToken = 0
	// Recovery mode persists until delivery drains to the frontier the
	// catch-up reached (tryDeliver clears it); if we are already there,
	// clear it now.
	e.recoveredUntil = e.decidedThrough
	if e.deliveredEpoch >= e.recoveredUntil {
		e.recovered = false
	}
}

// onStatusRequest answers a recovering peer from resident state. For
// epochs we pruned or never decided the reply carries only our decided
// watermark; some other peer within the retention horizon serves the set.
func (e *Engine) onStatusRequest(env wire.Envelope) {
	if env.From < 0 || env.From >= e.cfg.N || env.From == e.self {
		return
	}
	rep := wire.StatusReply{Through: e.decidedThrough}
	if es, ok := e.epochs[env.Epoch]; ok && es.decided {
		rep.Decided = true
		rep.S = wire.SetBitmap(es.S, e.cfg.N)
	}
	out := wire.Envelope{From: e.self, Epoch: env.Epoch, Proposer: env.Proposer, Payload: rep}
	e.emit(env.From, out, wire.PrioDispersal, 0)
}

// onStatusReply collects peers' claims while catching up. An epoch's
// outcome is adopted on f+1 identical claims; f+1 "undecided" claims
// mean at least one honest peer is still running the epoch's agreement,
// whose ongoing broadcasts will carry us the rest of the way — catch-up
// ends and normal participation takes over.
func (e *Engine) onStatusReply(env wire.Envelope, m wire.StatusReply) {
	cu := e.catchup
	if cu == nil || env.From < 0 || env.From >= e.cfg.N || env.From == e.self {
		return
	}
	if m.Through > cu.through[env.From] {
		cu.through[env.From] = m.Through
	}
	// Normal agreement may have decided our current target while replies
	// were in flight; move the target forward before judging replies.
	if cu.epoch <= e.decidedThrough {
		e.advanceCatchup()
		return
	}
	if env.Epoch != cu.epoch {
		return // stale reply for an earlier target; Through was recorded
	}
	if !m.Decided {
		cu.notDecided[env.From] = true
		// "Undecided" from f+1 peers normally means we are at the
		// frontier — but a peer that PRUNED the epoch also replies
		// undecided, with a Through watermark far ahead. Finish only
		// when no f+1-supported claim places the cluster ahead of us.
		if len(cu.notDecided) >= e.cfg.F+1 && e.catchupTarget() <= e.decidedThrough {
			e.finishCatchup()
			return
		}
		// The cluster is ahead, yet f+1 peers whose decided watermark
		// covers this epoch report it undecided: at least one honest
		// peer garbage-collected it, which means this node slept past
		// the retention horizon and replaying history is impossible.
		// With state sync enabled, bootstrap from a checkpoint instead;
		// without it, keep asking (a peer with longer retention may
		// still serve the set), staying visibly in catch-up rather than
		// proposing into epochs every peer would drop.
		if e.cfg.StateSync {
			pruned := 0
			for p := range cu.notDecided {
				if cu.through[p] >= cu.epoch {
					pruned++
				}
			}
			if pruned >= e.cfg.F+1 {
				e.startStateSync()
			}
		}
		return
	}
	bm := append([]byte(nil), m.S...)
	cu.decided[env.From] = bm
	matches := 0
	for _, other := range cu.decided {
		if bytes.Equal(other, bm) {
			matches++
		}
	}
	if matches < e.cfg.F+1 {
		return
	}
	S := wire.BitmapSet(bm, e.cfg.N)
	e.adoptDecided(cu.epoch, S)
	e.advanceCatchup()
}

// advanceCatchup re-targets the next undecided epoch, or ends catch-up
// once no f+1-supported claim places the cluster ahead of us.
func (e *Engine) advanceCatchup() {
	cu := e.catchup
	if cu == nil {
		return
	}
	if e.catchupTarget() > e.decidedThrough {
		e.requestStatus()
		return
	}
	e.finishCatchup()
}

// catchupTarget returns the highest decided watermark supported by f+1
// peer claims (so at least one honest peer has decided through it).
func (e *Engine) catchupTarget() uint64 {
	cu := e.catchup
	vals := make([]uint64, 0, len(cu.through))
	for _, v := range cu.through {
		vals = append(vals, v)
	}
	if len(vals) <= e.cfg.F {
		return 0
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] > vals[b] })
	return vals[e.cfg.F]
}

// adoptDecided installs an epoch outcome learned through the status
// protocol and runs the normal decision tail (delivery pipeline,
// retrievals, proposal solicitation).
func (e *Engine) adoptDecided(epoch uint64, S []int) {
	es := e.epochState(epoch)
	if es.decided {
		return
	}
	e.markDecided(epoch, S)
	// markDecided advanced decidedThrough; run the decision tail the BA
	// path would have run (minus HB re-proposal: myBlocks did not
	// survive the crash, so there is nothing to resubmit).
	e.actions = append(e.actions, EpochDecidedAction{Epoch: epoch, S: append([]int(nil), es.S...)})
	e.queueDelivery(epoch, append([]int(nil), es.S...))
	e.pumpRetrievals()
	e.tryDeliver()
	e.maybeSolicitProposal()
}

// CatchingUp reports whether the recovery status protocol (or a
// state-sync bootstrap, which precedes it) is running. The replica holds
// proposals while it is true.
func (e *Engine) CatchingUp() bool { return e.catchup != nil || e.syncBootstrapping() }
