package core

// Vote-persistence tests: the crash-recovery guarantee the WAL's RecVote
// records buy. The headline properties:
//
//   - a restarted node re-sends exactly (byte-identically) the BA votes
//     its previous incarnation put on the wire for still-in-flight
//     epochs, and
//   - under an adversarial post-restart message schedule it never sends
//     a vote contradicting a pre-crash one — whereas the same engine
//     restored from a vote-free WAL (the seed format) demonstrably does.

import (
	"bytes"
	"fmt"
	"testing"

	"dledger/internal/avid"
	"dledger/internal/ba"
	"dledger/internal/store"
	"dledger/internal/wire"
)

func isBAMsg(m wire.Msg) bool {
	switch m.(type) {
	case wire.BVal, wire.Aux, wire.Term:
		return true
	}
	return false
}

// walCollector mimics the replica's persistStep for one node: every
// durable action becomes its WAL record (in action order, like the real
// group commit), chunk records are superseded per instance.
type walCollector struct {
	recs   []store.Record
	chunks map[blockKey]store.ChunkRecord
}

func newWALCollector() *walCollector {
	return &walCollector{chunks: map[blockKey]store.ChunkRecord{}}
}

func (w *walCollector) observe(a Action) {
	switch act := a.(type) {
	case ProposalMadeAction:
		w.recs = append(w.recs, store.Record{Type: store.RecProposed, Epoch: act.Epoch, Block: act.Block})
	case VoteCastAction:
		w.recs = append(w.recs, store.Record{
			Type: store.RecVote, Epoch: act.Epoch, Proposer: act.Proposer,
			VoteKind: uint8(act.Vote.Kind), Round: act.Vote.Round, Value: act.Vote.Value,
		})
	case EpochDecidedAction:
		w.recs = append(w.recs, store.Record{Type: store.RecDecided, Epoch: act.Epoch, S: act.S})
	case DeliverAction:
		w.recs = append(w.recs, store.Record{
			Type: store.RecBlock, Epoch: act.Epoch, Proposer: act.Proposer,
			Linked: act.Linked, TxCount: uint32(len(act.Txs)), Payload: uint32(act.Payload), V: act.V,
		})
	case EpochDeliveredAction:
		w.recs = append(w.recs, store.Record{Type: store.RecEpochDone, Epoch: act.Epoch, Floor: act.Floor})
	case ChunkStoredAction:
		w.chunks[blockKey{act.Rec.Epoch, act.Rec.Proposer}] = act.Rec
	}
}

func (w *walCollector) chunkList() []store.ChunkRecord {
	var out []store.ChunkRecord
	for _, c := range w.chunks {
		out = append(out, c)
	}
	return out
}

// votelessRecords strips RecVote records: the seed WAL format, which new
// code must still replay (compatibility) — with the old re-vote caveat.
func votelessRecords(recs []store.Record) []store.Record {
	var out []store.Record
	for _, r := range recs {
		if r.Type != store.RecVote {
			out = append(out, r)
		}
	}
	return out
}

// TestRestartReVotesByteIdentical crashes a node mid-flight (mid-BA-round
// for several instances), restores it from its collected WAL, and checks
// the restart's BA traffic for every still-undecided instance is exactly
// the pre-crash traffic: same messages, same order, same bytes — and
// nothing else.
func TestRestartReVotesByteIdentical(t *testing.T) {
	compared := 0
	for seed := int64(0); seed < 6; seed++ {
		cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("core test secret")}
		c := newTestCluster(t, cfg, seed, 3)
		wal := newWALCollector()
		preSends := map[blockKey][][]byte{}
		c.onAction = func(node int, a Action) {
			if node != 0 {
				return
			}
			wal.observe(a)
			if s, ok := a.(SendAction); ok && s.To == 1 && isBAMsg(s.Env.Payload) {
				key := blockKey{s.Env.Epoch, s.Env.Proposer}
				preSends[key] = append(preSends[key], s.Env.Encode())
			}
		}
		c.start()
		// Stop mid-flight: BA rounds for the newest epochs are in
		// progress, their votes on the wire but their outcomes open.
		c.runSteps(300)
		c.crashed[0] = true

		eng, err := NewEngine(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(nil, wal.recs, wal.chunkList()); err != nil {
			t.Fatal(err)
		}
		resent := map[blockKey][][]byte{}
		for _, a := range Unicast(eng.Start(), cfg.N, 0) {
			if s, ok := a.(SendAction); ok && s.To == 1 && isBAMsg(s.Env.Payload) {
				key := blockKey{s.Env.Epoch, s.Env.Proposer}
				resent[key] = append(resent[key], s.Env.Encode())
			}
		}
		// Instances whose WAL carries a VoteHalt restored as halted: they
		// saw 2f+1 Terms pre-crash, so the whole cluster already holds
		// their outcome and the restart stays silent for them.
		haltedKeys := map[blockKey]bool{}
		for _, r := range wal.recs {
			if r.Type == store.RecVote && r.VoteKind == uint8(ba.VoteHalt) {
				haltedKeys[blockKey{r.Epoch, r.Proposer}] = true
			}
		}
		for key, want := range preSends {
			if eng.isDecided(key.epoch) || haltedKeys[key] {
				// Decided epochs and halted instances re-send nothing:
				// their outcome is installed (and for halted instances
				// provably cluster-wide), and the engine refuses fresh
				// instances.
				if got := resent[key]; got != nil {
					t.Fatalf("seed %d: decided/halted instance (%d,%d) re-sent %d votes", seed, key.epoch, key.proposer, len(got))
				}
				continue
			}
			got := resent[key]
			if len(got) != len(want) {
				t.Fatalf("seed %d: instance (%d,%d) re-sent %d votes, pre-crash sent %d",
					seed, key.epoch, key.proposer, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("seed %d: instance (%d,%d) vote %d differs:\npre-crash %x\nre-sent   %x",
						seed, key.epoch, key.proposer, i, want[i], got[i])
				}
			}
			compared += len(want)
		}
		for key := range resent {
			if preSends[key] == nil {
				t.Fatalf("seed %d: restart invented votes for (%d,%d) it never sent", seed, key.epoch, key.proposer)
			}
		}
	}
	if compared == 0 {
		t.Fatal("no in-flight instance was compared; crash point needs tuning")
	}
}

// completeVID completes VID[1][1] at the engine (chunk + N-f Readys), so
// a DL node casts its BA vote for that instance.
func completeVID(t *testing.T, eng *Engine, collect func([]Action)) wire.Chunk {
	t.Helper()
	params, _ := avid.NewParams(4, 1)
	blk := &wire.Block{Proposer: 1, Epoch: 1, V: []uint64{0, 0, 0, 0}, Txs: [][]byte{[]byte("tx")}}
	chunks, _, err := avid.Disperse(params, blk.Encode())
	if err != nil {
		t.Fatal(err)
	}
	collect(eng.Handle(wire.Envelope{From: 1, Epoch: 1, Proposer: 1, Payload: chunks[0]}))
	for _, from := range []int{1, 2, 3} {
		collect(eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1,
			Payload: wire.Ready{Root: chunks[0].Root}}))
	}
	return chunks[0]
}

// auxSends extracts the Aux messages of an action batch.
func auxSends(actions []Action) []wire.Aux {
	var out []wire.Aux
	seen := map[string]bool{}
	for _, a := range actions {
		s, ok := a.(SendAction)
		if !ok {
			continue
		}
		if m, ok := s.Env.Payload.(wire.Aux); ok {
			// Broadcasts fan out per peer; count each Aux once.
			k := fmt.Sprintf("%d/%d/%d/%v", s.Env.Epoch, s.Env.Proposer, m.Round, m.Value)
			if !seen[k] {
				seen[k] = true
				out = append(out, m)
			}
		}
	}
	return out
}

// TestSeedReVoteInconsistencyEliminated is the before/after demonstration
// of the fault-budget caveat. One node completes a dispersal, votes
// BVal(0,true), and — after peers vouch for true — sends Aux(0,true).
// It crashes. Post-restart, f+1... 2f+1 peers (some Byzantine, some
// honest messages the transport replays late) push BVal(0,false):
//
//   - restored from a vote-free WAL (the seed format), the node's fresh
//     BA instance admits false first and answers Aux(0,false) — two Aux
//     values for one round from one node, the equivocation that consumes
//     fault budget;
//   - restored from the same WAL with its RecVote records, the node
//     re-sends Aux(0,true) at Start and stays silent on the adversarial
//     schedule: the restored auxSent guard makes the contradiction
//     impossible.
func TestSeedReVoteInconsistencyEliminated(t *testing.T) {
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("s")}
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	wal := newWALCollector()
	collect := func(actions []Action) {
		for _, a := range actions {
			wal.observe(a)
		}
	}
	collect(eng.Start())
	completeVID(t, eng, collect) // VID[1][1] completes -> BVal(0,true)
	// Peers vouch for true: bin_values gains true, Aux(0,true) goes out.
	var preAux []wire.Aux
	for _, from := range []int{1, 2, 3} {
		acts := eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1,
			Payload: wire.BVal{Round: 0, Value: true}})
		collect(acts)
		preAux = append(preAux, auxSends(acts)...)
	}
	if len(preAux) != 1 || !preAux[0].Value || preAux[0].Round != 0 {
		t.Fatalf("pre-crash Aux = %+v, want exactly Aux(0,true)", preAux)
	}

	// The adversarial post-restart schedule: everyone pushes BVal(0,false).
	adversarial := func(e *Engine) []wire.Aux {
		var out []wire.Aux
		for _, from := range []int{1, 2, 3} {
			out = append(out, auxSends(e.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1,
				Payload: wire.BVal{Round: 0, Value: false}}))...)
		}
		return out
	}

	// Seed-format restore (votes stripped): the inconsistency reproduces.
	seedEng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := seedEng.Restore(nil, votelessRecords(wal.recs), wal.chunkList()); err != nil {
		t.Fatal(err)
	}
	seedEng.Start()
	seedAux := adversarial(seedEng)
	if len(seedAux) != 1 || seedAux[0].Value != false {
		t.Fatalf("seed-format restart sent Aux %+v; expected the historical Aux(0,false) equivocation", seedAux)
	}

	// WAL-backed restore: Aux(0,true) is re-sent at Start, and the same
	// adversarial schedule extracts no contradicting vote.
	newEng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := newEng.Restore(nil, wal.recs, wal.chunkList()); err != nil {
		t.Fatal(err)
	}
	startAux := auxSends(newEng.Start())
	if len(startAux) != 1 || !startAux[0].Value || startAux[0].Round != 0 {
		t.Fatalf("restored node re-sent Aux %+v, want exactly the pre-crash Aux(0,true)", startAux)
	}
	if got := adversarial(newEng); len(got) != 0 {
		t.Fatalf("restored node answered the adversarial schedule with Aux %+v; pre-crash vote was Aux(0,true)", got)
	}
}

// TestSnapshotCarriesVotes checks checkpoint compaction cannot lose
// in-flight votes: a snapshot taken mid-round round-trips the vote
// journals, and an engine restored from snapshot alone (WAL compacted
// away) still re-sends its pre-crash votes and refuses to contradict
// them.
func TestSnapshotCarriesVotes(t *testing.T) {
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("s")}
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	wal := newWALCollector()
	collect := func(actions []Action) {
		for _, a := range actions {
			wal.observe(a)
		}
	}
	collect(eng.Start())
	completeVID(t, eng, collect)
	for _, from := range []int{1, 2, 3} {
		collect(eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1,
			Payload: wire.BVal{Round: 0, Value: true}}))
	}

	snap := eng.Snapshot()
	if len(snap.Votes) == 0 {
		t.Fatal("snapshot carries no votes for an in-flight instance")
	}
	dec, err := DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Votes) != len(snap.Votes) {
		t.Fatalf("vote sections differ: %d vs %d", len(dec.Votes), len(snap.Votes))
	}
	for i := range snap.Votes {
		a, b := snap.Votes[i], dec.Votes[i]
		if a.Epoch != b.Epoch || a.Proposer != b.Proposer || a.Halted != b.Halted || len(a.Votes) != len(b.Votes) {
			t.Fatalf("vote section %d mismatch: %+v vs %+v", i, a, b)
		}
		for k := range a.Votes {
			if a.Votes[k] != b.Votes[k] {
				t.Fatalf("vote %d/%d mismatch: %+v vs %+v", i, k, a.Votes[k], b.Votes[k])
			}
		}
	}

	// Restore from snapshot only — as after a checkpoint compacted the
	// vote records away — plus the chunk store.
	eng2, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(dec, nil, wal.chunkList()); err != nil {
		t.Fatal(err)
	}
	resent := auxSends(eng2.Start())
	if len(resent) != 1 || !resent[0].Value {
		t.Fatalf("snapshot-restored node re-sent Aux %+v, want Aux(0,true)", resent)
	}
	for _, from := range []int{1, 2, 3} {
		if got := auxSends(eng2.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1,
			Payload: wire.BVal{Round: 0, Value: false}})); len(got) != 0 {
			t.Fatalf("snapshot-restored node equivocated with Aux %+v", got)
		}
	}
}

// TestDecidedEpochRefusesFreshVotes checks an epoch restored as decided
// (WAL outcome, no live round state) cannot be coaxed into fresh votes
// by stray round messages — the guard that lets vote journals be dropped
// once an epoch's outcome is durable.
func TestDecidedEpochRefusesFreshVotes(t *testing.T) {
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("s")}
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []store.Record{
		{Type: store.RecDecided, Epoch: 1, S: []int{1, 2, 3}},
	}
	if err := eng.Restore(nil, recs, nil); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	for _, from := range []int{1, 2, 3} {
		for _, msg := range []wire.Msg{
			wire.BVal{Round: 0, Value: false},
			wire.Aux{Round: 0, Value: false},
			wire.Term{Value: false},
		} {
			for _, a := range eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 2, Payload: msg}) {
				if s, ok := a.(SendAction); ok && isBAMsg(s.Env.Payload) {
					t.Fatalf("decided epoch answered %T with %T", msg, s.Env.Payload)
				}
				if _, ok := a.(VoteCastAction); ok {
					t.Fatalf("decided epoch journaled a fresh vote on %T", msg)
				}
			}
		}
	}
}

// TestRestoredVoteJournalSurvivesSecondCrash checks the journal is
// re-armed after a restore: a second crash-restart still re-sends the
// original votes (journals must survive being restored, not just being
// recorded live).
func TestRestoredVoteJournalSurvivesSecondCrash(t *testing.T) {
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("s")}
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	wal := newWALCollector()
	collect := func(actions []Action) {
		for _, a := range actions {
			wal.observe(a)
		}
	}
	collect(eng.Start())
	completeVID(t, eng, collect)
	for _, from := range []int{1, 2, 3} {
		collect(eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1,
			Payload: wire.BVal{Round: 0, Value: true}}))
	}

	// First restart: restore, then snapshot (the second life's checkpoint).
	eng2, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(nil, wal.recs, wal.chunkList()); err != nil {
		t.Fatal(err)
	}
	eng2.Start()
	snap := eng2.Snapshot()

	// Second restart, from the second life's snapshot alone.
	eng3, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng3.Restore(snap, nil, wal.chunkList()); err != nil {
		t.Fatal(err)
	}
	resent := auxSends(eng3.Start())
	if len(resent) != 1 || !resent[0].Value {
		t.Fatalf("second restart re-sent Aux %+v, want the original Aux(0,true)", resent)
	}
}

// TestRestoredDecidedInstanceStillDecidesEpoch is the regression test
// for the poisoned-slot wedge found by driving a live TCP cluster: an
// instance whose Term is in the journal restores with Decided() already
// true, so the toBA decision-edge can never fire for it again — without
// the explicit decision-tail pass in resumeRecovered, its slot's baOut
// would stay pending forever and the epoch could never decide locally
// (delivery wedges, and with state sync the node re-syncs in a loop).
func TestRestoredDecidedInstanceStillDecidesEpoch(t *testing.T) {
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("s")}
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	wal := newWALCollector()
	collect := func(actions []Action) {
		for _, a := range actions {
			wal.observe(a)
		}
	}
	collect(eng.Start())
	// Instance (1,1) decides at node 0 via f+1 Terms; the epoch stays
	// undecided (the other three instances are silent).
	for _, from := range []int{1, 2} {
		collect(eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1,
			Payload: wire.Term{Value: true}}))
	}
	if d, v := eng.epochs[1].bas[1].Decided(); !d || !v {
		t.Fatal("instance (1,1) did not decide from f+1 Terms")
	}

	// Crash and restore: the journal carries the Term.
	eng2, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(nil, wal.recs, nil); err != nil {
		t.Fatal(err)
	}
	eng2.Start()
	if eng2.epochs[1] == nil || eng2.epochs[1].baOut[1] != 1 {
		t.Fatalf("restored decision not propagated into the epoch state (baOut=%v)",
			eng2.epochs[1].baOut)
	}
	// Decide the remaining three instances with live Terms; the epoch
	// must decide — the restored slot's contribution counts.
	var decided *EpochDecidedAction
	for _, j := range []int{0, 2, 3} {
		for _, from := range []int{1, 2} {
			for _, a := range eng2.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: j,
				Payload: wire.Term{Value: j != 3}}) {
				if d, ok := a.(EpochDecidedAction); ok {
					decided = &d
				}
			}
		}
	}
	if decided == nil {
		t.Fatal("epoch never decided: the restored instance's slot is poisoned")
	}
	want := []int{0, 1, 2}
	if len(decided.S) != len(want) {
		t.Fatalf("decided S = %v, want %v", decided.S, want)
	}
	for i := range want {
		if decided.S[i] != want[i] {
			t.Fatalf("decided S = %v, want %v", decided.S, want)
		}
	}
}

// TestStragglerCompletionInDecidedEpochCastsNoVote covers the inputBA
// side of the decided-epoch guard: a VID completing (or an HB retrieval
// finishing) in an epoch restored as decided must not grow a fresh
// votable instance — the pre-crash journal for that epoch was discarded
// with the decision, so a fresh first-vote could contradict it.
func TestStragglerCompletionInDecidedEpochCastsNoVote(t *testing.T) {
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("s")}
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1 restored as decided (committed set includes proposer 1),
	// with no round state — the post-crash shape of a decided epoch.
	if err := eng.Restore(nil, []store.Record{
		{Type: store.RecDecided, Epoch: 1, S: []int{1, 2, 3}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	// A straggler dispersal completes VID[1][1] now (chunk + N-f Readys).
	var acts []Action
	completeVID(t, eng, func(a []Action) { acts = append(acts, a...) })
	for _, a := range acts {
		if s, ok := a.(SendAction); ok && isBAMsg(s.Env.Payload) {
			t.Fatalf("straggler completion in a decided epoch voted: %T", s.Env.Payload)
		}
		if v, ok := a.(VoteCastAction); ok {
			t.Fatalf("straggler completion in a decided epoch journaled %+v", v)
		}
	}
	if eng.epochs[1].bas[1] != nil {
		t.Fatal("a fresh votable BA instance was grown in a decided epoch")
	}
}

// TestHaltedInstanceDecisionSurvivesSnapshot covers the halted variant
// of the poisoned-slot wedge: an instance that HALTED (2f+1 Terms) in a
// still-undecided epoch wipes its round journal, so the snapshot is the
// only carrier of its decision once the WAL compacts. A restore from
// snapshot alone must still propagate the decision into the epoch's
// bookkeeping, or the slot wedges the epoch forever (the halted
// automaton ignores all further traffic).
func TestHaltedInstanceDecisionSurvivesSnapshot(t *testing.T) {
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("s")}
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	// Instance (1,1) decides AND halts via 2f+1 Terms; epoch 1 stays
	// undecided.
	for _, from := range []int{1, 2, 3} {
		eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1,
			Payload: wire.Term{Value: true}})
	}
	b := eng.epochs[1].bas[1]
	if !b.Halted() {
		t.Fatal("instance did not halt on 2f+1 Terms")
	}

	snap, err := DecodeSnapshot(eng.Snapshot().Encode())
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(snap, nil, nil); err != nil {
		t.Fatal(err)
	}
	eng2.Start()
	if eng2.epochs[1] == nil || eng2.epochs[1].baOut[1] != 1 {
		t.Fatalf("halted instance's decision lost across the snapshot (baOut=%v)",
			eng2.epochs[1].baOut)
	}
	// The restored instance must still be halted and silent.
	if rb := eng2.epochs[1].bas[1]; rb == nil || !rb.Halted() {
		t.Fatal("instance not restored as halted")
	}
	// Deciding the remaining slots must decide the epoch.
	var decided bool
	for _, j := range []int{0, 2, 3} {
		for _, from := range []int{1, 2} {
			for _, a := range eng2.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: j,
				Payload: wire.Term{Value: false}}) {
				if _, ok := a.(EpochDecidedAction); ok {
					decided = true
				}
			}
		}
	}
	if !decided {
		t.Fatal("epoch never decided: the halted slot is poisoned")
	}
}

// TestWALOnlyReplayRestoresHaltedInstance is the regression test for
// DESIGN.md's former caveat (i): a WAL-only replay — no snapshot taken
// since the halt — used to restore a halted instance as decided-but-live
// and re-send its Term on restart. The halt is now journaled (RecVote
// with ba.VoteHalt), so the same replay restores the instance halted and
// silent, while its decision still reaches the epoch bookkeeping.
func TestWALOnlyReplayRestoresHaltedInstance(t *testing.T) {
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("s")}
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	wal := newWALCollector()
	collect := func(actions []Action) {
		for _, a := range actions {
			wal.observe(a)
		}
	}
	collect(eng.Start())
	// Instance (1,1) decides (f+1 Terms) and then halts (2f+1); epoch 1
	// stays undecided, so the restart's re-send loop visits the instance.
	for _, from := range []int{1, 2, 3} {
		collect(eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1,
			Payload: wire.Term{Value: true}}))
	}
	if !eng.epochs[1].bas[1].Halted() {
		t.Fatal("instance did not halt on 2f+1 Terms")
	}
	var halts int
	for _, r := range wal.recs {
		if r.Type == store.RecVote && r.VoteKind == uint8(ba.VoteHalt) {
			halts++
		}
	}
	if halts != 1 {
		t.Fatalf("WAL has %d VoteHalt records, want 1", halts)
	}

	restart := func(recs []store.Record) (*Engine, int) {
		t.Helper()
		e, err := NewEngine(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Restore(nil, recs, nil); err != nil {
			t.Fatal(err)
		}
		terms := 0
		for _, a := range e.Start() {
			if s, ok := a.(SendAction); ok && s.Env.Epoch == 1 && s.Env.Proposer == 1 {
				if _, isTerm := s.Env.Payload.(wire.Term); isTerm {
					terms++
				}
			}
		}
		return e, terms
	}

	// Sanity: strip the halt record and the caveat reproduces — the
	// instance comes back live and re-broadcasts its Term. This pins the
	// test's sensitivity; if it ever fails, the scenario no longer
	// exercises the halt path.
	var stripped []store.Record
	for _, r := range wal.recs {
		if r.Type == store.RecVote && r.VoteKind == uint8(ba.VoteHalt) {
			continue
		}
		stripped = append(stripped, r)
	}
	if _, terms := restart(stripped); terms == 0 {
		t.Fatal("sanity: halt-free WAL replay did not re-send the Term")
	}

	// The fix: the full WAL restores the instance halted — no Term
	// re-send, silent under traffic, decision propagated.
	eng2, terms := restart(wal.recs)
	if terms != 0 {
		t.Fatalf("WAL-only replay of a halted instance re-sent %d Term(s)", terms)
	}
	rb := eng2.epochs[1].bas[1]
	if rb == nil || !rb.Halted() {
		t.Fatal("instance not restored as halted from the WAL alone")
	}
	if eng2.epochs[1].baOut[1] != 1 {
		t.Fatalf("halted instance's decision not propagated (baOut=%v)", eng2.epochs[1].baOut)
	}
	for _, a := range eng2.Handle(wire.Envelope{From: 2, Epoch: 1, Proposer: 1,
		Payload: wire.BVal{Round: 0, Value: false}}) {
		if s, ok := a.(SendAction); ok && isBAMsg(s.Env.Payload) {
			t.Fatalf("restored halted instance answered traffic with %T", s.Env.Payload)
		}
	}
}
