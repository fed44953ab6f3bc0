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
// durable action becomes its WAL or chunk record, in action order, like
// the real group commit.
type walCollector struct {
	recs   []store.Record
	chunks []store.ChunkRecord
}

func newWALCollector() *walCollector { return &walCollector{} }

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
		w.chunks = append(w.chunks, act.Rec)
	}
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
// nothing else. A halted instance re-sends exactly its pre-crash Term,
// whether its halt comes back from the WAL's VoteHalt or from a
// snapshot's halted flag.
func TestRestartReVotesByteIdentical(t *testing.T) {
	compared, haltedCompared := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("core test secret")}
		c := newTestCluster(t, cfg, seed, 3)
		wal := newWALCollector()
		preSends := map[blockKey][][]byte{}
		preTerm := map[blockKey][]byte{}
		c.onAction = func(node int, a Action) {
			if node != 0 {
				return
			}
			wal.observe(a)
			if s, ok := a.(SendAction); ok && s.To == 1 && isBAMsg(s.Env.Payload) {
				key := blockKey{s.Env.Epoch, s.Env.Proposer}
				preSends[key] = append(preSends[key], s.Env.Encode())
				if _, ok := s.Env.Payload.(wire.Term); ok {
					preTerm[key] = s.Env.Encode()
				}
			}
		}
		c.start()
		// Stop mid-flight: BA rounds for the newest epochs are in
		// progress, their votes on the wire but their outcomes open.
		c.runSteps(300)
		c.crashed[0] = true
		snap, err := DecodeSnapshot(c.engines[0].Snapshot().Encode())
		if err != nil {
			t.Fatal(err)
		}

		// Instances whose WAL carries a VoteHalt saw 2f+1 Terms pre-crash
		// and restore as halted.
		haltedKeys := map[blockKey]bool{}
		for _, r := range wal.recs {
			if r.Type == store.RecVote && r.VoteKind == uint8(ba.VoteHalt) {
				haltedKeys[blockKey{r.Epoch, r.Proposer}] = true
			}
		}
		for _, path := range []struct {
			name string
			snap *Snapshot
			recs []store.Record
		}{{"wal", nil, wal.recs}, {"snapshot", snap, nil}} {
			eng, err := NewEngine(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Restore(path.snap, path.recs, wal.chunks); err != nil {
				t.Fatal(err)
			}
			resent := map[blockKey][][]byte{}
			for _, a := range Unicast(eng.Start(), cfg.N, 0) {
				if s, ok := a.(SendAction); ok && s.To == 1 && isBAMsg(s.Env.Payload) {
					key := blockKey{s.Env.Epoch, s.Env.Proposer}
					resent[key] = append(resent[key], s.Env.Encode())
				}
			}
			for key, want := range preSends {
				got := resent[key]
				switch {
				case eng.isDecided(key.epoch):
					// Decided epochs re-send nothing: their outcome is
					// installed, and the engine refuses fresh instances.
					if got != nil {
						t.Fatalf("seed %d %s: decided instance (%d,%d) re-sent %d votes", seed, path.name, key.epoch, key.proposer, len(got))
					}
					continue
				case haltedKeys[key]:
					if rb := eng.epochs[key.epoch].bas[key.proposer]; rb == nil || !rb.Halted() {
						t.Fatalf("seed %d %s: instance (%d,%d) not restored halted", seed, path.name, key.epoch, key.proposer)
					}
					want = [][]byte{preTerm[key]}
					haltedCompared++
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d %s: instance (%d,%d) re-sent %d votes, want %d",
						seed, path.name, key.epoch, key.proposer, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("seed %d %s: instance (%d,%d) vote %d differs:\npre-crash %x\nre-sent   %x",
							seed, path.name, key.epoch, key.proposer, i, want[i], got[i])
					}
				}
				compared += len(want)
			}
			for key := range resent {
				if preSends[key] == nil {
					t.Fatalf("seed %d %s: restart invented votes for (%d,%d) it never sent", seed, path.name, key.epoch, key.proposer)
				}
			}
		}
	}
	if compared == 0 || haltedCompared == 0 {
		t.Fatalf("compared %d re-sent votes, %d of halted instances; crash point needs tuning", compared, haltedCompared)
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
	if err := seedEng.Restore(nil, votelessRecords(wal.recs), wal.chunks); err != nil {
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
	if err := newEng.Restore(nil, wal.recs, wal.chunks); err != nil {
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
	if err := eng2.Restore(dec, nil, wal.chunks); err != nil {
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
	if err := eng2.Restore(nil, wal.recs, wal.chunks); err != nil {
		t.Fatal(err)
	}
	eng2.Start()
	snap := eng2.Snapshot()

	// Second restart, from the second life's snapshot alone.
	eng3, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng3.Restore(snap, nil, wal.chunks); err != nil {
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
	// The restored instance must still be halted.
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

// TestWALOnlyReplayRestoresHaltedInstance checks a WAL-only replay — no
// snapshot taken since the halt — restores a halted instance halted: the
// halt is journaled (RecVote with ba.VoteHalt), so the replay brings the
// instance back deaf to round traffic, with its decision in the epoch
// bookkeeping and exactly its Term to re-send, the same as a restore
// from a snapshot taken after the halt.
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
	snap, err := DecodeSnapshot(eng.Snapshot().Encode())
	if err != nil {
		t.Fatal(err)
	}

	restart := func(snap *Snapshot, recs []store.Record) (*Engine, []wire.Msg) {
		t.Helper()
		e, err := NewEngine(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Restore(snap, recs, nil); err != nil {
			t.Fatal(err)
		}
		var sent []wire.Msg
		for _, a := range e.Start() {
			if s, ok := a.(SendAction); ok && s.Env.Epoch == 1 && s.Env.Proposer == 1 && isBAMsg(s.Env.Payload) {
				sent = append(sent, s.Env.Payload)
			}
		}
		return e, sent
	}
	// answers feeds f+1 BVals, enough for a live instance to echo.
	answers := func(e *Engine) bool {
		for _, from := range []int{2, 3} {
			for _, a := range e.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1,
				Payload: wire.BVal{Round: 0, Value: false}}) {
				if s, ok := a.(SendAction); ok && isBAMsg(s.Env.Payload) {
					return true
				}
			}
		}
		return false
	}

	// Sanity: strip the halt record and the instance comes back live,
	// answering round traffic. This pins the test's sensitivity; if it
	// ever fails, the scenario no longer exercises the halt path.
	var stripped []store.Record
	for _, r := range wal.recs {
		if r.Type == store.RecVote && r.VoteKind == uint8(ba.VoteHalt) {
			continue
		}
		stripped = append(stripped, r)
	}
	if live, _ := restart(nil, stripped); live.epochs[1].bas[1].Halted() || !answers(live) {
		t.Fatal("sanity: halt-free WAL replay restored a silent halted instance")
	}

	for _, path := range []struct {
		name string
		snap *Snapshot
		recs []store.Record
	}{{"wal", nil, wal.recs}, {"snapshot", snap, nil}} {
		eng2, sent := restart(path.snap, path.recs)
		if len(sent) != 1 || sent[0] != (wire.Term{Value: true}) {
			t.Fatalf("%s: restored halted instance re-sent %v, want one Term(true)", path.name, sent)
		}
		rb := eng2.epochs[1].bas[1]
		if rb == nil || !rb.Halted() {
			t.Fatalf("%s: instance not restored as halted", path.name)
		}
		if eng2.epochs[1].baOut[1] != 1 {
			t.Fatalf("%s: halted instance's decision not propagated (baOut=%v)", path.name, eng2.epochs[1].baOut)
		}
		if answers(eng2) {
			t.Fatalf("%s: restored halted instance answered round traffic", path.name)
		}
	}
}

// TestWholeClusterRestartHaltedPeersResendTerms is the engine-level
// whole-cluster restart stall: peers 1 and 2 halted instance (1,1) on
// 2f+1 Terms, node 0 voted in it but every Term addressed to it died
// with its previous incarnation, and then all three restart (node 3
// stays down). Node 0 is in epoch 1, not behind it, so the status
// catch-up has nothing to tell it; only the halted peers' re-sent Terms
// can decide its instance. Peer 1 restores its halt from the WAL's
// VoteHalt, peer 2 from a snapshot taken after the halt.
func TestWholeClusterRestartHaltedPeersResendTerms(t *testing.T) {
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("s")}
	restore := func(id int, snap *Snapshot, recs []store.Record) *Engine {
		t.Helper()
		e, err := NewEngine(cfg, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Restore(snap, recs, nil); err != nil {
			t.Fatal(err)
		}
		return e
	}
	nodes := make([]*Engine, 3)
	for _, id := range []int{1, 2} {
		eng, err := NewEngine(cfg, id)
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
		for _, from := range []int{1, 2, 3} {
			collect(eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1,
				Payload: wire.Term{Value: true}}))
		}
		if !eng.epochs[1].bas[1].Halted() {
			t.Fatalf("peer %d did not halt on 2f+1 Terms", id)
		}
		if id == 1 {
			nodes[id] = restore(id, nil, wal.recs)
			continue
		}
		snap, err := DecodeSnapshot(eng.Snapshot().Encode())
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = restore(id, snap, nil)
	}

	eng0, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	wal0 := newWALCollector()
	collect0 := func(actions []Action) {
		for _, a := range actions {
			wal0.observe(a)
		}
	}
	collect0(eng0.Start())
	completeVID(t, eng0, collect0)
	if d, _ := eng0.epochs[1].bas[1].Decided(); d {
		t.Fatal("node 0 decided before the restart")
	}
	nodes[0] = restore(0, nil, wal0.recs)

	var queue []routed
	push := func(from int, actions []Action) {
		for _, a := range Unicast(actions, cfg.N, from) {
			if s, ok := a.(SendAction); ok && s.To < len(nodes) {
				queue = append(queue, routed{s.To, s.Env})
			}
		}
	}
	for id, e := range nodes {
		push(id, e.Start())
	}
	for steps := 0; len(queue) > 0; steps++ {
		if steps > 100_000 {
			t.Fatal("restarted nodes did not go quiet")
		}
		m := queue[0]
		queue = queue[1:]
		push(m.to, nodes[m.to].Handle(m.env))
	}
	b := nodes[0].epochs[1].bas[1]
	if d, v := b.Decided(); !d || !v {
		t.Fatalf("node 0's instance (1,1) is still open after the whole-cluster restart (decided=%v value=%v)", d, v)
	}
	if got := nodes[0].epochs[1].baOut[1]; got != 1 {
		t.Fatalf("node 0's epoch bookkeeping missed the decision (baOut=%v)", nodes[0].epochs[1].baOut)
	}
}
