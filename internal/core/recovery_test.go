package core

import (
	"bytes"
	"reflect"
	"testing"

	"dledger/internal/avid"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// TestRestoredEngineServesRetrievals completes a VID instance at one
// engine, carries its journal (the ChunkStoredActions) across a
// simulated crash into a fresh engine, and checks the restored engine
// answers a retrieval request for the pre-crash epoch with the original
// chunk.
func TestRestoredEngineServesRetrievals(t *testing.T) {
	cfg := Config{N: 4, F: 1, CoinSecret: []byte("s")}
	eng, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()

	params, _ := avid.NewParams(4, 1)
	blk := &wire.Block{Proposer: 0, Epoch: 1, V: []uint64{0, 0, 0, 0}, Txs: [][]byte{[]byte("payload")}}
	chunks, _, err := avid.Disperse(params, blk.Encode())
	if err != nil {
		t.Fatal(err)
	}

	var stored []store.ChunkRecord
	collect := func(actions []Action) {
		for _, a := range actions {
			if act, ok := a.(ChunkStoredAction); ok {
				stored = append(stored, act.Rec)
			}
		}
	}
	collect(eng.Handle(wire.Envelope{From: 0, Epoch: 1, Proposer: 0, Payload: chunks[1]}))
	for _, from := range []int{0, 2, 3} {
		collect(eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 0,
			Payload: wire.Ready{Root: chunks[1].Root}}))
	}
	kinds := make([]store.ChunkKind, len(stored))
	for i, c := range stored {
		kinds[i] = c.Kind
	}
	if want := []store.ChunkKind{store.ChunkGot, store.ChunkReady, store.ChunkDone}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("journal kinds %v, want %v", kinds, want)
	}
	if !bytes.Equal(stored[0].Data, chunks[1].Data) || stored[0].Root != chunks[1].Root {
		t.Fatalf("journaled chunk mismatch: %+v", stored[0])
	}

	// "Crash": a fresh engine restored from the durable chunk record.
	eng2, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(nil, nil, stored); err != nil {
		t.Fatal(err)
	}
	eng2.Start()

	for _, req := range []wire.Msg{wire.RequestChunk{}, wire.RequestChunkAgain{}} {
		acts := eng2.Handle(wire.Envelope{From: 3, Epoch: 1, Proposer: 0, Payload: req})
		served := false
		for _, a := range acts {
			if s, ok := a.(SendAction); ok {
				if ret, ok := s.Env.Payload.(wire.ReturnChunk); ok && s.To == 3 {
					if !bytes.Equal(ret.Data, chunks[1].Data) || ret.Root != chunks[1].Root {
						t.Fatalf("restored engine served wrong chunk")
					}
					served = true
				}
			}
		}
		if !served {
			t.Fatalf("restored engine did not answer %T for pre-crash epoch", req)
		}
	}

	// The restored completion must also have advanced the VID watermark
	// that feeds this node's V arrays.
	if eng2.watermark[0] != 1 {
		t.Fatalf("watermark[0] = %d, want 1", eng2.watermark[0])
	}
}

// TestSnapshotRoundTrip checks the snapshot codec is lossless and
// canonical.
func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{
		LastProposed:   12,
		DecidedThrough: 11,
		DeliveredEpoch: 9,
		PrunedThrough:  2,
		Watermark:      []uint64{12, 11, 0, 13},
		LinkedFloor:    []uint64{9, 9, 8, 9},
		Decided: []SnapEpoch{
			{Epoch: 10, S: []int{0, 1, 3}},
			{Epoch: 11, S: []int{1, 2, 3}},
		},
		Blocks: []store.ManifestBlock{
			{Epoch: 9, Proposer: 2, V: []uint64{8, 8, 8, 8}},
			{Epoch: 10, Proposer: 0, Bad: true},
		},
	}
	enc := s.Encode()
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", s, got)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("re-encode not canonical")
	}
	if _, err := DecodeSnapshot(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, err := DecodeSnapshot(append(enc, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestRestoreReplaysWALPosition feeds a WAL through Restore and checks
// the engine resumes at the recorded log position instead of epoch 1.
func TestRestoreReplaysWALPosition(t *testing.T) {
	cfg := Config{N: 4, F: 1, CoinSecret: []byte("s")}
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []store.Record{
		{Type: store.RecProposed, Epoch: 1},
		{Type: store.RecDecided, Epoch: 1, S: []int{0, 1, 2}},
		{Type: store.RecBlock, Epoch: 1, Proposer: 0, V: []uint64{0, 0, 0, 0}},
		{Type: store.RecBlock, Epoch: 1, Proposer: 1, V: []uint64{0, 0, 0, 0}},
		{Type: store.RecBlock, Epoch: 1, Proposer: 2, V: []uint64{0, 0, 0, 0}},
		{Type: store.RecEpochDone, Epoch: 1, Floor: []uint64{0, 0, 0, 0}},
		{Type: store.RecProposed, Epoch: 2},
		{Type: store.RecDecided, Epoch: 2, S: []int{1, 2, 3}},
	}
	if err := eng.Restore(nil, recs, nil); err != nil {
		t.Fatal(err)
	}
	if eng.DeliveredEpoch() != 1 || eng.DispersalEpoch() != 2 {
		t.Fatalf("recovered position: delivered %d proposed %d", eng.DeliveredEpoch(), eng.DispersalEpoch())
	}
	actions := eng.Start()
	if !eng.CatchingUp() {
		t.Fatal("restored engine is not running the status catch-up")
	}
	// Epoch 2 is decided but undelivered: Start must re-request its
	// blocks (with the resend variant) and ask peers for status.
	reqs, status := 0, 0
	for _, a := range actions {
		s, ok := a.(SendAction)
		if !ok {
			continue
		}
		switch s.Env.Payload.(type) {
		case wire.RequestChunkAgain:
			reqs++
		case wire.StatusRequest:
			status++
		}
	}
	if reqs == 0 {
		t.Fatal("no retrieval re-requests for the undelivered epoch")
	}
	if status == 0 {
		t.Fatal("no StatusRequest broadcast")
	}
	// No block of epoch 1 may be re-delivered.
	for _, a := range actions {
		if d, ok := a.(DeliverAction); ok && d.Epoch == 1 {
			t.Fatalf("re-delivered pre-crash block %d/%d", d.Epoch, d.Proposer)
		}
	}
}

// TestStatusCatchupAdoption drives the status protocol by hand: f+1
// matching replies adopt an epoch, one reply alone does not, and f+1
// not-decided replies end catch-up.
func TestStatusCatchupAdoption(t *testing.T) {
	cfg := Config{N: 4, F: 1, CoinSecret: []byte("s")}
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Recover from a WAL that has epoch 1 fully done.
	recs := []store.Record{
		{Type: store.RecDecided, Epoch: 1, S: []int{0, 1, 2}},
		{Type: store.RecBlock, Epoch: 1, Proposer: 0, V: []uint64{0, 0, 0, 0}},
		{Type: store.RecBlock, Epoch: 1, Proposer: 1, V: []uint64{0, 0, 0, 0}},
		{Type: store.RecBlock, Epoch: 1, Proposer: 2, V: []uint64{0, 0, 0, 0}},
		{Type: store.RecEpochDone, Epoch: 1, Floor: []uint64{0, 0, 0, 0}},
		{Type: store.RecProposed, Epoch: 1},
	}
	if err := eng.Restore(nil, recs, nil); err != nil {
		t.Fatal(err)
	}
	eng.Start()

	bm := wire.SetBitmap([]int{2, 3}, 4)
	// One claim: not adopted yet.
	eng.Handle(wire.Envelope{From: 1, Epoch: 2, Proposer: 0,
		Payload: wire.StatusReply{Decided: true, Through: 3, S: bm}})
	if eng.isDecided(2) {
		t.Fatal("adopted epoch 2 on a single claim")
	}
	// A conflicting claim from another peer: still no quorum.
	eng.Handle(wire.Envelope{From: 2, Epoch: 2, Proposer: 0,
		Payload: wire.StatusReply{Decided: true, Through: 3, S: wire.SetBitmap([]int{0, 1}, 4)}})
	if eng.isDecided(2) {
		t.Fatal("adopted epoch 2 from conflicting claims")
	}
	// A matching second claim: adopted, and catch-up advances to epoch 3.
	acts := eng.Handle(wire.Envelope{From: 3, Epoch: 2, Proposer: 0,
		Payload: wire.StatusReply{Decided: true, Through: 3, S: bm}})
	if !eng.isDecided(2) {
		t.Fatal("f+1 matching claims did not adopt epoch 2")
	}
	decidedSeen := false
	for _, a := range acts {
		if d, ok := a.(EpochDecidedAction); ok && d.Epoch == 2 {
			decidedSeen = true
			if !reflect.DeepEqual(d.S, []int{2, 3}) {
				t.Fatalf("adopted S = %v", d.S)
			}
		}
	}
	if !decidedSeen {
		t.Fatal("no EpochDecidedAction for the adopted epoch")
	}
	if !eng.CatchingUp() || eng.catchup.epoch != 3 {
		t.Fatalf("catch-up did not advance to epoch 3")
	}
	// Adopting epoch 3 (the peers' claimed frontier) ends the catch-up.
	bm3 := wire.SetBitmap([]int{1, 3}, 4)
	eng.Handle(wire.Envelope{From: 1, Epoch: 3, Proposer: 0,
		Payload: wire.StatusReply{Decided: true, Through: 3, S: bm3}})
	eng.Handle(wire.Envelope{From: 2, Epoch: 3, Proposer: 0,
		Payload: wire.StatusReply{Decided: true, Through: 3, S: bm3}})
	if eng.CatchingUp() {
		t.Fatal("catch-up still running after reaching the claimed frontier")
	}
	if due, _ := eng.ProposalDue(); !due {
		t.Fatal("no proposal due after the catch-up ended")
	}
}

// TestCatchupGapSlotsAreProposedEmpty restores node 0 after it proposed
// epoch 1, then lets the status catch-up adopt epochs 1 to 4 one status
// reply at a time. No proposal may be due while the catch-up runs, and
// the slots the cluster decided in the node's absence, epochs 2 to 4,
// must then be proposed empty: a block there can commit only through
// inter-node linking, so transactions in it may never commit. Epoch 5,
// the frontier, takes transactions again.
func TestCatchupGapSlotsAreProposedEmpty(t *testing.T) {
	eng, err := NewEngine(Config{N: 4, F: 1, CoinSecret: []byte("s")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(nil, []store.Record{{Type: store.RecProposed, Epoch: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	const frontier = 4
	bm := wire.SetBitmap([]int{1, 2, 3}, 4)
	for epoch := uint64(1); epoch <= frontier; epoch++ {
		for _, from := range []int{1, 2} {
			eng.Handle(wire.Envelope{From: from, Epoch: epoch, Proposer: 0,
				Payload: wire.StatusReply{Decided: true, Through: frontier, S: bm}})
			if due, _ := eng.ProposalDue(); due && eng.CatchingUp() {
				t.Fatalf("a proposal is due while catching up, after %d's reply on epoch %d", from, epoch)
			}
		}
	}
	if eng.CatchingUp() || eng.DecidedThrough() != frontier {
		t.Fatalf("catching up %v, decided through %d; want done at %d", eng.CatchingUp(), eng.DecidedThrough(), frontier)
	}
	txs := [][]byte{[]byte("tx")}
	for epoch := uint64(2); epoch <= frontier+1; epoch++ {
		due, empty := eng.ProposalDue()
		if gap := epoch <= frontier; !due || empty != gap {
			t.Fatalf("epoch %d: due %v, empty %v; want due, empty %v", epoch, due, empty, gap)
		}
		if empty {
			if _, err := eng.Propose(txs); err == nil {
				t.Fatalf("Propose put transactions into epoch %d, which the cluster decided", epoch)
			}
			txs = nil
		}
		acts, err := eng.Propose(txs)
		if err != nil {
			t.Fatal(err)
		}
		var made *wire.Block
		for _, a := range acts {
			if m, ok := a.(ProposalMadeAction); ok {
				if made, err = wire.DecodeBlock(m.Block); err != nil {
					t.Fatal(err)
				}
			}
		}
		if made == nil || made.Epoch != epoch || len(made.Txs) != len(txs) {
			t.Fatalf("epoch %d: proposed %+v, want %d transactions", epoch, made, len(txs))
		}
		txs = [][]byte{[]byte("tx")}
	}
}

// TestStatusCatchupFrontierFinish checks f+1 "not decided" replies end
// catch-up when no quorum-supported claim places the cluster ahead — and
// keep it running when the watermarks say the epoch was pruned, not
// undecided.
func TestStatusCatchupFrontierFinish(t *testing.T) {
	mk := func() *Engine {
		eng, err := NewEngine(Config{N: 4, F: 1, CoinSecret: []byte("s")}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(nil, []store.Record{
			{Type: store.RecDecided, Epoch: 1, S: []int{1, 2, 3}},
		}, nil); err != nil {
			t.Fatal(err)
		}
		eng.Start()
		return eng
	}
	// Frontier case: peers are no further than we are.
	eng := mk()
	eng.Handle(wire.Envelope{From: 1, Epoch: 2, Proposer: 0,
		Payload: wire.StatusReply{Decided: false, Through: 1}})
	eng.Handle(wire.Envelope{From: 2, Epoch: 2, Proposer: 0,
		Payload: wire.StatusReply{Decided: false, Through: 1}})
	if eng.CatchingUp() {
		t.Fatal("catch-up still running at the cluster frontier")
	}
	// Pruned case: the same replies but with watermarks far ahead mean
	// the epoch was garbage-collected, not undecided — catch-up must not
	// conclude (and must not unblock proposals into droppable epochs).
	eng = mk()
	eng.Handle(wire.Envelope{From: 1, Epoch: 2, Proposer: 0,
		Payload: wire.StatusReply{Decided: false, Through: 5000}})
	eng.Handle(wire.Envelope{From: 2, Epoch: 2, Proposer: 0,
		Payload: wire.StatusReply{Decided: false, Through: 5000}})
	if !eng.CatchingUp() {
		t.Fatal("catch-up gave up on an epoch the cluster pruned")
	}
}

// TestStatusRequestService checks a running engine answers status
// requests from resident state only.
func TestStatusRequestService(t *testing.T) {
	cfg := Config{N: 4, F: 1, CoinSecret: []byte("s")}
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(nil, []store.Record{
		{Type: store.RecDecided, Epoch: 1, S: []int{1, 2, 3}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	// Decided epoch: reply carries the set.
	acts := eng.Handle(wire.Envelope{From: 2, Epoch: 1, Proposer: 0, Payload: wire.StatusRequest{}})
	var rep *wire.StatusReply
	for _, a := range acts {
		if s, ok := a.(SendAction); ok && s.To == 2 {
			if m, ok := s.Env.Payload.(wire.StatusReply); ok {
				rep = &m
			}
		}
	}
	if rep == nil || !rep.Decided || rep.Through != 1 {
		t.Fatalf("reply = %+v", rep)
	}
	if got := wire.BitmapSet(rep.S, 4); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("served S = %v", got)
	}
	// Unknown epoch: decided=false, watermark still reported.
	acts = eng.Handle(wire.Envelope{From: 2, Epoch: 5, Proposer: 0, Payload: wire.StatusRequest{}})
	rep = nil
	for _, a := range acts {
		if s, ok := a.(SendAction); ok && s.To == 2 {
			if m, ok := s.Env.Payload.(wire.StatusReply); ok {
				rep = &m
			}
		}
	}
	if rep == nil || rep.Decided || rep.Through != 1 {
		t.Fatalf("reply for unknown epoch = %+v", rep)
	}
}
