package core

import (
	"testing"

	"dledger/internal/wire"
)

// TestActionTapObservesAndRewrites: the tap must see every emitted
// batch, and what it returns is what the caller receives — the contract
// internal/chaos's Byzantine wrappers build on.
func TestActionTapObservesAndRewrites(t *testing.T) {
	eng, err := NewEngine(Config{N: 4, F: 1, CoinSecret: []byte("tap")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	eng.SetActionTap(func(a []Action) []Action {
		batches++
		// Drop every SendAction; keep the rest.
		out := a[:0]
		for _, act := range a {
			if _, isSend := act.(SendAction); !isSend {
				out = append(out, act)
			}
		}
		return out
	})
	actions := eng.Start()
	if batches != 1 {
		t.Fatalf("tap saw %d batches from Start, want 1", batches)
	}
	for _, a := range actions {
		if _, isSend := a.(SendAction); isSend {
			t.Fatal("tap-dropped SendAction still reached the caller")
		}
	}

	acts, err := eng.Propose([][]byte{[]byte("tx")})
	if err != nil {
		t.Fatal(err)
	}
	if batches != 2 {
		t.Fatalf("tap saw %d batches after Propose, want 2", batches)
	}
	made := false
	for _, a := range acts {
		switch a.(type) {
		case SendAction:
			t.Fatal("Propose leaked a SendAction past the tap")
		case ProposalMadeAction:
			made = true
		}
	}
	// The proposal's durable record must have survived the tap.
	if !made {
		t.Fatal("non-send actions did not pass through the tap")
	}

	// Removing the tap restores passthrough.
	eng.SetActionTap(nil)
	acts = eng.Handle(wire.Envelope{From: 1, Epoch: 1, Proposer: 1, Payload: wire.GotChunk{}})
	_ = acts
	if batches != 2 {
		t.Fatalf("removed tap still ran (%d batches)", batches)
	}
}
