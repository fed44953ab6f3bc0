package core

import (
	"reflect"
	"testing"

	"dledger/internal/avid"
	"dledger/internal/wire"
)

// openedIn lists the epochs the batch announces as opened.
func openedIn(actions []Action) []uint64 {
	var out []uint64
	for _, a := range actions {
		if o, ok := a.(EpochOpenedAction); ok {
			out = append(out, o.Epoch)
		}
	}
	return out
}

// TestEpochOpenedOncePerEpochByOthersAboveOwnProposal feeds node 0 of a
// four-node cluster, which has proposed into epoch 1, traffic that must
// not open an epoch and traffic that must, in order.
func TestEpochOpenedOncePerEpochByOthersAboveOwnProposal(t *testing.T) {
	params, _ := avid.NewParams(4, 1)
	chunkFor := func(epoch uint64, proposer, from int) wire.Envelope {
		blk := &wire.Block{Proposer: proposer, Epoch: epoch, V: make([]uint64, 4)}
		chunks, _, err := avid.Disperse(params, blk.Encode())
		if err != nil {
			t.Fatal(err)
		}
		return wire.Envelope{From: from, Epoch: epoch, Proposer: proposer, Payload: chunks[0]}
	}
	steps := []struct {
		name string
		env  wire.Envelope
		want []uint64
	}{
		{"another proposer's chunk in the epoch proposed into", chunkFor(1, 1, 1), nil},
		{"an echo about this node's own next dispersal", wire.Envelope{From: 2, Epoch: 2, Proposer: 0, Payload: wire.GotChunk{}}, nil},
		{"a chunk sent by someone other than its proposer", chunkFor(2, 3, 2), nil},
		{"a retrieval request", wire.Envelope{From: 2, Epoch: 2, Proposer: 1, Payload: wire.RequestChunk{}}, nil},
		{"another proposer's chunk above it", chunkFor(2, 1, 1), []uint64{2}},
		{"more dispersal traffic in that epoch", wire.Envelope{From: 3, Epoch: 2, Proposer: 2, Payload: wire.Ready{}}, nil},
		{"an echo about another proposer's dispersal above it", wire.Envelope{From: 2, Epoch: 3, Proposer: 3, Payload: wire.GotChunk{}}, []uint64{3}},
	}
	// run drives a fresh node 0 through the steps; before the opening
	// step `twin`, it marks that epoch as announced already.
	run := func(twin int) [][]Action {
		eng, err := NewEngine(Config{N: 4, F: 1, CoinSecret: []byte("s")}, 0)
		if err != nil {
			t.Fatal(err)
		}
		eng.Start()
		if _, err := eng.Propose(nil); err != nil {
			t.Fatal(err)
		}
		var batches [][]Action
		for i, s := range steps {
			if i == twin {
				eng.opened = s.env.Epoch
			}
			batches = append(batches, eng.Handle(s.env))
		}
		return batches
	}
	batches := run(-1)
	for i, s := range steps {
		if got := openedIn(batches[i]); !reflect.DeepEqual(got, s.want) {
			t.Errorf("%s: opened %v, want %v", s.name, got, s.want)
		}
	}
	// The signal is all the opening step adds: a twin that takes it as
	// given emits the same sends and durable records without it.
	const opening = 4
	twin := run(opening)
	var rest []Action
	for _, a := range batches[opening] {
		if _, ok := a.(EpochOpenedAction); !ok {
			rest = append(rest, a)
		}
	}
	if len(rest) == 0 || !reflect.DeepEqual(rest, twin[opening]) {
		t.Errorf("opening step emits %d actions besides the signal, a twin without it %d", len(rest), len(twin[opening]))
	}
}
