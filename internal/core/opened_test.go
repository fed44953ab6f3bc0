package core

import (
	"reflect"
	"testing"

	"dledger/internal/avid"
	"dledger/internal/wire"
)

// TestEpochOpenedByOthersAboveOwnProposal feeds node 0 of a four-node
// cluster, which has proposed into epoch 1, traffic that must not open an
// epoch and traffic that must, in order, reading EpochOpened after each.
func TestEpochOpenedByOthersAboveOwnProposal(t *testing.T) {
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
		want bool
	}{
		{"another proposer's chunk in the epoch proposed into", chunkFor(1, 1, 1), false},
		{"an echo about this node's own next dispersal", wire.Envelope{From: 2, Epoch: 2, Proposer: 0, Payload: wire.GotChunk{}}, false},
		{"a chunk sent by someone other than its proposer", chunkFor(2, 3, 2), false},
		{"a retrieval request", wire.Envelope{From: 2, Epoch: 2, Proposer: 1, Payload: wire.RequestChunk{}}, false},
		{"another proposer's chunk above it", chunkFor(2, 1, 1), true},
		{"more dispersal traffic in that epoch", wire.Envelope{From: 3, Epoch: 2, Proposer: 2, Payload: wire.Ready{}}, true},
		{"an echo about another proposer's dispersal above it", wire.Envelope{From: 2, Epoch: 3, Proposer: 3, Payload: wire.GotChunk{}}, true},
	}
	// run drives a fresh node 0 through the steps; before the opening
	// step `twin`, it marks that epoch as opened already.
	run := func(twin int) (batches [][]Action, opened []bool) {
		eng, err := NewEngine(Config{N: 4, F: 1, CoinSecret: []byte("s")}, 0)
		if err != nil {
			t.Fatal(err)
		}
		eng.Start()
		if _, err := eng.Propose(nil); err != nil {
			t.Fatal(err)
		}
		for i, s := range steps {
			if i == twin {
				eng.opened = s.env.Epoch
			}
			batches = append(batches, eng.Handle(s.env))
			opened = append(opened, eng.EpochOpened())
		}
		return batches, opened
	}
	batches, opened := run(-1)
	for i, s := range steps {
		if opened[i] != s.want {
			t.Errorf("%s: opened %v, want %v", s.name, opened[i], s.want)
		}
	}
	// The signal is bookkeeping only: a twin that takes the opening as
	// given emits the same sends and durable records.
	const opening = 4
	twin, _ := run(opening)
	if len(batches[opening]) == 0 || !reflect.DeepEqual(batches[opening], twin[opening]) {
		t.Errorf("opening step emits %d actions, a twin without it %d", len(batches[opening]), len(twin[opening]))
	}
}
