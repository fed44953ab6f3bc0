package core

// Dispersal persistence: an AVID-M server journals what it says (the
// accepted chunk before its GotChunk, each Ready, each completion) and a
// restarted server replays that journal and re-sends its statements, the
// way a BA instance does with its votes.

import (
	"bytes"
	"testing"

	"dledger/internal/avid"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// TestWholeClusterRestartCommittedBlockStaysRetrievable commits a block
// whose dispersal completed at only two nodes, restarts every node from
// its WAL and chunk records, and checks the block is retrieved.
//
// Setup: N=4. Node 3 never gets its chunk of (1,1), and the Readys of
// (1,1) reach only nodes 0 and 3. So nodes 1 and 2 hold the chunk and
// said GotChunk and Ready, but never complete; node 0 completes with its
// chunk, node 3 without. In most seeds BA still commits (1,1). Before
// the restart only node 0 can serve (1,1), one chunk short of K=2. After
// it, nodes 1 and 2 must still hold their chunks, and the re-sent
// Readys must complete their servers, or nodes 0, 2 and 3 never deliver
// epoch 1.
func TestWholeClusterRestartCommittedBlockStaysRetrievable(t *testing.T) {
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("core test secret")}
	const seeds = 300
	committed := 0
	for seed := int64(0); seed < seeds; seed++ {
		c := newTestCluster(t, cfg, seed, 1)
		wals := make([]*walCollector, cfg.N)
		for i := range wals {
			wals[i] = newWALCollector()
		}
		c.onAction = func(node int, a Action) { wals[node].observe(a) }
		c.deferFn = func(env wire.Envelope, to int) bool {
			if env.Epoch != 1 || env.Proposer != 1 {
				return false
			}
			switch env.Payload.(type) {
			case wire.Chunk:
				return to == 3
			case wire.Ready:
				return to == 1 || to == 2
			}
			return false
		}
		c.start()
		c.runSteps(1_000_000) // no timers: the retrievals of (1,1) stall
		if !contains(c.decided[0][1], 1) {
			continue
		}
		committed++

		// Whole-cluster restart: what was in flight dies with the nodes.
		c.queue, c.deferred, c.timers, c.deferFn = nil, nil, nil, nil
		for i := range c.engines {
			eng, err := NewEngine(cfg, i)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Restore(nil, wals[i].recs, wals[i].chunks); err != nil {
				t.Fatal(err)
			}
			c.engines[i] = eng
		}
		c.onAction = nil
		c.start()
		for round := 0; round < 20 && !allDeliveredThrough(c, 1); round++ {
			c.runSteps(1_000_000)
			timers := c.timers
			c.timers = nil
			for _, tm := range timers {
				c.apply(tm.node, c.engines[tm.node].HandleTimer(tm.token))
			}
		}
		for i, eng := range c.engines {
			if eng.deliveredEpoch < 1 {
				t.Fatalf("seed %d: node %d never delivers epoch 1 after the restart, although (1,1) was committed (%d of %d seeds so far committed it)",
					seed, i, committed, seed+1)
			}
		}
	}
	if committed < seeds/2 {
		t.Fatalf("only %d of %d seeds committed (1,1); the scenario needs tuning", committed, seeds)
	}
	t.Logf("%d of %d seeds committed (1,1); every node delivered epoch 1 after the restart in each", committed, seeds)
}

func contains(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func allDeliveredThrough(c *testCluster, epoch uint64) bool {
	for _, eng := range c.engines {
		if eng.deliveredEpoch < epoch {
			return false
		}
	}
	return true
}

// restartFrom restores a fresh engine for id from a collected WAL and
// starts it, returning the start's actions.
func restartFrom(t *testing.T, cfg Config, id int, wal *walCollector) (*Engine, []Action) {
	t.Helper()
	eng, err := NewEngine(cfg, id)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(nil, wal.recs, wal.chunks); err != nil {
		t.Fatal(err)
	}
	return eng, eng.Start()
}

// vidSends returns the GotChunk and Ready roots an action batch sends
// for instance (1,1), once per root and kind.
func vidSends(actions []Action) (got, ready [][]byte) {
	seen := map[string]bool{}
	for _, a := range actions {
		s, ok := a.(SendAction)
		if !ok || s.Env.Epoch != 1 || s.Env.Proposer != 1 {
			continue
		}
		switch m := s.Env.Payload.(type) {
		case wire.GotChunk:
			if !seen["g"+string(m.Root[:])] {
				seen["g"+string(m.Root[:])] = true
				got = append(got, m.Root[:])
			}
		case wire.Ready:
			if !seen["r"+string(m.Root[:])] {
				seen["r"+string(m.Root[:])] = true
				ready = append(ready, m.Root[:])
			}
		}
	}
	return got, ready
}

// twoDispersals returns node 0's chunk of two different blocks that
// Byzantine proposer 1 disperses for epoch 1: both valid, under roots A
// and B.
func twoDispersals(t *testing.T) (a, b wire.Chunk) {
	t.Helper()
	params, _ := avid.NewParams(4, 1)
	var out [2]wire.Chunk
	for i, tx := range []string{"A", "B"} {
		blk := &wire.Block{Proposer: 1, Epoch: 1, V: []uint64{0, 0, 0, 0}, Txs: [][]byte{[]byte(tx)}}
		chunks, _, err := avid.Disperse(params, blk.Encode())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = chunks[0]
	}
	return out[0], out[1]
}

// TestRestartedServerDoesNotEquivocateGotChunk: node 0 says GotChunk(A)
// for (1,1) and does not complete. The whole cluster restarts, and the
// Byzantine proposer then sends node 0 a valid chunk under root B. A
// server that forgot A answers GotChunk(B): an honest node saying
// GotChunk for two roots. The restored server re-sends GotChunk(A) and
// says nothing for B.
func TestRestartedServerDoesNotEquivocateGotChunk(t *testing.T) {
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("s")}
	a, b := twoDispersals(t)
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	wal := newWALCollector()
	collect := func(actions []Action) {
		for _, act := range actions {
			wal.observe(act)
		}
	}
	collect(eng.Start())
	acts := eng.Handle(wire.Envelope{From: 1, Epoch: 1, Proposer: 1, Payload: a})
	collect(acts)
	if got, _ := vidSends(acts); len(got) != 1 || !bytes.Equal(got[0], a.Root[:]) {
		t.Fatalf("node 0 did not answer chunk A with GotChunk(A): %x", got)
	}

	eng, start := restartFrom(t, cfg, 0, wal)
	acts = eng.Handle(wire.Envelope{From: 1, Epoch: 1, Proposer: 1, Payload: b})
	if got, _ := vidSends(acts); len(got) != 0 {
		t.Fatalf("restarted node equivocated: GotChunk(%x) after GotChunk(%x)", got[0], a.Root[:])
	}
	if got, _ := vidSends(start); len(got) != 1 || !bytes.Equal(got[0], a.Root[:]) {
		t.Fatalf("restart did not re-send GotChunk(A): %x", got)
	}
}

// TestRestartedServerDoesNotEquivocateReady: node 0 says Ready(A) for
// (1,1) on N−f GotChunk(A) and does not complete. After a whole-cluster
// restart N−f GotChunk(B) arrive — the Byzantine proposer's and two
// from peers that forgot A too. A server that forgot its Ready(A)
// answers Ready(B); the restored one says nothing for B.
func TestRestartedServerDoesNotEquivocateReady(t *testing.T) {
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("s")}
	a, b := twoDispersals(t)
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	wal := newWALCollector()
	var sent []Action
	collect := func(actions []Action) {
		for _, act := range actions {
			wal.observe(act)
		}
		sent = append(sent, actions...)
	}
	collect(eng.Start())
	for _, from := range []int{1, 2, 3} {
		collect(eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1, Payload: wire.GotChunk{Root: a.Root}}))
	}
	if _, ready := vidSends(sent); len(ready) != 1 || !bytes.Equal(ready[0], a.Root[:]) {
		t.Fatalf("node 0 did not say Ready(A): %x", ready)
	}
	if done, _ := eng.epochs[1].vids[1].Completed(); done {
		t.Fatal("node 0 completed; the case needs an unfinished dispersal")
	}

	eng, start := restartFrom(t, cfg, 0, wal)
	sent = nil
	for _, from := range []int{1, 2, 3} {
		sent = append(sent, eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1, Payload: wire.GotChunk{Root: b.Root}})...)
	}
	if _, ready := vidSends(sent); len(ready) != 0 {
		t.Fatalf("restarted node equivocated: Ready(%x) after Ready(%x)", ready[0], a.Root[:])
	}
	if _, ready := vidSends(start); len(ready) != 1 || !bytes.Equal(ready[0], a.Root[:]) {
		t.Fatalf("restart did not re-send Ready(A): %x", ready)
	}
}

// TestChunkJournalRestoresLateChunk: a server completes without its
// chunk, then the chunk arrives. The journal holds the completion and
// then the chunk, and the restored server serves it — what the
// superseding chunk record used to do.
func TestChunkJournalRestoresLateChunk(t *testing.T) {
	cfg := Config{N: 4, F: 1, Mode: ModeDL, CoinSecret: []byte("s")}
	a, _ := twoDispersals(t)
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	wal := newWALCollector()
	collect := func(actions []Action) {
		for _, act := range actions {
			wal.observe(act)
		}
	}
	collect(eng.Start())
	for _, from := range []int{1, 2, 3} {
		collect(eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: 1, Payload: wire.Ready{Root: a.Root}}))
	}
	collect(eng.Handle(wire.Envelope{From: 1, Epoch: 1, Proposer: 1, Payload: a}))
	var kinds []store.ChunkKind
	for _, c := range wal.chunks {
		kinds = append(kinds, c.Kind)
	}
	want := []store.ChunkKind{store.ChunkReady, store.ChunkDone, store.ChunkGot}
	if len(kinds) != len(want) || kinds[0] != want[0] || kinds[1] != want[1] || kinds[2] != want[2] {
		t.Fatalf("journal kinds %v, want %v", kinds, want)
	}
	eng, _ = restartFrom(t, cfg, 0, wal)
	if !eng.holdsChunk(blockKey{1, 1}) {
		t.Fatal("restored server lost the chunk that arrived after completion")
	}
}
