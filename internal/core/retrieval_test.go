package core

import (
	"fmt"
	"testing"

	"dledger/internal/avid"
	"dledger/internal/wire"
)

func isChunkRequest(m wire.Msg) bool {
	switch m.(type) {
	case wire.RequestChunk, wire.RequestChunkAgain:
		return true
	}
	return false
}

// checkSchedulerIdle: once every retrieval has finished, no request may
// still be counted against any server.
func checkSchedulerIdle(t *testing.T, c *testCluster) {
	t.Helper()
	for i, eng := range c.engines {
		if c.crashed[i] || eng.RetrievalsInflight() != 0 {
			continue
		}
		for p, l := range eng.sched.load {
			if l != 0 {
				t.Errorf("node %d counts %d unanswered requests to server %d with no retrieval in flight", i, l, p)
			}
		}
	}
}

// TestRetrievalAvoidsSilentServers: F servers take part in dispersal and
// agreement but never serve a chunk. Every retrieval still completes, and
// after the first few have hedged against them the silent servers are no
// longer asked.
func TestRetrievalAvoidsSilentServers(t *testing.T) {
	const n, f, epochs = 7, 2, 10
	for _, silent := range [][]int{{1, 2}, {5, 6}, {0, 3}} {
		t.Run(fmt.Sprint(silent), func(t *testing.T) {
			mute := map[int]bool{silent[0]: true, silent[1]: true}
			c := newTestCluster(t, Config{N: n, F: f, Mode: ModeDL}, 31, epochs)
			c.deferFn = func(env wire.Envelope, to int) bool { return mute[to] && isChunkRequest(env.Payload) }
			c.releaseWhen = func(*testCluster) bool { return false }

			// Per node: the retrievals in start order, and how many
			// requests each sent to a silent server.
			order := make([][]blockKey, n)
			toSilent := make([]map[blockKey]int, n)
			for i := range toSilent {
				toSilent[i] = map[blockKey]int{}
			}
			c.onAction = func(node int, a Action) {
				if s, ok := a.(SendAction); ok && isChunkRequest(s.Env.Payload) {
					key := blockKey{s.Env.Epoch, s.Env.Proposer}
					if _, seen := toSilent[node][key]; !seen {
						toSilent[node][key] = 0
						order[node] = append(order[node], key)
					}
					if mute[s.To] {
						toSilent[node][key]++
					}
				}
			}
			c.start()
			c.run()
			c.checkTotalOrder()
			checkSchedulerIdle(t, c)
			for i, eng := range c.engines {
				if mute[i] {
					continue
				}
				if got := eng.DeliveredEpoch(); got < epochs-1 {
					t.Fatalf("node %d delivered through epoch %d of %d", i, got, epochs)
				}
				if eng.RetrievalsInflight() != 0 {
					t.Fatalf("node %d still has %d retrievals in flight", i, eng.RetrievalsInflight())
				}
				if len(order[i]) < 40 {
					t.Fatalf("node %d ran only %d retrievals", i, len(order[i]))
				}
				late := order[i][10:]
				sum := 0
				for _, key := range late {
					sum += toSilent[i][key]
				}
				if rate := float64(sum) / float64(len(late)); rate >= 0.1 {
					t.Errorf("node %d sent %.2f requests per retrieval to silent servers after its first ten, want under 0.1", i, rate)
				}
			}
		})
	}
}

// servedBlock is a dispersed block a scripted peer can serve chunks of.
type servedBlock struct {
	key    blockKey
	chunks []wire.Chunk
}

func disperseFor(t *testing.T, cfg Config, key blockKey) servedBlock {
	t.Helper()
	params, err := avid.NewParams(cfg.N, cfg.F)
	if err != nil {
		t.Fatal(err)
	}
	blk := &wire.Block{Proposer: key.proposer, Epoch: key.epoch, V: make([]uint64, cfg.N),
		Txs: [][]byte{[]byte(fmt.Sprintf("tx-%d-%d", key.epoch, key.proposer))}}
	chunks, _, err := avid.Disperse(params, blk.Encode())
	if err != nil {
		t.Fatal(err)
	}
	return servedBlock{key: key, chunks: chunks}
}

func (b servedBlock) answer(from int) wire.Envelope {
	c := b.chunks[from]
	return wire.Envelope{From: from, Epoch: b.key.epoch, Proposer: b.key.proposer,
		Payload: wire.ReturnChunk{Root: c.Root, Data: c.Data, Proof: c.Proof}}
}

// scriptedRetriever drives one engine by hand: it collects the chunk
// requests the engine sends per block and fires the scheduler's tick.
type scriptedRetriever struct {
	t     *testing.T
	eng   *Engine
	asked map[blockKey]map[int]int // block -> server -> requests received
	again map[blockKey]bool        // block saw a RequestChunkAgain
	hello int                      // SyncHello messages sent
	token uint64                   // last armed tick
}

func (s *scriptedRetriever) apply(acts []Action) {
	for _, a := range acts {
		switch act := a.(type) {
		case TimerAction:
			if act.Token == s.eng.sched.token {
				s.token = act.Token
			}
		case SendAction:
			key := blockKey{act.Env.Epoch, act.Env.Proposer}
			_, again := act.Env.Payload.(wire.RequestChunkAgain)
			if again {
				s.again[key] = true
			}
			if isChunkRequest(act.Env.Payload) {
				if s.asked[key] == nil {
					s.asked[key] = map[int]int{}
				}
				s.asked[key][act.To]++
			}
			if _, ok := act.Env.Payload.(wire.SyncHello); ok {
				s.hello++
			}
		}
	}
}

func (s *scriptedRetriever) tick() {
	s.t.Helper()
	if s.token == 0 || s.token != s.eng.sched.token {
		s.t.Fatal("the retrieval tick is not armed")
	}
	token := s.token
	s.token = 0
	s.apply(s.eng.HandleTimer(token))
}

func newScriptedRetriever(t *testing.T, cfg Config) *scriptedRetriever {
	t.Helper()
	cfg.CoinSecret = []byte("s")
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedRetriever{t: t, eng: eng, asked: map[blockKey]map[int]int{}, again: map[blockKey]bool{}}
	s.apply(eng.Start())
	return s
}

// decide installs an epoch's outcome the way the status catch-up does.
func (s *scriptedRetriever) decide(epoch uint64, S []int) {
	s.eng.actions = nil
	s.eng.adoptDecided(epoch, S)
	s.eng.drain()
	s.apply(s.eng.takeActions())
}

// start begins one block's retrieval outside any epoch's delivery.
func (s *scriptedRetriever) start(key blockKey) {
	s.eng.actions = nil
	s.eng.startRetrieval(key)
	s.eng.drain()
	s.apply(s.eng.takeActions())
}

// TestRetrievalOfPrunedEpochReachesStateSync: a live laggard needs an
// epoch the servers it chose have garbage-collected, so its requests are
// dropped for good. Hedging must walk on to all N servers, the retrieval
// must then keep re-asking with the resend variant, and after
// syncRetrievalGiveUp dry rounds the node must bootstrap from a
// checkpoint. The tick has to stay armed all the way.
func TestRetrievalOfPrunedEpochReachesStateSync(t *testing.T) {
	cfg := Config{N: 7, F: 2, StateSync: true}
	s := newScriptedRetriever(t, cfg)
	key := blockKey{1, 3}
	s.decide(1, []int{1, 2, 3, 4, 5})
	if got := len(s.asked[key]); got != cfg.N-2*cfg.F {
		t.Fatalf("first wave asked %d peers, want K = %d (this node holds no chunk)", got, cfg.N-2*cfg.F)
	}
	for round := 1; s.hello == 0; round++ {
		if round > 20 {
			t.Fatalf("no state sync after %d ticks; asked %v", round, s.asked[key])
		}
		s.tick()
		if s.again[key] && len(s.asked[key]) < cfg.N-1 {
			t.Fatalf("resend rounds began with only %d of %d peers asked", len(s.asked[key]), cfg.N-1)
		}
	}
	if len(s.asked[key]) != cfg.N-1 {
		t.Fatalf("asked %d peers before giving up, want all %d", len(s.asked[key]), cfg.N-1)
	}
	if !s.again[key] {
		t.Fatal("the retrieval never switched to the resend request variant")
	}
	if s.hello != cfg.N-1 {
		t.Fatalf("state sync greeted %d peers, want %d", s.hello, cfg.N-1)
	}
	if rs := s.eng.retr[key]; rs == nil || rs.done {
		t.Fatal("retrieval record vanished")
	}
}

// TestSelectivelySilentServersCannotHoldABlock: servers that answer every
// other retrieval are slow on this one, not dead, and are given time; but
// past hedgePatience ticks they are replaced regardless, so F servers
// withholding one block's chunks delay it by a bounded number of ticks.
func TestSelectivelySilentServersCannotHoldABlock(t *testing.T) {
	cfg := Config{N: 7, F: 2}
	k := cfg.N - 2*cfg.F
	s := newScriptedRetriever(t, cfg)
	held := disperseFor(t, cfg, blockKey{1, 3})
	s.start(held.key)
	first := map[int]bool{}
	for p := range s.asked[held.key] {
		first[p] = true
	}
	if len(first) != k {
		t.Fatalf("first wave asked %d peers, want %d", len(first), k)
	}
	// Keep the chosen servers audibly alive: before every tick another
	// block is fetched, and they are the ones whose chunks arrive.
	for tick := 1; len(s.asked[held.key]) == k; tick++ {
		if tick > hedgePatience+2 {
			t.Fatalf("block still held after %d ticks; asked %v", tick-1, s.asked[held.key])
		}
		other := disperseFor(t, cfg, blockKey{uint64(10 + tick), 3})
		s.start(other.key)
		for p := range first {
			s.apply(s.eng.Handle(other.answer(p)))
		}
		if rs := s.eng.retr[other.key]; !rs.done {
			t.Fatalf("block %v did not retrieve from %v", other.key, first)
		}
		s.tick()
		if len(s.asked[held.key]) > k && tick <= hedgePatience {
			t.Fatalf("servers answering other blocks were replaced at tick %d, before patience %d ran out", tick, hedgePatience)
		}
	}
	// The replacements answer; the block completes.
	for p := range s.asked[held.key] {
		if !first[p] {
			s.apply(s.eng.Handle(held.answer(p)))
		}
	}
	if rs := s.eng.retr[held.key]; rs == nil || !rs.done || rs.bad {
		t.Fatalf("block did not retrieve from the replacement servers: %+v", rs)
	}
	for p, l := range s.eng.sched.load {
		if l != 0 {
			t.Errorf("server %d still counted with %d unanswered requests", p, l)
		}
	}
}

// TestRetrievalWindowFollowsDelivery: only the two epochs next in
// delivery order have their blocks fetched; later decided epochs wait.
func TestRetrievalWindowFollowsDelivery(t *testing.T) {
	cfg := Config{N: 4, F: 1}
	S := []int{1, 2, 3}
	s := newScriptedRetriever(t, cfg)
	// Decisions arrive newest first.
	for epoch := uint64(4); epoch >= 1; epoch-- {
		s.decide(epoch, S)
	}
	requested := func(epoch uint64) int {
		n := 0
		for _, j := range S {
			if len(s.asked[blockKey{epoch, j}]) > 0 {
				n++
			}
		}
		return n
	}
	for epoch := uint64(1); epoch <= 4; epoch++ {
		want := 0
		if epoch <= retrievalWindow {
			want = len(S)
		}
		if got := requested(epoch); got != want {
			t.Fatalf("%d blocks of epoch %d requested with nothing delivered, want %d", got, epoch, want)
		}
	}
	if got := s.eng.RetrievalsInflight(); got != retrievalWindow*len(S) {
		t.Fatalf("%d retrievals in flight, want %d", got, retrievalWindow*len(S))
	}
	// Delivering epoch 1 slides the window over epoch 3.
	for _, j := range S {
		blk := disperseFor(t, cfg, blockKey{1, j})
		for p := range s.asked[blk.key] {
			s.apply(s.eng.Handle(blk.answer(p)))
		}
	}
	if s.eng.DeliveredEpoch() != 1 {
		t.Fatalf("delivered through %d, want 1", s.eng.DeliveredEpoch())
	}
	if requested(3) != len(S) || requested(4) != 0 {
		t.Fatalf("after delivering epoch 1: %d blocks of epoch 3 and %d of epoch 4 requested, want %d and 0", requested(3), requested(4), len(S))
	}
}

// TestDroppedRetrievalsReleaseTheirRequests: the scheduler's per-peer
// counters are soft state. A retrieval dropped unfinished, by garbage
// collection or by a state-sync install, must not leave its requests
// counted against the servers it asked.
func TestDroppedRetrievalsReleaseTheirRequests(t *testing.T) {
	cfg := Config{N: 7, F: 2, StateSync: true}
	loaded := func(s *scriptedRetriever) int {
		n := 0
		for _, l := range s.eng.sched.load {
			n += l
		}
		return n
	}
	s := newScriptedRetriever(t, cfg)
	s.start(blockKey{1, 3})
	s.start(blockKey{1, 4})
	if got, want := loaded(s), 2*(cfg.N-2*cfg.F); got != want {
		t.Fatalf("%d requests counted after two first waves, want %d", got, want)
	}
	s.eng.dropRetrieval(blockKey{1, 3})
	if got, want := loaded(s), cfg.N-2*cfg.F; got != want {
		t.Fatalf("%d requests counted after dropping one retrieval, want %d", got, want)
	}
	if !s.eng.installManifest(syncManifest(cfg.N, 32)) {
		t.Fatal("manifest not installed")
	}
	if got := loaded(s); got != 0 || len(s.eng.sched.active) != 0 || s.eng.sched.token != 0 {
		t.Fatalf("after a state-sync install: %d requests counted, %d retrievals listed, tick token %d; want all zero",
			got, len(s.eng.sched.active), s.eng.sched.token)
	}
}
