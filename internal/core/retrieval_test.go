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
		if got := eng.sched.expecting; got != 0 {
			t.Errorf("node %d expects %d answers with no retrieval in flight", i, got)
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
	return disperseWithV(t, cfg, key, make([]uint64, cfg.N))
}

// disperseWithV is disperseFor for a block that carries the observation
// array V.
func disperseWithV(t *testing.T, cfg Config, key blockKey, V []uint64) servedBlock {
	t.Helper()
	params, err := avid.NewParams(cfg.N, cfg.F)
	if err != nil {
		t.Fatal(err)
	}
	blk := &wire.Block{Proposer: key.proposer, Epoch: key.epoch, V: V,
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

// TestRetrievalWindowFollowsDelivery: blocks are asked for in delivery
// order only while fewer requests are unanswered than the limit, whatever
// order the decisions arrived in; each accepted chunk admits the next block,
// and a tick moves the limit to twice what the last two ticks brought.
func TestRetrievalWindowFollowsDelivery(t *testing.T) {
	cfg := Config{N: 4, F: 1}
	k := cfg.N - 2*cfg.F
	S := []int{1, 2, 3}
	s := newScriptedRetriever(t, cfg)
	// Epoch 3 is decided first and may take what room there is; epochs 1,
	// 2 and 4 find the limit reached and wait, in delivery order.
	for _, epoch := range []uint64{3, 1, 2, 4} {
		s.decide(epoch, S)
	}
	requested := func() (keys []blockKey) {
		for epoch := uint64(1); epoch <= 4; epoch++ {
			for _, j := range S {
				if key := (blockKey{epoch, j}); len(s.asked[key]) > 0 {
					keys = append(keys, key)
				}
			}
		}
		return keys
	}
	expect := func(when string, want ...blockKey) {
		t.Helper()
		if got := requested(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: blocks requested %v, want %v", when, got, want)
		}
		if got, most := s.eng.sched.expecting, s.eng.sched.limit+k-1; got > most {
			t.Fatalf("%s: %d requests unanswered, limit %d admits at most %d", when, got, s.eng.sched.limit, most)
		}
	}
	if got, want := s.eng.sched.limit, cfg.N*k; got != want {
		t.Fatalf("limit starts at %d, want one epoch's requests, %d", got, want)
	}
	// N·K = 8 requests at K = 2 a block: epoch 3's three blocks, then the
	// first block in delivery order.
	e3 := []blockKey{{3, 1}, {3, 2}, {3, 3}}
	expect("nothing answered", append([]blockKey{{1, 1}}, e3...)...)
	if !s.eng.sched.held {
		t.Fatal("the limit kept blocks waiting and did not record it")
	}

	answer := func(key blockKey, chunks int) {
		blk := disperseFor(t, cfg, key)
		for p := range s.asked[key] {
			if chunks == 0 {
				break
			}
			if rs := s.eng.retr[key]; rs != nil && !rs.done && !rs.ret.Answered(p) {
				s.apply(s.eng.Handle(blk.answer(p)))
				chunks--
			}
		}
	}
	// One chunk of a later epoch makes room for the next block delivery
	// needs, not for one of its own epoch's successors.
	answer(blockKey{3, 2}, 1)
	expect("one chunk accepted", append([]blockKey{{1, 1}, {1, 2}}, e3...)...)
	// That block overshot the limit by one request: the next chunk
	// accepted only takes the count back to it.
	answer(blockKey{3, 2}, 1)
	expect("two chunks accepted", append([]blockKey{{1, 1}, {1, 2}}, e3...)...)
	answer(blockKey{1, 1}, 1)
	expect("three chunks accepted", append([]blockKey{{1, 1}, {1, 2}, {1, 3}}, e3...)...)

	// The tick found blocks held back and three chunks accepted: the limit
	// follows the link down to twice that, and a second tick in which
	// nothing arrives does not take it further, nor below two blocks' worth.
	s.tick()
	if got, want := s.eng.sched.limit, limitTicks*3; got != want {
		t.Fatalf("limit %d after a held tick that accepted 3 chunks, want %d", got, want)
	}
	s.tick()
	s.tick()
	if got, want := s.eng.sched.limit, limitFloorBlocks*k; got != want {
		t.Fatalf("limit %d after two ticks without a chunk, want the floor %d", got, want)
	}
}

// slowLink answers a scripted retriever's requests the way a full link
// does: so many chunks a tick, the oldest block's first, and nothing from
// the servers that are gone.
type slowLink struct {
	s      *scriptedRetriever
	cfg    Config
	S      []int
	dead   map[int]bool
	blocks map[blockKey]servedBlock
	sent   map[blockKey]map[int]bool
}

func newSlowLink(s *scriptedRetriever, cfg Config, S []int, dead ...int) *slowLink {
	l := &slowLink{s: s, cfg: cfg, S: S, dead: map[int]bool{}, blocks: map[blockKey]servedBlock{}, sent: map[blockKey]map[int]bool{}}
	for _, p := range dead {
		l.dead[p] = true
	}
	return l
}

// deliver hands the engine up to n chunks it is still waiting for, from
// the epochs after the last delivered through epoch last.
func (l *slowLink) deliver(n int, last uint64) {
	for epoch := l.s.eng.DeliveredEpoch() + 1; epoch <= last; epoch++ {
		for _, j := range l.S {
			key := blockKey{epoch, j}
			for p := 1; p < l.cfg.N && n > 0; p++ {
				if l.s.asked[key][p] == 0 || l.dead[p] || l.sent[key][p] {
					continue
				}
				if l.sent[key] == nil {
					l.sent[key] = map[int]bool{}
					l.blocks[key] = disperseFor(l.s.t, l.cfg, key)
				}
				l.sent[key][p] = true
				if rs := l.s.eng.retr[key]; !rs.done {
					l.s.apply(l.s.eng.Handle(l.blocks[key].answer(p)))
					n--
				}
			}
		}
	}
}

// toDead counts the requests to dead servers the scheduler still waits for.
func (l *slowLink) toDead() int {
	n := 0
	for p := range l.dead {
		n += l.s.eng.sched.load[p]
	}
	return n
}

// TestLimitAtFloorSurvivesCrashedServers: F servers are gone from the
// first request on and the link brings two chunks a tick, so the limit sits
// at its floor of two blocks' requests, a third of which the scheduler's
// first choices hand to the dead. A request given up on frees its slot for
// its replacement and a tick without arrivals hedges whatever the limit
// says, so every retrieval completes.
func TestLimitAtFloorSurvivesCrashedServers(t *testing.T) {
	cfg := Config{N: 7, F: 2}
	const epochs, perTick = 4, 2
	floor := limitFloorBlocks * (cfg.N - 2*cfg.F)
	S := []int{1, 2, 3, 4, 5}
	s := newScriptedRetriever(t, cfg)
	s.eng.sched.limit = floor
	link := newSlowLink(s, cfg, S, 5, 6)
	for epoch := uint64(1); epoch <= epochs; epoch++ {
		s.decide(epoch, S)
	}
	toDead, heldWithDead := 0, false
	for tick := 1; s.eng.DeliveredEpoch() < epochs; tick++ {
		if tick > 40*epochs {
			t.Fatalf("delivered through epoch %d of %d after %d ticks; %d requests unanswered at limit %d, tick armed: %v",
				s.eng.DeliveredEpoch(), epochs, tick-1, s.eng.sched.expecting, s.eng.sched.limit, s.token != 0)
		}
		link.deliver(perTick, epochs)
		toDead = max(toDead, link.toDead())
		heldWithDead = heldWithDead || s.eng.sched.held && link.toDead() > 0
		if s.token != 0 {
			s.tick()
		}
		if got := s.eng.sched.limit; got != floor {
			t.Fatalf("tick %d: limit %d with %d chunks a tick, want the floor %d", tick, got, perTick, floor)
		}
	}
	if toDead == 0 || !heldWithDead {
		t.Fatalf("the scenario never had the limit binding with requests to dead servers outstanding (most %d)", toDead)
	}
	if got := s.eng.RetrievalsInflight(); got != 0 {
		t.Fatalf("%d retrievals still in flight", got)
	}
	if got := s.eng.sched.expecting; got != 0 {
		t.Fatalf("%d requests still counted as unanswered with every block delivered", got)
	}
}

// TestFullLinkOutlivesCrashedServers: F servers are gone, an epoch is
// decided every tick and the link brings less than an epoch's chunks a tick,
// every tick: the limit binds for good, chunks never stop arriving, and the
// tick that hedges everything after two empty ones never comes. A block
// whose first choices include a dead server must be hedged all the same,
// once the link has answered what was asked before it twice over, or the
// head of the delivery pipeline waits for ever behind later epochs' chunks.
func TestFullLinkOutlivesCrashedServers(t *testing.T) {
	cfg := Config{N: 7, F: 2}
	const ticks, perTick = 80, 6 // an epoch is 5 blocks of K = 3 chunks
	S := []int{1, 2, 3, 4, 5}
	s := newScriptedRetriever(t, cfg)
	link := newSlowLink(s, cfg, S, 5, 6)
	s.decide(1, S)
	sawDead, lastAdvance, worst := false, 0, 0
	for tick := 1; tick <= ticks; tick++ {
		before := s.eng.DeliveredEpoch()
		link.deliver(perTick, uint64(tick))
		sawDead = sawDead || link.toDead() > 0
		if tick > 3 {
			if !s.eng.sched.held || s.eng.sched.expecting < s.eng.sched.limit {
				t.Fatalf("tick %d: %d requests unanswered under limit %d, held %v: the link is not this node's bottleneck and the scenario tests nothing",
					tick, s.eng.sched.expecting, s.eng.sched.limit, s.eng.sched.held)
			}
		}
		s.tick()
		s.decide(uint64(tick+1), S)
		if s.eng.DeliveredEpoch() > before {
			lastAdvance = tick
		}
		worst = max(worst, tick-lastAdvance)
		// Two queues' worth of arrivals is four ticks at this limit; a
		// replacement then waits its turn behind one queue more.
		if tick-lastAdvance > 4*overdueQueues*limitTicks {
			t.Fatalf("tick %d: delivery has stood at epoch %d for %d ticks with %d chunks arriving on each; %d requests wait on dead servers",
				tick, s.eng.DeliveredEpoch(), tick-lastAdvance, perTick, link.toDead())
		}
	}
	if !sawDead {
		t.Fatal("no request ever went to a dead server")
	}
	// The link carries perTick/15 of an epoch a tick; dead servers cost
	// the first few blocks a hedge each and nothing once they are avoided.
	if got, want := s.eng.DeliveredEpoch(), uint64(ticks*perTick/15*3/4); got < want {
		t.Errorf("delivered through epoch %d in %d ticks of %d chunks, want at least %d (longest wait %d ticks)", got, ticks, perTick, want, worst)
	}
	t.Logf("delivered through epoch %d, longest wait %d ticks, limit %d", s.eng.DeliveredEpoch(), worst, s.eng.sched.limit)
}

// TestHeldRetrievalsQuiesce: nothing node 3 sends arrives, so its requests
// soak up its whole limit and blocks are held back with nothing in flight
// that could make room. The tick must hedge then, run out of servers and
// stop: a scheduler that never hedges while the limit binds keeps re-arming
// a timer that can do nothing, which testCluster.run fails.
func TestHeldRetrievalsQuiesce(t *testing.T) {
	const epochs = 4
	c := newTestCluster(t, Config{N: 4, F: 1, Mode: ModeDL}, 3, epochs)
	c.dropFn = func(from, to int) bool { return from == 3 && to != 3 }
	cut := c.engines[3]
	stuck := false
	c.onDrain = func() {
		stuck = stuck || cut.sched.held && cut.sched.expecting >= cut.sched.limit
	}
	c.start()
	c.run()
	if !stuck {
		t.Fatal("node 3 was never held at its limit with the network drained: the scenario tests nothing")
	}
	if cut.sched.token != 0 || len(cut.sched.active) != 0 {
		t.Fatalf("node 3 quiesced with its tick armed (token %d) for %d retrievals", cut.sched.token, len(cut.sched.active))
	}
	for i, eng := range c.engines[:3] {
		if got := eng.DeliveredEpoch(); got < epochs-1 {
			t.Fatalf("node %d delivered through epoch %d of %d", i, got, epochs)
		}
	}
}

// TestLinkedBlocksAreNotHeld: the blocks an epoch links in gate the head
// of the delivery pipeline, so all of them are asked for the moment the
// epoch's committed blocks are delivered, however many requests are
// unanswered; only blocks further down the delivery order wait for room.
func TestLinkedBlocksAreNotHeld(t *testing.T) {
	cfg := Config{N: 4, F: 1}
	k := cfg.N - 2*cfg.F
	S := []int{1, 2, 3}
	s := newScriptedRetriever(t, cfg)
	// Epoch 4's blocks report node 0's dispersals complete through epoch
	// 3; none of those blocks was committed, so delivering epoch 4 links
	// all three in.
	linked := []blockKey{{1, 0}, {2, 0}, {3, 0}}
	serve := func(key blockKey) {
		V := make([]uint64, cfg.N)
		if key.epoch == 4 {
			V[0] = 3
		}
		blk := disperseWithV(t, cfg, key, V)
		for p := range s.asked[key] {
			s.apply(s.eng.Handle(blk.answer(p)))
		}
		if rs := s.eng.retr[key]; rs == nil || !rs.done || rs.bad {
			t.Fatalf("block %v did not retrieve from %v", key, s.asked[key])
		}
	}
	for epoch := uint64(1); epoch <= 8; epoch++ {
		s.decide(epoch, S)
	}
	for epoch := uint64(1); epoch <= 4; epoch++ {
		for _, j := range S {
			serve(blockKey{epoch, j})
		}
	}
	for _, key := range linked {
		if len(s.asked[key]) != k {
			t.Fatalf("linked block %v asked of %d servers with epoch 4's committed blocks delivered, want %d", key, len(s.asked[key]), k)
		}
	}
	if got, most := s.eng.sched.expecting, s.eng.sched.limit+k-1; got <= most {
		t.Fatalf("%d requests unanswered at limit %d: the linked blocks would have started under the limit anyway", got, s.eng.sched.limit)
	}
	if len(s.asked[blockKey{8, 3}]) != 0 {
		t.Fatal("the last decided block was asked for with the limit exceeded")
	}
	for _, key := range linked {
		serve(key)
	}
	if got := s.eng.DeliveredEpoch(); got != 4 {
		t.Fatalf("delivered through epoch %d with the linked blocks in hand, want 4", got)
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
