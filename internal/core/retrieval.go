package core

// Block retrieval: which servers are asked for a block's chunks, when, and
// in what order blocks are fetched. AVID-M's retrieval (Fig 4) needs any
// N−2F chunks verified under one root; the paper broadcasts the request to
// all N servers and cancels once the block decodes. A chunk is one atomic
// message that an idle egress sends at once, so those cancels never land
// in time and every block is downloaded N/(N−2F) times over. The scheduler
// here asks exactly K = N−2F servers, spreads the requests over the peers
// that are answering fastest, hedges against the silent ones on a tick,
// fetches blocks in the order delivery needs them, and keeps no more
// requests unanswered than its own link answers in about two ticks; while
// that limit binds, how long a request has waited is told in chunks
// accepted, not in ticks. Which chunks decode a block, and every check on
// them, stays inside avid.Retriever.

import (
	"math"

	"dledger/internal/avid"
	"dledger/internal/wire"
)

const (
	// hedgePatience is how many ticks an asked server that is answering
	// other retrievals may leave this one unanswered before it is
	// replaced regardless: f servers silent on one block only must not
	// hold that block. (On a full link of this node's own, overdueQueues
	// says when a retrieval is looked at at all.)
	hedgePatience = 3
	// maxPenalty is where a server's penalty stops doubling: far above
	// any load, and twenty answers from forgiven.
	maxPenalty = 1 << 20

	// The limit on unanswered requests (retrSched.limit) is limitTicks
	// times the most chunks accepted in one of the last two ticks. One
	// tick's worth would leave the link idle for a round trip whenever a
	// burst of answers drains the queue; with many more, every request is
	// so far from its answer that a tick takes healthy servers for silent
	// ones, which is how a slow link came to download each block twice.
	limitTicks = 2
	// The limit never falls below limitFloorBlocks blocks' worth of
	// requests (K each), one block arriving and one asked for, so a link
	// that delivered nothing for two ticks is not left idle when it
	// recovers. It starts at one epoch's worth, N blocks: a node that has
	// received nothing knows nothing of its link, and the first epoch is
	// what it cannot deliver anything without, so holding part of that
	// back would only add a round trip to every boot.
	limitFloorBlocks = 2
	// While the limit binds, a retrieval is overdue, and only then hedged,
	// once the link has brought overdueQueues times the requests that were
	// unanswered when it last asked, its own among them (retrState.due).
	// Answers come roughly in the order of the requests, so one queue's
	// worth would have answered it had its servers been as prompt as
	// everyone else's; the second is room for servers that differ by a round
	// trip and an egress queue. Ticks cannot say this: a link whose rate
	// falls tenfold between two of them leaves every request ten ticks from
	// its answer and no server to blame.
	overdueQueues = 2
)

// askState is what one retrieval has asked of one server.
type askState uint8

const (
	notAsked askState = iota
	asked             // request sent; answered, or an answer is expected
	hedged            // request sent and given up on: another server was asked in its place
)

// retrSched is the retrieval scheduler's view of its peers and of the
// retrievals that may still need it. All of it is soft state: never
// journaled, rebuilt from zero by a restart or a state-sync jump.
type retrSched struct {
	// load[p] counts our requests to p still unanswered, over all
	// retrievals in progress. penalty[p] doubles (plus one) each time p is
	// hedged against and halves whenever p answers anything: waiting out a
	// dead server costs a whole tick where a busy one costs its queue, so
	// a server that keeps being hedged against outweighs any load within
	// a few rounds, and one that is merely slow is forgiven by the answers
	// it still owes. Their sum ranks the servers a new retrieval asks.
	load    []int
	penalty []int
	// heard[p] is set when a chunk from p is accepted, cleared every tick.
	heard []bool
	// active lists, in start order, the retrievals a tick can still do
	// something for; token is the armed tick timer (zero = none).
	active []blockKey
	token  uint64

	// expecting counts the requests to other nodes that still expect an
	// answer (state asked, no chunk yet), over all retrievals: the chunks
	// this node has queued up for its own ingress. pumpRetrievals starts
	// no block while it is at limit (see limitTicks). accepted counts the
	// chunks accepted from other nodes, ever: the clock a full link's
	// requests are timed by (see overdueQueues); ticked is its value at
	// the last tick and at the one before. held records that the limit
	// kept a block waiting since the last tick; only then does the limit
	// shrink, because a node that asked for little has learned nothing
	// about its link. heldTicks counts the ticks that found it set.
	expecting int
	limit     int
	accepted  uint64
	ticked    [2]uint64
	held      bool
	heldTicks uint64
}

func newRetrSched(n, k int) retrSched {
	return retrSched{load: make([]int, n), penalty: make([]int, n), heard: make([]bool, n), limit: n * k}
}

// queueDelivery enters a decided epoch into the delivery pipeline; its
// committed blocks are retrieved when pumpRetrievals reaches them.
func (e *Engine) queueDelivery(epoch uint64, S []int) {
	e.deliveries[epoch] = &epochDelivery{epoch: epoch, S: S}
	e.queuedThrough = max(e.queuedThrough, epoch)
}

// pumpRetrievals starts the retrievals of committed blocks in delivery
// order while fewer requests are outstanding than the node's own link
// answers in about two ticks (retrSched.limit). It runs when an epoch is
// decided or delivered and whenever a chunk is accepted, so under load the
// answers clock the requests out. HoneyBadger modes, which download a block
// in order to vote on it, are not held; neither are linked blocks, which
// deliverBAStage starts because they gate the epoch at the head of the
// pipeline. Recovery's resend retrievals are: they ask all N servers, and
// a node that restarts far behind would otherwise ask for every epoch it
// missed at once.
func (e *Engine) pumpRetrievals() {
	for epoch := e.deliveredEpoch + 1; epoch <= e.queuedThrough; epoch++ {
		d := e.deliveries[epoch]
		if d == nil {
			continue
		}
		// A block served from local storage completes inside
		// startRetrieval and can re-enter here through tryDeliver, so the
		// cursor moves first and every condition is read afresh.
		for d.started < len(d.S) {
			if e.sched.expecting >= e.sched.limit && !e.cfg.Mode.voteAfterRetrieve() {
				e.sched.held = true
				return
			}
			d.started++
			e.startRetrieval(blockKey{epoch, d.S[d.started-1]})
		}
	}
}

// startRetrieval begins retrieving a block (idempotent). Our own blocks
// come from local storage without touching the network; for the others K
// servers are asked, and the tick asks more when those stay silent.
func (e *Engine) startRetrieval(key blockKey) {
	if _, ok := e.retr[key]; ok {
		return
	}
	rs := &retrState{}
	e.retr[key] = rs

	if key.proposer == e.self {
		if blk, ok := e.myBlocks[key.epoch]; ok {
			rs.done = true
			rs.V = blk.V
			rs.txs = blk.Txs
			rs.payload = blk.PayloadBytes()
			e.onRetrievalDone(key)
			return
		}
	}
	e.actions = append(e.actions, StageAction{Epoch: key.epoch, Stage: StageRetrieveStart})
	rs.ret = avid.NewRetriever(e.params)
	rs.srv = make([]askState, e.cfg.N)
	// During recovery the previous incarnation may have consumed this
	// retrieval's answers (servers dedup requests), and the reconnect
	// window can eat frames; such retrievals use the resend request
	// variant, ask everyone, and re-ask until the block is in hand.
	rs.resend = e.recovered
	// Chunks already transferred by state sync may satisfy the retrieval
	// outright — bulk pages instead of per-instance round-trips. When
	// they only partially satisfy it, their donors count as answered and
	// that many fewer servers are asked.
	if e.drainStaged(key, rs) {
		return
	}
	if rs.resend {
		e.askSilent(key, rs)
	} else {
		e.askMore(key, rs, e.params.K()-rs.answered())
	}
	e.sched.active = append(e.sched.active, key)
	if e.sched.token == 0 {
		e.sched.token = e.armTimer(retrievalStageDelay)
	}
}

// answered counts the servers whose chunk the retrieval has accepted.
func (rs *retrState) answered() int {
	n := 0
	for p := range rs.srv {
		if rs.ret.Answered(p) {
			n++
		}
	}
	return n
}

// askedAll reports whether there is no server left to ask.
func (rs *retrState) askedAll() bool {
	for _, st := range rs.srv {
		if st == notAsked {
			return false
		}
	}
	return true
}

// rotation is the i-th server of the order that starts at
// (epoch+proposer) mod N, which spreads the cluster's requests for one
// block over all its servers.
func (e *Engine) rotation(key blockKey, i int) int {
	n := uint64(e.cfg.N)
	return int((key.epoch + uint64(key.proposer) + uint64(i)) % n)
}

// holdsChunk reports whether this node's own server completed the
// instance holding its chunk.
func (e *Engine) holdsChunk(key blockKey) bool {
	es := e.epochs[key.epoch]
	return es != nil && es.vids[key.proposer] != nil && es.vids[key.proposer].HasChunk()
}

// askMore asks the want cheapest servers not yet asked: this node first
// when it holds its chunk (the answer costs no bandwidth) and last when it
// does not (it can only answer once its dispersal completes), the others
// by requests of ours still unanswered plus penalty. Ties fall to the
// rotation order. It also notes when these requests will be overdue.
func (e *Engine) askMore(key blockKey, rs *retrState, want int) {
	selfCost := math.MaxInt
	if e.holdsChunk(key) {
		selfCost = -1
	}
	for ; want > 0; want-- {
		best, bestCost := -1, 0
		for i := 0; i < e.cfg.N; i++ {
			p := e.rotation(key, i)
			if rs.srv[p] != notAsked {
				continue
			}
			cost := e.sched.load[p] + e.sched.penalty[p]
			if p == e.self {
				cost = selfCost
			}
			if best < 0 || cost < bestCost {
				best, bestCost = p, cost
			}
		}
		if best < 0 {
			return
		}
		e.ask(key, rs, best, wire.RequestChunk{})
		rs.due = e.sched.accepted + overdueQueues*uint64(e.sched.expecting)
	}
}

// askSilent (re-)asks every server that has not answered, in rotation
// order: the paper's broadcast. It uses the request variant that clears a
// server's duplicate suppression, because what is missing may be an
// answer the server already gave.
func (e *Engine) askSilent(key blockKey, rs *retrState) {
	for i := 0; i < e.cfg.N; i++ {
		if p := e.rotation(key, i); !rs.ret.Answered(p) {
			e.ask(key, rs, p, wire.RequestChunkAgain{})
		}
	}
}

// ask sends one chunk request. load counts a (retrieval, server) pair
// once however often the request is repeated.
func (e *Engine) ask(key blockKey, rs *retrState, to int, msg wire.Msg) {
	if rs.srv[to] == notAsked {
		rs.srv[to] = asked
		e.sched.load[to]++
		if to != e.self {
			e.sched.expecting++
		}
	}
	if to != e.self {
		// Per-peer retrieval-request sub-span, emitted per send (not
		// first-wins) so the flight recorder sees re-ask rounds; the
		// tracer keeps the first per (epoch, peer).
		e.actions = append(e.actions, StageAction{Epoch: key.epoch, Stage: StagePeerRetrieveReq, Peer: to})
	}
	env := wire.Envelope{From: e.self, Epoch: key.epoch, Proposer: key.proposer, Payload: msg}
	e.emit(to, env, e.priorityFor(msg), key.epoch)
}

// closeRequests takes the retrieval's unanswered requests off the
// servers' load and, with cancel, tells those servers to drop them.
func (e *Engine) closeRequests(key blockKey, rs *retrState, cancel bool) {
	for p, st := range rs.srv {
		if st == notAsked || rs.ret.Answered(p) {
			continue
		}
		e.sched.load[p]--
		if st == asked && p != e.self {
			e.sched.expecting--
		}
		if cancel && p != e.self {
			out := wire.Envelope{From: e.self, Epoch: key.epoch, Proposer: key.proposer, Payload: wire.CancelRequest{}}
			e.emit(p, out, e.priorityFor(wire.CancelRequest{}), key.epoch)
		}
	}
}

// dropRetrieval forgets a retrieval record (garbage collection), taking
// an unfinished one's requests off the scheduler's books.
func (e *Engine) dropRetrieval(key blockKey) {
	if rs := e.retr[key]; rs != nil && !rs.done && rs.ret != nil {
		e.closeRequests(key, rs, false)
	}
	delete(e.retr, key)
}

// retrievalTick is the scheduler's timer: every unfinished retrieval that
// has lived through a whole tick gets its silent servers replaced or, in
// resend mode, asked again. The timer stays armed while some retrieval can
// still be helped. One that has asked everyone and is not in resend mode
// cannot: its requests are only ever delayed, never lost (the transports
// re-send what a broken connection swallowed), and waiting is all there
// is to do. With state sync they can be lost — the cluster prunes by
// horizon unconditionally and drops a laggard's requests for good — so
// there such a retrieval turns into a resend one, whose dry rounds
// escalate to a checkpoint bootstrap instead of wedging the delivery
// pipeline forever.
func (e *Engine) retrievalTick() {
	s := &e.sched
	// The limit held a block back and chunks are arriving: the queue of
	// requests is as long as this node's own link can answer, how many
	// ticks one has waited says nothing against its server, and a
	// replacement would be one more chunk for the same full link. Time is
	// then told in chunks accepted, and only a retrieval the link's answers
	// have overtaken (see overdueQueues) is hedged, so a dead server holds
	// a block for two queues' worth of arrivals and no longer. Once nothing
	// has arrived for two ticks (the limit's own memory; a link that brings
	// a chunk or two a tick has empty ticks) every retrieval hedges by the
	// tick again, which is what termination rests on.
	now, before := int(s.accepted-s.ticked[0]), int(s.ticked[0]-s.ticked[1])
	ownLink := s.held && now+before > 0
	if s.held {
		s.heldTicks++
	}
	keep := s.active[:0]
	for _, key := range s.active {
		rs := e.retr[key]
		if rs == nil || rs.done {
			continue
		}
		if rs.age++; rs.age > 1 {
			if rs.resend {
				e.reask(key, rs)
			} else if !ownLink || s.accepted >= rs.due {
				e.hedge(key, rs)
			}
		}
		if e.cfg.StateSync && rs.askedAll() {
			rs.resend = true
		}
		if rs.resend || !rs.askedAll() {
			keep = append(keep, key)
		}
	}
	s.active = keep
	for p := range s.heard {
		s.heard[p] = false
	}
	if limit := max(limitTicks*max(now, before), limitFloorBlocks*e.params.K()); limit > s.limit || s.held {
		s.limit = limit
	}
	s.ticked[1], s.ticked[0], s.held = s.ticked[0], s.accepted, false
	if len(keep) > 0 {
		s.token = e.armTimer(retrievalStageDelay)
	}
	e.pumpRetrievals()
}

// hedge replaces the asked servers this retrieval should stop waiting
// for: those that sent no chunk for any block since the last tick — a
// server that is answering is slow, not dead — and, past hedgePatience,
// all that have not answered. K accepted chunks that did not decode mean
// one of their senders lied about the root, and everyone is asked, as the
// paper does. Hedging therefore reaches all N servers, N−2F of which are
// correct and hold their chunk, which is the paper's termination argument.
// The tick calls it for every retrieval, except that while this node's own
// link is full it skips those not yet overdue.
func (e *Engine) hedge(key blockKey, rs *retrState) {
	have, expected := 0, 0
	for p, st := range rs.srv {
		switch {
		case rs.ret.Answered(p):
			have++
		case st != asked:
		case e.sched.heard[p] && rs.age <= hedgePatience:
			expected++
		default:
			rs.srv[p] = hedged
			if p != e.self {
				e.sched.expecting--
			}
			if e.sched.penalty[p] < maxPenalty {
				e.sched.penalty[p] = 2*e.sched.penalty[p] + 1
			}
		}
	}
	want := e.params.K() - have - expected
	if have >= e.params.K() {
		want = e.cfg.N
	}
	e.askMore(key, rs, want)
}

// reask is one round of a resend retrieval: the previous incarnation may
// have consumed the answers, and the crash/reconnect window can eat
// frames, so it asks the servers still silent again (only those: an
// answered server would re-send its whole chunk) until the block is in
// hand. With state sync, a retrieval dry for syncRetrievalGiveUp rounds
// concludes the chunks are gone cluster-wide and bootstraps forward from
// a peer checkpoint instead.
func (e *Engine) reask(key blockKey, rs *retrState) {
	if have := rs.answered(); have > rs.progress {
		// Chunks are trickling in — slow is not gone.
		rs.progress = have
		rs.retries = 0
	} else if rs.retries++; e.cfg.StateSync && rs.retries >= syncRetrievalGiveUp {
		rs.retries = 0
		e.startStateSync()
	}
	e.askSilent(key, rs)
}

func (e *Engine) toRetriever(env wire.Envelope, msg wire.ReturnChunk) {
	key := blockKey{env.Epoch, env.Proposer}
	rs, ok := e.retr[key]
	wanted := ok && !rs.done && rs.ret != nil
	// Per-peer retrieval round-trip completion, or a chunk that crossed
	// the link for a block already in hand (pure telemetry).
	if env.From != e.self && env.From >= 0 && env.From < e.cfg.N {
		stage := StagePeerRetrieveResp
		if !wanted {
			stage = StagePeerRetrieveUnwanted
		}
		e.actions = append(e.actions, StageAction{Epoch: env.Epoch, Stage: stage, Peer: env.From})
	}
	if !wanted {
		return
	}
	e.ingestReturnChunk(key, rs, env.From, msg)
	e.pumpRetrievals()
}

// ingestReturnChunk feeds one chunk (from the network or a state-sync
// transfer) into an active retrieval; reports whether the retrieval
// completed on this chunk.
func (e *Engine) ingestReturnChunk(key blockKey, rs *retrState, from int, msg wire.ReturnChunk) bool {
	was := rs.ret.Answered(from)
	// The retriever's own output would be a CancelRequest broadcast; the
	// engine instead cancels exactly the servers it is still waiting for.
	_, done := rs.ret.HandleReturnChunk(from, msg)
	if !was && rs.ret.Answered(from) {
		if rs.srv[from] == notAsked {
			// A state-sync donor's chunk, or an unsolicited one: there is
			// nothing left to ask of this server either.
			rs.srv[from] = asked
		} else {
			e.sched.load[from]--
			if rs.srv[from] == asked && from != e.self {
				e.sched.expecting--
			}
		}
		e.sched.penalty[from] /= 2
		e.sched.heard[from] = true
		if from != e.self {
			e.sched.accepted++
		}
	}
	if !done {
		return false
	}
	e.closeRequests(key, rs, true)
	raw, bad := rs.ret.Block()
	rs.done = true
	rs.bad = bad
	rs.ret = nil
	rs.srv = nil
	if !bad {
		if blk, err := wire.DecodeBlock(raw); err == nil &&
			blk.Epoch == key.epoch && blk.Proposer == key.proposer && len(blk.V) == e.cfg.N {
			rs.V = blk.V
			rs.txs = blk.Txs
			rs.payload = blk.PayloadBytes()
			if e.cfg.StateSync && key.proposer != e.self {
				e.backfillOwnChunk(key, raw)
			}
		} else {
			rs.bad = true
		}
	}
	e.onRetrievalDone(key)
	return true
}

func (e *Engine) onRetrievalDone(key blockKey) {
	if e.cfg.Mode.voteAfterRetrieve() {
		// HoneyBadger votes after the download. A block that retrieves as
		// BAD_UPLOADER or ill-formatted still gets a vote: the dispersal
		// completed, and rejecting it here would stall the epoch. The
		// garbage is discarded at delivery, as in the paper.
		e.inputBA(key.epoch, key.proposer, true)
	}
	e.tryDeliver()
}
