// Package core implements the DispersedLedger consensus engine (§4 of the
// paper) along with the HoneyBadger baselines used by its evaluation.
//
// The engine nests the paper's four IO automata: per-epoch it runs N VID
// (AVID-M) server instances and N binary agreement instances; epochs are
// chained with the inter-node linking rule that guarantees every correct
// block is delivered. Four protocol modes share the machinery:
//
//   - ModeDL: DispersedLedger. Nodes vote in BA as soon as a dispersal
//     completes; block retrieval is asynchronous and never blocks the
//     dispersal pipeline.
//   - ModeDLCoupled: DL, but a node lagging on retrieval proposes empty
//     blocks (the spam-filtering variant of §4.5).
//   - ModeHB: HoneyBadger. VID is used as reliable broadcast — a node
//     votes only after downloading the full block — and a node proposes
//     epoch e+1 only after delivering epoch e. Dropped blocks are
//     re-proposed.
//   - ModeHBLink: HoneyBadger plus inter-node linking.
//
// The engine is a deterministic single-threaded automaton: all methods
// return []Action and must be called from one goroutine (the replica's
// event loop). Determinism is what lets the same engine run unchanged in
// the discrete-event network emulator and over real TCP transports.
package core

import (
	"fmt"
	"sort"
	"time"

	"dledger/internal/avid"
	"dledger/internal/ba"
	"dledger/internal/coin"
	"dledger/internal/statesync"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// Mode selects the protocol variant.
type Mode int

// Protocol variants evaluated in the paper (§6).
const (
	ModeDL Mode = iota
	ModeDLCoupled
	ModeHB
	ModeHBLink
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDL:
		return "DL"
	case ModeDLCoupled:
		return "DL-Coupled"
	case ModeHB:
		return "HB"
	case ModeHBLink:
		return "HB-Link"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

func (m Mode) voteAfterRetrieve() bool { return m == ModeHB || m == ModeHBLink }
func (m Mode) coupled() bool           { return m == ModeHB || m == ModeHBLink }
func (m Mode) linking() bool           { return m != ModeHB }
func (m Mode) resubmits() bool         { return m == ModeHB }

// maxEpochAhead bounds how far beyond our own dispersal epoch we accept
// messages, so a Byzantine peer cannot allocate unbounded epoch state.
// Correct nodes' dispersal epochs advance together (every epoch requires
// N−f BA outputs), so the honest spread is tiny compared to this bound.
const maxEpochAhead = 10_000

const (
	// lagLimit is P from §4.5: in DL-Coupled mode a node proposes empty
	// blocks while its retrieval lags more than this many epochs behind
	// its dispersal.
	lagLimit = 1
	// retrievalStageDelay is the retrieval scheduler's tick (retrieval.go):
	// how long an asked server may stay silent before another is asked in
	// its place, and the re-ask cadence of recovery retrievals.
	retrievalStageDelay = time.Second
	// catchupRetry is the re-request interval of the recovery status
	// protocol: a restarted node re-broadcasts its StatusRequest this
	// often until it has caught up with the cluster's decisions. The
	// state-sync bootstrap ticks at the same cadence.
	catchupRetry = time.Second
)

// Config parameterizes a cluster.
type Config struct {
	N, F int
	Mode Mode
	// CoinSecret keys the common coin; all nodes must share it.
	CoinSecret []byte
	// MaxEpochLag, when positive, is the second mitigation of §4.5: a
	// node stops proposing (delaying the epoch pipeline, not emptying
	// its blocks) while its delivery lags more than this many epochs
	// behind its dispersal. This bounds how far the high-priority
	// dispersal pipeline can outrun retrieval — without it, a saturated
	// deployment with large fixed per-epoch costs (large N) can spend
	// all bandwidth on dispersal. Zero disables the guard (the paper's
	// pure-DL configuration).
	MaxEpochLag uint64
	// RetainEpochs, when positive, garbage-collects per-epoch state
	// (VID chunk stores, agreement instances, retrieval records) once an
	// epoch is more than RetainEpochs behind this node's delivery
	// watermark. The horizon bounds memory in long runs, at a documented
	// cost: a peer lagging further than the horizon can no longer fetch
	// chunks from this node and must rely on the other >= N−2f holders —
	// or, with StateSync enabled, on checkpoint transfer. Zero keeps
	// everything, the paper-prototype behaviour.
	RetainEpochs uint64
	// StateSync enables the checkpoint-transfer subsystem
	// (internal/statesync): the node records attestable sync points,
	// serves manifest and chunk pages to joiners, back-fills its own
	// chunk (and VID completion) for blocks it retrieves over the
	// network, and — when its own catch-up discovers the cluster pruned
	// the epochs it needs — bootstraps itself from a peer checkpoint.
	// It also changes pruning: without state sync a silent peer stalls
	// the RetainEpochs horizon forever (its slot's linked floor stops
	// advancing, and dropping state a laggard may still need would
	// strand it); with a state-sync path available the horizon is
	// enforced unconditionally, restoring the memory bound.
	StateSync bool
	// JoinSync makes a fresh (state-free) node bootstrap from a peer
	// checkpoint before participating — the dlnode -join path for
	// spawning a new member into a long-running cluster. Requires
	// StateSync; ignored when the engine restores durable state (a
	// stale restart discovers the need for state sync by itself).
	JoinSync bool
	// SyncPointEvery is the sync-point cadence in delivered epochs
	// (default statesync.DefaultPointEvery). Only meaningful with
	// StateSync.
	SyncPointEvery uint64
}

func (c Config) syncPointEvery() uint64 {
	if c.SyncPointEvery == 0 {
		return statesync.DefaultPointEvery
	}
	return c.SyncPointEvery
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.F < 0 || c.N < 3*c.F+1 {
		return fmt.Errorf("core: need N >= 3F+1, got N=%d F=%d", c.N, c.F)
	}
	if c.N > 1<<16 {
		return fmt.Errorf("core: N=%d exceeds wire format limit", c.N)
	}
	return nil
}

// blockKey names a block slot: the VID/BA instance pair of one proposer in
// one epoch. Epochs are 1-based; epoch 0 means "nothing".
type blockKey struct {
	epoch    uint64
	proposer int
}

type epochState struct {
	epoch uint64
	vids  []*avid.Server
	bas   []*ba.BA
	baOut []int8 // -1 pending, 0, 1
	outs  int
	ones  int
	// decided is set when every BA produced output; S is the committed set.
	decided bool
	S       []int
	// echoSeen/voteSeen gate the per-peer telemetry sub-spans — one
	// StagePeerEcho (got-chunk vote on our own dispersal) and one
	// StagePeerVote (first BA vote) per peer per epoch — keeping the
	// pure-telemetry action volume bounded by N regardless of how chatty
	// a peer is. Allocated lazily on first use.
	echoSeen []bool
	voteSeen []bool
}

type retrState struct {
	ret  *avid.Retriever
	done bool
	bad  bool // BAD_UPLOADER or ill-formatted
	// V is kept past delivery: later epochs' E computations may need the
	// observation again when a linked block reappears in a BA set.
	V       []uint64
	txs     [][]byte // dropped after delivery
	payload int      // transaction bytes (for stats)
	// srv[i] is what this retrieval has asked of server i, age the
	// scheduler ticks it has lived through and due the scheduler's count
	// of accepted chunks by which its latest requests should have been
	// answered (see retrieval.go; nil and zero for blocks that never
	// touched the network).
	srv []askState
	age int
	due uint64
	// resend marks a retrieval whose answers the node's previous (crashed)
	// incarnation may already have consumed: it asks every server from
	// the start, with the duplicate-suppression-clearing request variant,
	// and asks the silent ones again on every tick.
	resend bool
	// retries counts full re-ask rounds that produced nothing (progress
	// marks how many servers had answered at the last round, so a slow
	// but advancing retrieval resets the count); with state sync
	// enabled, a retrieval dry for syncRetrievalGiveUp rounds concludes
	// the cluster pruned the chunks and bootstraps forward.
	retries  int
	progress int
}

// syncRetrievalGiveUp is how many fruitless full re-ask rounds a
// retrieval tolerates before falling back to state sync.
const syncRetrievalGiveUp = 5

// deliveryStage tracks the two-phase delivery of an epoch (Fig 17).
type deliveryStage int

const (
	stageAwaitBA     deliveryStage = iota // waiting for BA-committed block retrievals
	stageAwaitLinked                      // waiting for linked block retrievals
)

type epochDelivery struct {
	epoch uint64
	S     []int
	// started counts the blocks of S whose retrievals pumpRetrievals has
	// started; the rest wait for room under the scheduler's limit.
	started int
	stage   deliveryStage
	linked  []blockKey
}

// Engine is one node's consensus state machine.
type Engine struct {
	cfg    Config
	self   int
	params avid.Params
	coins  *coin.Scheme

	epochs map[uint64]*epochState
	// lastProposed is the highest epoch we proposed into; awaitingProposal
	// marks a pending ProposalNeededAction that Propose will answer.
	lastProposed     uint64
	awaitingProposal bool
	// opened is the highest epoch an EpochOpenedAction announced.
	opened uint64
	// decidedThrough: epochs 1..decidedThrough all have every BA output.
	decidedThrough uint64
	decidedSet     map[uint64]bool

	// Per-node VID completion watermark: watermark[j] = largest t such
	// that node j's VIDs for epochs 1..t have all Completed here. This is
	// exactly the V array we put in our proposals.
	watermark []uint64
	vidDone   []map[uint64]bool // completions beyond the watermark

	// myBlocks holds the raw blocks we proposed, so retrieving our own
	// block never touches the network; myTxs supports HB re-proposal.
	myBlocks map[uint64]*wire.Block

	retr  map[blockKey]*retrState
	sched retrSched
	// timerSeq numbers every TimerAction (see armTimer).
	timerSeq uint64
	// prunedThrough: epochs <= this have been garbage-collected.
	prunedThrough uint64

	delivered      map[blockKey]bool
	linkedFloor    []uint64 // per node: all epochs <= floor delivered
	deliveredEpoch uint64   // epochs 1..deliveredEpoch fully delivered
	deliveries     map[uint64]*epochDelivery
	queuedThrough  uint64 // highest epoch ever entered into deliveries

	// recovered marks an engine restored from a Store, and stays set
	// until the node has both finished the status catch-up and delivered
	// through the frontier the catch-up found (recoveredUntil). While it
	// is set, every started retrieval is in resend mode: requests use
	// RequestChunkAgain (servers re-answer what the crashed incarnation
	// already consumed) and re-fire on a timer (the transport's
	// post-restart reconnect turbulence can eat one-shot requests or
	// their replies). catchup drives the status protocol that re-learns
	// decisions made while the node was down.
	recovered      bool
	recoveredUntil uint64
	catchup        *catchupState
	catchupToken   uint64

	// State-sync machinery (see statesync.go): the joiner-side automaton
	// while this node bootstraps from a peer checkpoint, the donor-side
	// source serving manifest pages, and the staging area for verified
	// donor chunks awaiting their retrievals.
	syncer      *statesync.Syncer
	syncToken   uint64
	syncSource  SyncSource
	syncStaged  map[blockKey]map[int]wire.ReturnChunk
	stagedCount int
	syncStats   statesync.Stats

	// step state: internal self-delivery queue and accumulated actions.
	queue      []wire.Envelope
	actions    []Action
	delivering bool // tryDeliver reentrancy guard

	// tap, when set, observes and may rewrite every action batch before
	// the caller sees it — the seam internal/chaos's Byzantine wrappers
	// attach to. It runs outside the engine's own state transitions, so a
	// tap can corrupt what the node SAYS (its outgoing messages) but not
	// what the engine's automaton state IS.
	tap func([]Action) []Action
}

// catchupState tracks the recovery status protocol for one epoch at a
// time (always decidedThrough+1). through accumulates peers' decided
// watermarks across the whole catch-up.
type catchupState struct {
	epoch      uint64
	decided    map[int][]byte // replier -> claimed S bitmap for epoch
	notDecided map[int]bool   // repliers claiming epoch undecided
	through    map[int]uint64 // per-peer decided watermark claims
}

// NewEngine creates the engine for node self.
func NewEngine(cfg Config, self int) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if self < 0 || self >= cfg.N {
		return nil, fmt.Errorf("core: self=%d out of range", self)
	}
	params, err := avid.NewParams(cfg.N, cfg.F)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:         cfg,
		self:        self,
		params:      params,
		coins:       coin.NewScheme(cfg.CoinSecret),
		epochs:      map[uint64]*epochState{},
		decidedSet:  map[uint64]bool{},
		watermark:   make([]uint64, cfg.N),
		vidDone:     make([]map[uint64]bool, cfg.N),
		myBlocks:    map[uint64]*wire.Block{},
		retr:        map[blockKey]*retrState{},
		sched:       newRetrSched(cfg.N, params.K()),
		delivered:   map[blockKey]bool{},
		linkedFloor: make([]uint64, cfg.N),
		deliveries:  map[uint64]*epochDelivery{},
	}
	for j := range e.vidDone {
		e.vidDone[j] = map[uint64]bool{}
	}
	return e, nil
}

// Self returns this node's id.
func (e *Engine) Self() int { return e.self }

// Mode returns the protocol variant.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// DeliveredEpoch returns the highest epoch that is fully delivered.
func (e *Engine) DeliveredEpoch() uint64 { return e.deliveredEpoch }

// DispersalEpoch returns the highest epoch this node proposed into.
func (e *Engine) DispersalEpoch() uint64 { return e.lastProposed }

// DecidedThrough returns the highest epoch t such that epochs 1..t have
// all decided at this node.
func (e *Engine) DecidedThrough() uint64 { return e.decidedThrough }

// Start initializes the engine and solicits the first proposal. On an
// engine restored via Restore it also re-arms the recovery machinery:
// retrievals for decided-but-undelivered epochs, re-votes for restored
// dispersals, and the status catch-up protocol. A fresh engine with
// Config.JoinSync instead bootstraps from a peer checkpoint before
// participating.
func (e *Engine) Start() []Action {
	e.actions = nil
	if e.recovered {
		e.resumeRecovered()
	} else if e.cfg.StateSync && e.cfg.JoinSync {
		e.startStateSync()
	}
	e.maybeSolicitProposal()
	e.drain()
	return e.takeActions()
}

// Propose answers a ProposalNeededAction with a transaction batch. It
// builds the block for the next epoch (stamping our V array), disperses
// it via AVID-M, and records it for HB re-proposal and local retrieval.
func (e *Engine) Propose(txs [][]byte) ([]Action, error) {
	if !e.awaitingProposal {
		return nil, fmt.Errorf("core: Propose called without a pending ProposalNeededAction")
	}
	e.actions = nil
	e.awaitingProposal = false
	epoch := e.lastProposed + 1
	e.lastProposed = epoch

	blk := &wire.Block{
		Proposer: e.self,
		Epoch:    epoch,
		V:        append([]uint64(nil), e.watermark...),
		Txs:      txs,
	}
	e.myBlocks[epoch] = blk
	if e.cfg.Mode.resubmits() && len(txs) > 0 && e.isDecided(epoch) {
		// The epoch decided while the batch was being gathered: we had
		// dispersed nothing, so our BA output 0 and onEpochDecided found no
		// block to resubmit. Without linking this block can never commit;
		// its transactions go back to the mempool now.
		e.actions = append(e.actions, ResubmitAction{Txs: txs})
	}
	enc := blk.Encode()
	chunks, _, err := avid.Disperse(e.params, enc)
	if err != nil {
		return nil, err
	}
	e.actions = append(e.actions, StageAction{Epoch: epoch, Stage: StageDisperseStart})
	e.actions = append(e.actions, ProposalMadeAction{Epoch: epoch, Block: enc})
	for i, c := range chunks {
		env := wire.Envelope{From: e.self, Epoch: epoch, Proposer: e.self, Payload: c}
		if i == e.self {
			e.queue = append(e.queue, env)
		} else {
			e.actions = append(e.actions, StageAction{Epoch: epoch, Stage: StagePeerChunkSent, Peer: i})
			e.actions = append(e.actions, SendAction{To: i, Env: env, Prio: wire.PrioDispersal})
		}
	}
	e.drain()
	return e.takeActions(), nil
}

// Handle processes one incoming envelope from the network.
func (e *Engine) Handle(env wire.Envelope) []Action {
	e.actions = nil
	e.queue = append(e.queue, env)
	e.drain()
	return e.takeActions()
}

// SetActionTap installs a hook that can observe and rewrite every action
// batch the engine emits. Passing nil removes it. Only test harnesses
// (Byzantine behavior injection) should use this; a correct node never
// taps its own engine.
func (e *Engine) SetActionTap(tap func([]Action) []Action) { e.tap = tap }

func (e *Engine) takeActions() []Action {
	a := e.actions
	e.actions = nil
	if e.tap != nil {
		a = e.tap(a)
	}
	return a
}

// drain processes the internal queue until empty. Self-addressed copies
// of broadcasts, local chunk deliveries and cascade effects all run here,
// so callers observe a single atomic step. The queue is walked by index
// and its array kept for the next step, emptied of payload references.
func (e *Engine) drain() {
	for i := 0; i < len(e.queue); i++ {
		e.dispatch(e.queue[i])
	}
	clear(e.queue)
	e.queue = e.queue[:0]
}

// emit routes an outgoing message: remote copies become one SendAction
// (a broadcast stays one, see SendAction), self-copies loop back through
// the queue.
func (e *Engine) emit(to int, env wire.Envelope, prio wire.Priority, stream uint64) {
	if to == wire.Broadcast || to == e.self {
		e.queue = append(e.queue, env)
	}
	if to != e.self {
		e.actions = append(e.actions, SendAction{To: to, Env: env, Prio: prio, Stream: stream})
	}
}

// priorityFor classifies traffic. In HoneyBadger modes the block download
// happens during the broadcast phase, so there is no low-priority class
// (the paper's HB baseline uses a single connection).
func (e *Engine) priorityFor(msg wire.Msg) wire.Priority {
	if e.cfg.Mode.voteAfterRetrieve() {
		return wire.PrioDispersal
	}
	return wire.PriorityOf(msg)
}

func (e *Engine) dispatch(env wire.Envelope) {
	// State-sync traffic routes before every epoch guard: a joiner's
	// position is arbitrarily far behind the cluster (that is the whole
	// point), and the messages allocate nothing per epoch — offers are
	// f+1-checked, pages hash- or Merkle-verified.
	switch msg := env.Payload.(type) {
	case wire.SyncHello:
		e.onSyncHello(env)
		return
	case wire.SyncOffer:
		e.onSyncOffer(env, msg)
		return
	case wire.SyncPull:
		e.onSyncPull(env, msg)
		return
	case wire.SyncPage:
		e.onSyncPage(env, msg)
		return
	}
	// The ahead-bound tracks both our dispersal epoch and our decided
	// watermark: a recovering node holds proposals (lastProposed frozen)
	// while catch-up advances decidedThrough, and bounding by the frozen
	// value alone would drop the very replies catch-up needs once the
	// outage exceeded maxEpochAhead epochs.
	horizon := e.lastProposed
	if e.decidedThrough > horizon {
		horizon = e.decidedThrough
	}
	if env.Epoch == 0 || env.Epoch > horizon+maxEpochAhead {
		return
	}
	// Recovery status traffic is served even for garbage-collected
	// epochs (it allocates nothing): a peer asking about an epoch we
	// pruned still deserves our decided watermark, or it could wedge
	// re-requesting forever without learning it slept past the horizon.
	switch msg := env.Payload.(type) {
	case wire.StatusRequest:
		e.onStatusRequest(env)
		return
	case wire.StatusReply:
		e.onStatusReply(env, msg)
		return
	}
	if env.Epoch <= e.prunedThrough {
		// State for this epoch has been garbage-collected; recreating it
		// from a stray (or malicious) message would leak memory.
		return
	}
	if env.Proposer < 0 || env.Proposer >= e.cfg.N {
		return
	}
	switch msg := env.Payload.(type) {
	case wire.Chunk:
		// Footnote 3: only node i may disperse into VID[e][i], so Chunk
		// messages for the instance are accepted from its proposer only.
		if env.From != env.Proposer {
			return
		}
		e.noteOpened(env)
		e.toVID(env, msg)
	case wire.GotChunk, wire.Ready:
		e.noteOpened(env)
		e.toVID(env, msg)
	case wire.RequestChunk:
		e.toVID(env, msg)
	case wire.CancelRequest:
		// Mark the requester canceled in the VID server and ask the
		// transport to drop any queued-but-unsent chunks for it.
		e.toVID(env, msg)
		e.actions = append(e.actions, UnsendAction{To: env.From, Epoch: env.Epoch, Proposer: env.Proposer})
	case wire.RequestChunkAgain:
		e.toVID(env, msg)
	case wire.ReturnChunk:
		e.toRetriever(env, msg)
	case wire.BVal, wire.Aux, wire.Term:
		e.toBA(env, msg)
	}
}

func (e *Engine) epochState(epoch uint64) *epochState {
	es, ok := e.epochs[epoch]
	if !ok {
		es = &epochState{
			epoch: epoch,
			vids:  make([]*avid.Server, e.cfg.N),
			bas:   make([]*ba.BA, e.cfg.N),
			baOut: make([]int8, e.cfg.N),
		}
		for i := range es.baOut {
			es.baOut[i] = -1
		}
		e.epochs[epoch] = es
	}
	return es
}

func (e *Engine) vid(epoch uint64, proposer int) *avid.Server {
	es := e.epochState(epoch)
	if es.vids[proposer] == nil {
		es.vids[proposer] = avid.NewServer(e.params, e.self)
	}
	return es.vids[proposer]
}

func (e *Engine) ba(epoch uint64, proposer int) *ba.BA {
	es := e.epochState(epoch)
	if es.bas[proposer] == nil {
		b := ba.New(e.cfg.N, e.cfg.F, e.coins.ForInstance(epoch, proposer))
		b.SetJournal(e.voteJournal(epoch, proposer))
		es.bas[proposer] = b
	}
	return es.bas[proposer]
}

// voteJournal builds the instance's journal observer: every vote the BA
// commits itself to becomes a VoteCastAction in the current step's batch,
// which durable replicas group-commit before any send of the step leaves
// the node. This is the record-before-wire invariant vote persistence
// rests on — if a peer can have seen a vote, a restart will restore it.
func (e *Engine) voteJournal(epoch uint64, proposer int) func(ba.Vote) {
	return func(v ba.Vote) {
		e.actions = append(e.actions, VoteCastAction{Epoch: epoch, Proposer: proposer, Vote: v})
	}
}

// notePeerEcho emits the per-peer echo sub-span: peer's got-chunk vote
// on this node's own dispersal arrived (first arrival per peer per
// epoch). Pure telemetry; see StageAction.
func (e *Engine) notePeerEcho(epoch uint64, from int) {
	if from == e.self || from < 0 || from >= e.cfg.N {
		return
	}
	es := e.epochState(epoch)
	if es.echoSeen == nil {
		es.echoSeen = make([]bool, e.cfg.N)
	}
	if !es.echoSeen[from] {
		es.echoSeen[from] = true
		e.actions = append(e.actions, StageAction{Epoch: epoch, Stage: StagePeerEcho, Peer: from})
	}
}

// noteOpened emits EpochOpenedAction the first time another proposer's
// dispersal traffic shows an epoch above this node's last proposal.
func (e *Engine) noteOpened(env wire.Envelope) {
	if env.Proposer == e.self || env.Epoch <= e.lastProposed || env.Epoch <= e.opened {
		return
	}
	e.opened = env.Epoch
	e.actions = append(e.actions, EpochOpenedAction{Epoch: env.Epoch})
}

func (e *Engine) toVID(env wire.Envelope, msg wire.Msg) {
	if env.Proposer == e.self {
		if _, isEcho := msg.(wire.GotChunk); isEcho {
			e.notePeerEcho(env.Epoch, env.From)
		}
	}
	v := e.vid(env.Epoch, env.Proposer)
	hadChunk := v.HasChunk()
	outs, completed := v.Handle(env.From, msg)
	stream := env.Epoch
	for _, o := range outs {
		out := wire.Envelope{From: e.self, Epoch: env.Epoch, Proposer: env.Proposer, Payload: o.Msg}
		e.emit(o.To, out, e.priorityFor(o.Msg), stream)
	}
	if completed {
		e.onVIDComplete(env.Epoch, env.Proposer)
	} else if !hadChunk && v.HasChunk() {
		// The chunk arrived after completion (slow or restarted
		// proposer): refresh the durable record, which was written with
		// HasChunk=false at completion time, or a future restart would
		// forget a chunk this node is known to serve.
		e.actions = append(e.actions, ChunkStoredAction{Rec: storedChunk(env.Epoch, env.Proposer, v)})
	}
}

// storedChunk is the durable record of a completed VID instance: the
// agreed root and, when the server holds a chunk matching it, the chunk
// and its proof. It is what the store persists, what a restart restores
// from, and what state sync ships to a joiner.
func storedChunk(epoch uint64, proposer int, v *avid.Server) store.ChunkRecord {
	root, data, proof, ok := v.StoredChunk()
	rec := store.ChunkRecord{Epoch: epoch, Proposer: proposer, Root: root, HasChunk: ok}
	if ok {
		rec.Data, rec.Proof = data, proof
	}
	return rec
}

func (e *Engine) toBA(env wire.Envelope, msg wire.Msg) {
	// An epoch whose outcome was installed without live round state
	// (WAL-replayed or catch-up-adopted decisions leave bas nil) must not
	// grow a fresh instance from a stray message: the fresh instance
	// could vote where the pre-crash incarnation already voted
	// differently. Live-decided epochs keep their instances and keep
	// serving rounds normally until the Bracha gadget halts them.
	if es := e.epochs[env.Epoch]; es != nil && es.decided && es.bas[env.Proposer] == nil {
		return
	}
	// Per-peer vote sub-span: first BA vote from this peer in the epoch
	// (pure telemetry; the instance gating above already rejected traffic
	// that would grow state for settled epochs).
	if env.From != e.self && env.From >= 0 && env.From < e.cfg.N {
		es := e.epochState(env.Epoch)
		if es.voteSeen == nil {
			es.voteSeen = make([]bool, e.cfg.N)
		}
		if !es.voteSeen[env.From] {
			es.voteSeen[env.From] = true
			e.actions = append(e.actions, StageAction{Epoch: env.Epoch, Stage: StagePeerVote, Peer: env.From})
		}
	}
	b := e.ba(env.Epoch, env.Proposer)
	wasDecided, _ := b.Decided()
	outs := b.Handle(env.From, msg)
	for _, o := range outs {
		out := wire.Envelope{From: e.self, Epoch: env.Epoch, Proposer: env.Proposer, Payload: o.Msg}
		e.emit(o.To, out, wire.PrioDispersal, 0)
	}
	if nowDecided, val := b.Decided(); nowDecided && !wasDecided {
		e.onBADecided(env.Epoch, env.Proposer, val)
	}
}

// inputBA feeds a value into a BA instance (idempotent) and processes any
// resulting decision.
func (e *Engine) inputBA(epoch uint64, proposer int, val bool) {
	// Same guard as toBA: an epoch whose outcome is installed without
	// live round state (restored or adopted decisions leave bas nil, and
	// their vote journals were discarded with the decision) must not
	// grow a fresh votable instance — a straggler VID completion or an
	// HB retrieval finishing in such an epoch would otherwise cast a
	// first-vote the pre-crash incarnation may have contradicted. The
	// vote serves no purpose there anyway: the outcome is fixed.
	if es := e.epochs[epoch]; e.isDecided(epoch) && (es == nil || es.bas[proposer] == nil) {
		return
	}
	b := e.ba(epoch, proposer)
	if b.InputCalled() {
		return
	}
	wasDecided, _ := b.Decided()
	outs := b.Input(val)
	e.actions = append(e.actions, StageAction{Epoch: epoch, Stage: StageBAInput})
	for _, o := range outs {
		out := wire.Envelope{From: e.self, Epoch: epoch, Proposer: proposer, Payload: o.Msg}
		e.emit(o.To, out, wire.PrioDispersal, 0)
	}
	if nowDecided, v := b.Decided(); nowDecided && !wasDecided {
		e.onBADecided(epoch, proposer, v)
	}
}

// onVIDComplete fires when VID[epoch][proposer] Completes locally.
func (e *Engine) onVIDComplete(epoch uint64, proposer int) {
	// Hand the completed instance's durable state (agreed root, stored
	// chunk) to the replica for persistence.
	if v := e.epochs[epoch].vids[proposer]; v != nil {
		e.actions = append(e.actions, ChunkStoredAction{Rec: storedChunk(epoch, proposer, v)})
	}

	// Track the completion watermark that feeds our V arrays.
	e.advanceWatermark(proposer, epoch)

	if proposer == e.self {
		e.actions = append(e.actions, StageAction{Epoch: epoch, Stage: StageDisperseDone})
	}

	if e.cfg.Mode.voteAfterRetrieve() {
		// HoneyBadger: VID-as-reliable-broadcast. Download the block
		// first; the vote happens when retrieval finishes.
		e.startRetrieval(blockKey{epoch, proposer})
		return
	}
	// DispersedLedger: vote as soon as dispersal completes (§4.2).
	e.inputBA(epoch, proposer, true)
}

// onBADecided fires when BA[epoch][proposer] decides.
func (e *Engine) onBADecided(epoch uint64, proposer int, val bool) {
	es := e.epochState(epoch)
	if es.baOut[proposer] != -1 {
		return
	}
	if val {
		es.baOut[proposer] = 1
		es.ones++
	} else {
		es.baOut[proposer] = 0
	}
	es.outs++

	// Fig 6: once N−f BAs output 1, input 0 into every remaining BA.
	if es.ones >= e.cfg.N-e.cfg.F {
		for j := 0; j < e.cfg.N; j++ {
			e.inputBA(epoch, j, false)
		}
	}
	if es.outs == e.cfg.N && !es.decided {
		es.decided = true
		for j := 0; j < e.cfg.N; j++ {
			if es.baOut[j] == 1 {
				es.S = append(es.S, j)
			}
		}
		e.onEpochDecided(es)
	}
}

func (e *Engine) onEpochDecided(es *epochState) {
	e.decidedSet[es.epoch] = true
	for e.decidedSet[e.decidedThrough+1] {
		delete(e.decidedSet, e.decidedThrough+1)
		e.decidedThrough++
	}
	e.actions = append(e.actions, EpochDecidedAction{Epoch: es.epoch, S: append([]int(nil), es.S...)})

	// Queue the delivery pipeline for this epoch; its committed blocks are
	// retrieved (lazily, at retrieval priority, in DL modes) in delivery
	// order, as the retrieval scheduler's limit admits them.
	e.queueDelivery(es.epoch, es.S)
	e.pumpRetrievals()

	// HoneyBadger re-proposal: if our block was dropped, its transactions
	// go back to the mempool.
	if e.cfg.Mode.resubmits() {
		if es.baOut[e.self] == 0 {
			if blk, ok := e.myBlocks[es.epoch]; ok && len(blk.Txs) > 0 {
				e.actions = append(e.actions, ResubmitAction{Txs: blk.Txs})
			}
			delete(e.myBlocks, es.epoch)
		}
	}

	e.tryDeliver()
	e.maybeSolicitProposal()
}

// maybeSolicitProposal emits a ProposalNeededAction when the node may
// start its next dispersal: the previous epoch's dispersal phase is done,
// and — in coupled (HoneyBadger) modes — also fully delivered.
func (e *Engine) maybeSolicitProposal() {
	if e.awaitingProposal {
		return
	}
	if e.syncBootstrapping() {
		// A block proposed before the bootstrap lands would target an
		// epoch the cluster decided long ago; the post-sync catch-up
		// re-solicits.
		return
	}
	next := e.lastProposed + 1
	if next > 1 && !e.isDecided(next-1) {
		return
	}
	if e.cfg.Mode.coupled() && next > 1 && e.deliveredEpoch < next-1 {
		return
	}
	if e.cfg.MaxEpochLag > 0 && next > e.cfg.MaxEpochLag && e.deliveredEpoch < next-1-e.cfg.MaxEpochLag {
		// §4.5 lag guard: wait for retrieval to catch up. Delivery
		// progress re-triggers this via tryDeliver.
		return
	}
	empty := false
	if e.cfg.Mode == ModeDLCoupled && next-1 > e.deliveredEpoch+lagLimit {
		empty = true
	}
	if next <= e.decidedThrough {
		// Gap fill: the cluster decided this epoch while the node was
		// away (crash or state sync), so a block here can only commit
		// through the linking backstop — and filling the slot is still
		// necessary: peers' completion watermark for this node advances
		// only through CONSECUTIVE dispersals, and every later block
		// that loses the BA race needs that chain intact to be linked
		// in. Propose the gap empty (empty proposals dispatch
		// immediately, with no batching delay, and risk no
		// transactions), so the first transaction-carrying block lands
		// at the frontier with its linking safety net restored.
		empty = true
	}
	e.awaitingProposal = true
	e.actions = append(e.actions, ProposalNeededAction{Epoch: next, Empty: empty})
}

func (e *Engine) isDecided(epoch uint64) bool {
	return epoch <= e.decidedThrough || e.decidedSet[epoch]
}

// armTimer asks the caller for a callback and returns the token that will
// name it; the timer's owner keeps the token and ignores any other.
func (e *Engine) armTimer(after time.Duration) uint64 {
	e.timerSeq++
	e.actions = append(e.actions, TimerAction{After: after, Token: e.timerSeq})
	return e.timerSeq
}

// HandleTimer processes a TimerAction callback: the retrieval scheduler's
// tick, the catch-up timer that re-broadcasts the recovery StatusRequest
// while the node is still behind, or the state-sync retry tick.
func (e *Engine) HandleTimer(token uint64) []Action {
	if token == 0 {
		return nil
	}
	e.actions = nil
	switch token {
	case e.catchupToken:
		e.catchupToken = 0
		if e.catchup != nil {
			e.requestStatus()
		}
	case e.syncToken:
		e.syncToken = 0
		e.syncTick()
	case e.sched.token:
		e.sched.token = 0
		e.retrievalTick()
	default:
		return nil
	}
	e.drain()
	return e.takeActions()
}

// observedV returns the V array carried by a retrieved block, or the
// all-infinity array for BAD_UPLOADER / ill-formatted blocks (footnote 5).
func (e *Engine) observedV(key blockKey) []uint64 {
	rs := e.retr[key]
	if rs == nil || rs.bad || rs.V == nil {
		inf := make([]uint64, e.cfg.N)
		for i := range inf {
			inf[i] = wire.InfEpoch
		}
		return inf
	}
	return rs.V
}

// tryDeliver advances the serial delivery pipeline: epoch e is delivered
// only after epochs < e (Fig 17), in two stages per epoch. The pipeline
// can re-enter itself — deliverBAStage starts linked retrievals, and a
// retrieval served from local storage completes synchronously, calling
// back into tryDeliver — so reentrant calls bail out and let the outer
// loop pick up the progress; without the guard, an epoch the inner call
// delivered would be re-announced (and re-logged) by the outer one.
func (e *Engine) tryDeliver() {
	if e.delivering {
		return
	}
	e.delivering = true
	defer func() { e.delivering = false }()
	for {
		d := e.deliveries[e.deliveredEpoch+1]
		if d == nil {
			return
		}
		if d.stage == stageAwaitBA {
			if !e.allRetrieved(d.epoch, d.S) {
				return
			}
			e.deliverBAStage(d)
		}
		if d.stage == stageAwaitLinked {
			if !e.linkedRetrieved(d) {
				return
			}
			e.deliverLinkedStage(d)
		}
		delete(e.deliveries, d.epoch)
		e.deliveredEpoch = d.epoch
		e.actions = append(e.actions, EpochDeliveredAction{
			Epoch: d.epoch, Floor: append([]uint64(nil), e.linkedFloor...),
		})
		if e.cfg.StateSync && d.epoch%e.cfg.syncPointEvery() == 0 {
			// Capture the sync point inside the delivery loop: one step
			// can deliver several epochs, and the manifest must reflect
			// the state at exactly this position or its hash would not
			// match other nodes' attestations.
			e.actions = append(e.actions, SyncPointAction{
				Epoch:  d.epoch,
				Floor:  append([]uint64(nil), e.linkedFloor...),
				Blocks: e.frontierBlocks(d.epoch),
			})
		}
		// Recovery ends once the node has drained to the frontier the
		// catch-up found; retrievals started after this point are normal.
		if e.recovered && e.catchup == nil && e.deliveredEpoch >= e.recoveredUntil {
			e.recovered = false
		}
		// Delivery progress moves the head of the retrieval order and can
		// unblock coupled-mode proposals.
		e.pumpRetrievals()
		e.maybeSolicitProposal()
		e.maybePrune()
	}
}

// maybePrune garbage-collects epochs beyond the retention horizon.
func (e *Engine) maybePrune() {
	if e.cfg.RetainEpochs == 0 {
		return
	}
	for e.prunedThrough+e.cfg.RetainEpochs < e.deliveredEpoch {
		epoch := e.prunedThrough + 1
		// Without a state-sync path, the linked-delivery floor must have
		// passed this epoch for every node before it may go: under
		// asynchrony a silent node is indistinguishable from a slow one
		// whose old blocks may still be demanded, and dropping them
		// would strand it forever — so a dead peer stalls the horizon
		// (and the memory bound with it). With StateSync the horizon is
		// enforced unconditionally: a peer that sleeps past it
		// bootstraps from a checkpoint instead of replaying history.
		if !e.cfg.StateSync {
			for j := 0; j < e.cfg.N; j++ {
				if e.linkedFloor[j] < epoch {
					return
				}
			}
		} else {
			// Hard pruning breaks the per-node completion-watermark
			// chains at the horizon (VIDs at or below it can never
			// complete here again), which would strand the linking
			// backstop for any node whose dispersals have a synced-over
			// gap. Jump each chain to just below the horizon: epochs at
			// or below it are out of every future linked walk's reach
			// (see horizonFloor), so the claim "retrievable through
			// epoch-1" is never put to the test for slots that were
			// never dispersed, while the jump reconnects the chain so a
			// joiner's post-sync blocks can be linked in.
			for j := 0; j < e.cfg.N; j++ {
				if epoch >= 1 && e.watermark[j] < epoch-1 {
					e.watermark[j] = epoch - 1
					e.advanceContiguous(j)
				}
			}
		}
		delete(e.epochs, epoch)
		for j := 0; j < e.cfg.N; j++ {
			key := blockKey{epoch, j}
			e.dropRetrieval(key)
			delete(e.delivered, key)
			e.dropStaged(key)
			// A completion recorded beyond a watermark gap can only be
			// consumed if every missing link below it completes — and
			// links at or below the pruned horizon never will (their
			// messages are dropped above). Shed the bookkeeping so a
			// node that joined mid-history does not accrete it forever.
			delete(e.vidDone[j], epoch)
		}
		delete(e.myBlocks, epoch)
		e.prunedThrough = epoch
	}
}

// horizonFloor is the deterministic cutoff below which the linked walk
// of epoch u does not demand blocks when state sync enforces the
// retention horizon. Hard pruning ties the pruning watermark exactly to
// the delivery position (pruned = delivered − RetainEpochs), so every
// honest node delivering epoch u computes the same cutoff — walks stay
// identical cluster-wide, and blocks the horizon has collected (whether
// delivered-then-pruned or never dispersed at all) are provably outside
// every future walk's reach. Without state sync pruning waits for the
// floors, no walk can reach below them, and the cutoff is moot.
func (e *Engine) horizonFloor(u uint64) uint64 {
	if !e.cfg.StateSync || e.cfg.RetainEpochs == 0 || u <= e.cfg.RetainEpochs+1 {
		return 0
	}
	return u - 1 - e.cfg.RetainEpochs
}

// PrunedThrough reports the garbage-collection watermark.
func (e *Engine) PrunedThrough() uint64 { return e.prunedThrough }

// EpochStatesHeld reports how many epochs of protocol state are resident
// (for memory monitoring and GC tests).
func (e *Engine) EpochStatesHeld() int { return len(e.epochs) }

// RetrievalsInflight reports how many block retrievals have started but
// not completed — the retrieval work queue depth (for the dl_queue_*
// gauges; O(retrievals held), sampled at proposal cadence).
func (e *Engine) RetrievalsInflight() int {
	n := 0
	for _, rs := range e.retr {
		if !rs.done {
			n++
		}
	}
	return n
}

// RetrievalHeldTicks reports how many retrieval scheduler ticks (one a
// second while retrievals are in progress) found that the limit on
// unanswered chunk requests had kept a block waiting: the seconds this
// node spent retrieving as fast as its own link answers, since the last
// restart or state-sync jump.
func (e *Engine) RetrievalHeldTicks() uint64 { return e.sched.heldTicks }

// BAInflight reports how many binary-agreement instances are running:
// across resident undecided epochs, the instances without an output yet
// (for the dl_queue_* gauges; O(epochs held), sampled at proposal
// cadence).
func (e *Engine) BAInflight() int {
	n := 0
	for _, es := range e.epochs {
		if !es.decided {
			n += e.cfg.N - es.outs
		}
	}
	return n
}

func (e *Engine) allRetrieved(epoch uint64, S []int) bool {
	for _, j := range S {
		rs := e.retr[blockKey{epoch, j}]
		if rs == nil || !rs.done {
			return false
		}
	}
	return true
}

// deliverBAStage executes Fig 17 phase 2 steps 2–4: deliver BA-committed
// blocks sorted by proposer index, then compute E and kick off linked
// retrievals.
func (e *Engine) deliverBAStage(d *epochDelivery) {
	for _, j := range d.S {
		e.deliverBlock(blockKey{d.epoch, j}, false)
	}
	d.stage = stageAwaitLinked
	if !e.cfg.Mode.linking() {
		return
	}

	// E[j] = (f+1)-th largest of the committed blocks' V[j] observations.
	obs := make([][]uint64, 0, len(d.S))
	for _, k := range d.S {
		obs = append(obs, e.observedV(blockKey{d.epoch, k}))
	}
	col := make([]uint64, 0, len(obs))
	for j := 0; j < e.cfg.N; j++ {
		col = col[:0]
		for _, v := range obs {
			col = append(col, v[j])
		}
		sort.Slice(col, func(a, b int) bool { return col[a] > col[b] })
		ej := col[e.cfg.F] // (f+1)-th largest
		if ej == wire.InfEpoch {
			// Cannot happen with at most f Byzantine observations; guard
			// anyway so corrupted state cannot demand infinite retrievals.
			continue
		}
		base := e.linkedFloor[j]
		if hf := e.horizonFloor(d.epoch); hf > base {
			base = hf
		}
		for t := base + 1; t <= ej; t++ {
			key := blockKey{t, j}
			if e.delivered[key] {
				continue
			}
			d.linked = append(d.linked, key)
			e.startRetrieval(key)
		}
		if ej > e.linkedFloor[j] {
			e.linkedFloor[j] = ej
		}
	}
	// Total order: linked blocks sort by epoch then node index.
	sort.Slice(d.linked, func(a, b int) bool {
		if d.linked[a].epoch != d.linked[b].epoch {
			return d.linked[a].epoch < d.linked[b].epoch
		}
		return d.linked[a].proposer < d.linked[b].proposer
	})
}

func (e *Engine) linkedRetrieved(d *epochDelivery) bool {
	for _, key := range d.linked {
		rs := e.retr[key]
		if rs == nil || !rs.done {
			return false
		}
	}
	return true
}

func (e *Engine) deliverLinkedStage(d *epochDelivery) {
	for _, key := range d.linked {
		e.deliverBlock(key, true)
	}
}

// deliverBlock delivers one block exactly once. Ill-formatted blocks are
// marked delivered but produce no transactions.
func (e *Engine) deliverBlock(key blockKey, linked bool) {
	if e.delivered[key] {
		return
	}
	e.delivered[key] = true
	e.dropStaged(key)
	rs := e.retr[key]
	if rs == nil || rs.bad {
		return
	}
	e.actions = append(e.actions, DeliverAction{
		Epoch:    key.epoch,
		Proposer: key.proposer,
		Txs:      rs.txs,
		Payload:  rs.payload,
		Linked:   linked,
		V:        rs.V,
	})
	// Transaction bytes are no longer needed once delivered; the V array
	// is kept for later epochs' E computations.
	rs.txs = nil
	if key.proposer == e.self {
		delete(e.myBlocks, key.epoch)
	}
}
