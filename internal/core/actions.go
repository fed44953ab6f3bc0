package core

import (
	"time"

	"dledger/internal/ba"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// Action is the engine's output type. The engine is a pure state machine:
// every input (Start, Handle, Propose) returns the list of effects the
// caller must apply — messages to send, blocks to deliver, proposals to
// solicit. The replica (or a test harness) interprets them.
type Action interface{ isAction() }

// SendAction transmits an envelope to a peer. The engine never emits
// self-addressed sends: broadcasts are looped back internally.
//
// To == wire.Broadcast means every node except the sender: the caller
// sends Env to each node id 0..N−1 other than its own, in ascending
// order. A broadcast is one action, not N−1, so a step that casts a vote
// boxes one action; Unicast expands it for callers that look at each
// recipient's copy.
type SendAction struct {
	To     wire.NodeID
	Env    wire.Envelope
	Prio   wire.Priority
	Stream uint64 // retrieval epoch for per-epoch transport ordering
}

// Unicast returns actions with every broadcast SendAction replaced by
// its per-recipient sends, in fan-out order, for an n-node cluster seen
// from node self. Without a broadcast it returns actions itself;
// otherwise a new slice, leaving actions unchanged.
func Unicast(actions []Action, n, self int) []Action {
	var out []Action
	for k, a := range actions {
		s, ok := a.(SendAction)
		if !ok || s.To != wire.Broadcast {
			if out != nil {
				out = append(out, a)
			}
			continue
		}
		if out == nil {
			out = append(make([]Action, 0, len(actions)+n), actions[:k]...)
		}
		for i := 0; i < n; i++ {
			if i != self {
				s.To = i
				out = append(out, s)
			}
		}
	}
	if out == nil {
		return actions
	}
	return out
}

// DeliverAction hands a committed block's transactions to the state
// machine, in the global total order. Linked marks blocks committed via
// inter-node linking rather than directly by BA.
type DeliverAction struct {
	Epoch    uint64
	Proposer wire.NodeID
	Txs      [][]byte
	Payload  int // transaction bytes in the block
	Linked   bool
	// V is the delivered block's observation array, persisted with the
	// delivery record so a restarted node can still run the inter-node
	// linking computation over pre-crash deliveries.
	V []uint64
}

// ProposalNeededAction asks the replica to produce the next block. The
// replica answers by calling Engine.Propose (after its batching delay).
// Empty is set in DL-Coupled mode when the node is lagging on retrieval
// and must propose an empty block (§4.5, spam mitigation).
type ProposalNeededAction struct {
	Epoch uint64
	Empty bool
}

// ProposalMadeAction reports that the engine built and dispersed a block
// into Epoch, carrying the encoded block. It precedes the dispersal's
// SendActions in the action list; the replica persists (and syncs) it
// before externalizing them, so a restarted node can re-disperse the
// identical block instead of equivocating or losing the epoch.
type ProposalMadeAction struct {
	Epoch uint64
	Block []byte
}

// ResubmitAction returns transactions of a dropped block to the mempool
// (HoneyBadger mode only: DL's inter-node linking guarantees every correct
// block commits, so DL never resubmits).
type ResubmitAction struct {
	Txs [][]byte
}

// UnsendAction asks the transport to discard any queued-but-unsent
// ReturnChunk frames addressed to To for the given instance. It is
// emitted when a retriever cancels its chunk requests: the paper's QUIC
// transport cancels the corresponding stream, dropping data that has not
// reached the wire. Transports may ignore it (it is purely a bandwidth
// optimization).
type UnsendAction struct {
	To       wire.NodeID
	Epoch    uint64
	Proposer wire.NodeID
}

// TimerAction asks the replica to call Engine.HandleTimer(Token) after
// roughly After. The engine uses timers only for retrieval escalation
// (asking more servers for chunks when the first wave stalls), so timing
// is a liveness optimization, never a safety dependency.
type TimerAction struct {
	After time.Duration
	Token uint64
}

// EpochDecidedAction reports that the dispersal phase of an epoch
// finished: all N BA instances produced output and S is the committed
// index set. Emitted once per epoch, for instrumentation.
type EpochDecidedAction struct {
	Epoch uint64
	S     []int
}

// EpochDeliveredAction reports that every block of the epoch (BA-committed
// and linked) has been retrieved and delivered. Emitted in epoch order.
// Floor is the linked-delivery floor after the epoch (persisted so a
// restarted node resumes linking where it left off).
type EpochDeliveredAction struct {
	Epoch uint64
	Floor []uint64
}

// EpochOpenedAction reports that another proposer's dispersal traffic
// arrived for Epoch, above the highest epoch this node proposed into:
// the epoch is under way without this node. Emitted at most once per
// epoch. It is a signal for the replica's rate control only: the engine
// neither journals nor sends anything because of it, and a Byzantine
// peer that opens epochs early can only make the replica propose as
// soon as it would without the signal.
type EpochOpenedAction struct {
	Epoch uint64
}

// CatchupDoneAction reports that the recovery status protocol finished:
// the node has adopted every decision it slept through and participates
// normally again. The replica holds proposals back while catching up
// (a block proposed into an already-decided epoch can never commit, so
// its transactions would be lost) and resumes them on this action.
type CatchupDoneAction struct{}

// ChunkStoredAction reports that a VID instance Completed locally (or
// that its chunk arrived after completion): the replica persists Rec —
// the agreed root and, when HasChunk, the chunk and its proof — so a
// restarted node can still serve retrieval requests for every dispersal
// that completed here before the crash. A dispersal it acknowledged but
// had not completed is forgotten: GotChunk and Ready leave before this
// record is written (ROADMAP, "a server acknowledges a chunk before it
// is durable").
type ChunkStoredAction struct {
	Rec store.ChunkRecord
}

// VoteCastAction reports that the BA instance (Epoch, Proposer) appended
// Vote to its journal — a BVal/Aux/Term about to go on the wire, or a
// round transition. It precedes the vote's SendAction in the same action
// batch; the replica appends it to the WAL and group-commits it with the
// rest of the step before any send is externalized, so every vote a peer
// can ever have seen is durable, and a restarted node re-sends exactly
// its pre-crash votes instead of consuming fault budget (see
// ba.Restore). Non-durable replicas ignore it.
type VoteCastAction struct {
	Epoch    uint64
	Proposer wire.NodeID
	Vote     ba.Vote
}

// SyncPointAction reports that the engine reached a state-sync
// checkpoint cadence boundary: the epoch just delivered is a sync point,
// and Floor/Blocks are the objective engine state of the canonical
// manifest at exactly that position (captured inside the delivery step,
// so several epochs delivering in one step each get their own accurate
// snapshot). The replica adds the committed-hash memory — which it has
// advanced through exactly this epoch's deliveries when it processes the
// action — and records the manifest in its statesync.Tracker.
type SyncPointAction struct {
	Epoch  uint64
	Floor  []uint64
	Blocks []store.ManifestBlock
}

// SyncInstallAction reports that a state-sync manifest was verified and
// installed into the engine: the node bootstrapped from a checkpoint at
// Epoch instead of replaying history. The replica seeds its mempool's
// committed-hash memory from Committed (exactly-once across the
// synced-over gap) and persists a fresh durable checkpoint so a crash
// after this point recovers from the synced position.
type SyncInstallAction struct {
	Epoch     uint64
	Committed [][32]byte
}

// LifecycleStage names the epoch-lifecycle boundary a StageAction
// marks. core defines its own enum so the engine stays free of
// telemetry imports; the values are those of the matching
// telemetry.Kind constants, so the replica maps a stage by conversion
// (a replica test pins the correspondence).
type LifecycleStage uint8

// Epoch-lifecycle boundaries reported via StageAction. Only boundaries
// without an existing dedicated action get one: BA decide and delivery
// are already observable via EpochDecidedAction/EpochDeliveredAction,
// which is why their two values are skipped.
const (
	// StageDisperseStart: the node began dispersing its own block.
	StageDisperseStart LifecycleStage = 0
	// StageDisperseDone: the node's own dispersal completed.
	StageDisperseDone LifecycleStage = 1
	// StageBAInput: a first value entered one of the epoch's BAs.
	StageBAInput LifecycleStage = 2
	// StageRetrieveStart: the first network retrieval request went out
	// for a block dispersed in this epoch.
	StageRetrieveStart LifecycleStage = 4

	// Per-peer boundaries: sub-spans attributing an epoch's latency to a
	// specific peer. StageAction.Peer is meaningful only for these.

	// StagePeerChunkSent: this node (as proposer) queued Peer's dispersal
	// chunk for sending.
	StagePeerChunkSent LifecycleStage = 6
	// StagePeerEcho: Peer's got-chunk vote on this node's own dispersal
	// arrived.
	StagePeerEcho LifecycleStage = 7
	// StagePeerVote: the first BA vote from Peer arrived in the epoch.
	StagePeerVote LifecycleStage = 8
	// StagePeerRetrieveReq: a retrieval chunk request went out to Peer
	// (emitted per send, so re-asks are visible to the flight recorder;
	// the tracer keeps the first).
	StagePeerRetrieveReq LifecycleStage = 9
	// StagePeerRetrieveResp: Peer returned a retrieval chunk.
	StagePeerRetrieveResp LifecycleStage = 10
	// StagePeerRetrieveUnwanted: Peer returned a chunk of a block this
	// node is not retrieving (any more): a request it hedged or cancelled
	// too late was answered all the same, and the chunk's bytes were
	// downloaded for nothing.
	StagePeerRetrieveUnwanted LifecycleStage = 11
)

// StageAction reports that an epoch crossed a lifecycle boundary. It is
// pure telemetry: it carries no wire traffic, the replica stamps it
// with its Context clock and forwards it to the epoch tracer (dropping
// it when telemetry is off), and chaos replay fingerprints — computed
// over plans and delivery logs — are unaffected. The engine may emit
// the same boundary more than once per epoch (e.g. one StageBAInput
// per BA instance); the tracer keeps the first observation. Peer is the
// involved peer's id for the StagePeer* boundaries and unused (zero)
// otherwise.
type StageAction struct {
	Epoch uint64
	Stage LifecycleStage
	Peer  wire.NodeID
}

func (SendAction) isAction()           {}
func (DeliverAction) isAction()        {}
func (ProposalNeededAction) isAction() {}
func (ProposalMadeAction) isAction()   {}
func (ResubmitAction) isAction()       {}
func (TimerAction) isAction()          {}
func (UnsendAction) isAction()         {}
func (EpochDecidedAction) isAction()   {}
func (EpochDeliveredAction) isAction() {}
func (ChunkStoredAction) isAction()    {}
func (EpochOpenedAction) isAction()    {}
func (CatchupDoneAction) isAction()    {}
func (VoteCastAction) isAction()       {}
func (SyncPointAction) isAction()      {}
func (SyncInstallAction) isAction()    {}
func (StageAction) isAction()          {}
