package telemetry

import (
	"encoding/json"
	"fmt"
	"time"
)

// Kind names one protocol fact. It is the node's single observation
// vocabulary: the replica and the gateway report every fact as one
// Event of one Kind through Metrics.Emit, and the consumers — registry
// series, epoch tracer, flight recorder, transaction journeys — each
// fold the kinds they care about (see Metrics.emit and nodeSeries).
type Kind uint8

// The fact vocabulary. Unless a kind says otherwise, Event.Peer and
// Event.Arg are unused and the event carries no transactions.
const (
	// Epoch-lifecycle boundaries, in pipeline order. They index
	// Timeline.T, and core.LifecycleStage mirrors their values, so the
	// replica maps an engine StageAction by conversion.

	// StageDisperseStart: the node proposed its own block (VID dispersal
	// begins).
	StageDisperseStart Kind = iota
	// StageDisperseDone: the node's own dispersal completed (2f+1 votes
	// on its VID instance).
	StageDisperseDone
	// StageBAInput: the first binary-agreement input of the epoch.
	StageBAInput
	// StageBADecide: all N BA instances decided — the epoch is ordered
	// (Arg = blocks committed).
	StageBADecide
	// StageRetrieveStart: the first retrieval request went out for a
	// block committed in the epoch.
	StageRetrieveStart
	// StageDeliver: the epoch's payload was delivered to the
	// application. Completes the epoch's timeline and finalizes the
	// journeys proposed in it.
	StageDeliver

	// Per-peer sub-spans (Peer = the peer), in core.LifecycleStage
	// order. The tracer keeps the first observation per (kind, peer) of
	// an epoch; the flight recorder journals every occurrence, so
	// re-ask rounds stay visible.

	// PeerChunkSent: this node (as proposer) queued the peer's dispersal
	// chunk for sending.
	PeerChunkSent
	// PeerEcho: the peer's got-chunk vote on this node's own dispersal
	// arrived (the echoes whose (n−2f)-th arrival completes dispersal).
	PeerEcho
	// PeerVote: the first binary-agreement vote from the peer arrived
	// in this epoch.
	PeerVote
	// PeerRetrieveReq: a retrieval chunk request went out to the peer
	// (repeats for the same epoch and peer are re-asks).
	PeerRetrieveReq
	// PeerRetrieveResp: the peer returned a retrieval chunk.
	PeerRetrieveResp
	// PeerRetrieveUnwanted: the peer returned a chunk of a block this
	// node had finished retrieving, or never asked for: download spent on
	// nothing. Counted, not traced.
	PeerRetrieveUnwanted
	// VoteCast: this node appended a BA vote to its journal (Peer = the
	// instance's proposer; Arg packs kind<<33 | round<<1 | value).
	VoteCast

	// Storage and state-sync facts.

	// Fsync: a WAL group-commit fsync finished (Arg = latency ns).
	Fsync
	// StoreError: a durable write failed.
	StoreError
	// SyncPages: state-sync pages were served to joiners since the
	// previous sample (Arg = page count delta).
	SyncPages
	// SyncInstalled: a bootstrap-from-checkpoint install completed.
	SyncInstalled

	// Transaction facts. A transaction only ever rides its origin
	// node's own proposal, so its journey is joined on that node alone:
	// by content hash until it is proposed, by log slot (Epoch, Peer =
	// proposer) afterwards.

	// TxRejected: the mempool refused a submission.
	TxRejected
	// TxEnqueued: the transaction the event carries entered this node's
	// mempool. Also a journey checkpoint in the flight recorder (there,
	// as for the three kinds below, Arg = the first four hash bytes).
	TxEnqueued
	// TxProposed: the transactions the event carries were popped into
	// this node's proposal for Epoch (Peer = this node, Arg = the
	// Trigger* value naming what released the proposal).
	TxProposed
	// TxBlockDelivered: journey checkpoint — the containing block was
	// delivered locally.
	TxBlockDelivered
	// TxCommitted: journey checkpoint — the whole epoch was delivered;
	// the journey is done.
	TxCommitted
	// TxAdmitted: the gateway admitted a client transaction (Arg =
	// hub-measured admission duration ns). The event carries the
	// transaction's content hash, which the hub holds already, in place
	// of its bytes.
	TxAdmitted
	// TxProofIngested: the gateway indexed delivered block (Epoch, Peer)
	// for commit proofs (Arg = hub-measured ingest duration ns).
	TxProofIngested
	// BlockDelivered: block (Epoch, Peer) was delivered, committed
	// directly by the epoch's agreement (Arg = payload bytes; the event
	// carries the block's transactions).
	BlockDelivered
	// BlockDeliveredLinked: as BlockDelivered, committed by the
	// inter-node linking rule.
	BlockDeliveredLinked

	// Client-gateway facts. Their series exist only on nodes that run a
	// gateway (Metrics.EnableGateway). For the counted ones, Accepted
	// through Dropped, Arg = the number of occurrences.

	// GatewayAccepted: a submission entered the mempool.
	GatewayAccepted
	// GatewayDuplicate: a submission repeated pending or committed
	// content.
	GatewayDuplicate
	// GatewayOverCapacity: the mempool byte budget was exhausted.
	GatewayOverCapacity
	// GatewayOversize: a transaction exceeded the per-transaction cap.
	GatewayOversize
	// GatewayInvalid: a structurally unacceptable submission.
	GatewayInvalid
	// GatewayRateLimited: a client exhausted its admission rate budget.
	GatewayRateLimited
	// GatewayCommits: committed transactions were indexed for proofs.
	GatewayCommits
	// GatewayStreamed: a commit was pushed to a live subscription.
	GatewayStreamed
	// GatewayDropped: a commit was lost to a full subscriber buffer.
	GatewayDropped
	// GatewaySubscriptions: commit subscriptions opened (Arg = +1) or
	// closed (Arg = −1).
	GatewaySubscriptions
	// GatewayProofBlocks: Arg blocks now hold resident commit-proof
	// state.
	GatewayProofBlocks

	numKinds
)

// What released a proposal: TxProposed's Arg, and the trigger label of
// dl_proposals_total.
const (
	// TriggerTimer: the batch delay had passed since the node's previous
	// proposal.
	TriggerTimer int64 = iota
	// TriggerBytes: a full batch was pending and went at once.
	TriggerBytes
	// TriggerOpened: another node opened the epoch and this batch,
	// whatever its size, went with it.
	TriggerOpened
	// TriggerIdle: the node was idle — the batch delay, counted from its
	// last transaction-carrying proposal, had run out before its oldest
	// pending transaction arrived — and this batch went at once, as one
	// of the at most two such proposals an idle spell releases.
	TriggerIdle
)

// triggerNames are the trigger labels, indexed by Trigger* value.
var triggerNames = [...]string{"timer", "bytes", "opened", "idle"}

// NumStages is the number of epoch-lifecycle boundaries (the length of
// Timeline.T).
const NumStages = int(StageDeliver) + 1

// txPhaseCode is the kind number the four journey checkpoints share in
// the flight recorder's JSON form, where Arg's low byte tells them
// apart.
const txPhaseCode = 10

// kinds gives each Kind its exposition label (span name, journal line)
// and the number /debug/flightrecorder?format=json has always written
// for it; code −1 marks facts the flight recorder never journals. The
// journey checkpoints are journaled one entry per sampled transaction
// by the journeys fold, not once per fact.
var kinds = [numKinds]struct {
	name string
	code int8
}{
	StageDisperseStart: {"disperse_start", -1},
	StageDisperseDone:  {"disperse_done", -1},
	StageBAInput:       {"ba_input", -1},
	StageBADecide:      {"decide", 8},
	StageRetrieveStart: {"retrieve_start", -1},
	StageDeliver:       {"deliver", 9},

	PeerChunkSent:        {"chunk_sent", 2},
	PeerEcho:             {"echo", 3},
	PeerVote:             {"peer_vote", 1},
	PeerRetrieveReq:      {"retrieve_req", 4},
	PeerRetrieveResp:     {"retrieve_resp", 5},
	PeerRetrieveUnwanted: {"retrieve_unwanted", -1},
	VoteCast:             {"vote_cast", 0},

	Fsync:         {"fsync", 6},
	StoreError:    {"store_error", -1},
	SyncPages:     {"sync_page", 7},
	SyncInstalled: {"sync_installed", -1},

	TxRejected:           {"tx_rejected", -1},
	TxEnqueued:           {"enqueued", txPhaseCode},
	TxProposed:           {"proposed", txPhaseCode},
	TxBlockDelivered:     {"block_delivered", txPhaseCode},
	TxCommitted:          {"committed", txPhaseCode},
	TxAdmitted:           {"tx_admitted", -1},
	TxProofIngested:      {"tx_proof_ingested", -1},
	BlockDelivered:       {"block_delivered_ba", -1},
	BlockDeliveredLinked: {"block_delivered_linked", -1},

	GatewayAccepted:      {"gateway_accepted", -1},
	GatewayDuplicate:     {"gateway_duplicate", -1},
	GatewayOverCapacity:  {"gateway_over_capacity", -1},
	GatewayOversize:      {"gateway_oversize", -1},
	GatewayInvalid:       {"gateway_invalid", -1},
	GatewayRateLimited:   {"gateway_rate_limited", -1},
	GatewayCommits:       {"gateway_commits", -1},
	GatewayStreamed:      {"gateway_streamed", -1},
	GatewayDropped:       {"gateway_dropped", -1},
	GatewaySubscriptions: {"gateway_subscriptions", -1},
	GatewayProofBlocks:   {"gateway_proof_blocks", -1},
}

// String returns the kind's exposition label.
func (k Kind) String() string {
	if k < numKinds {
		return kinds[k].name
	}
	return "unknown"
}

// hasPeer reports whether events of kind k name a peer.
func (k Kind) hasPeer() bool { return k >= PeerChunkSent && k <= VoteCast }

// Event is one observed protocol fact. At is the reporting node's
// Context clock (time since node start; simulated time under the
// emulator), so timestamps from different nodes are not comparable.
// Peer and Arg mean what the Kind says. The flight recorder retains
// events verbatim.
type Event struct {
	At    time.Duration
	Epoch uint64
	Arg   int64
	Kind  Kind
	Peer  int32
}

// String renders the event as one flight-recorder line (no newline).
func (e Event) String() string {
	if kinds[e.Kind].code == txPhaseCode {
		return fmt.Sprintf("%12s %-13s epoch=%d tx=%08x at=%s", e.At, "tx_phase", e.Epoch, uint32(e.Arg), e.Kind)
	}
	s := fmt.Sprintf("%12s %-13s epoch=%d", e.At, e.Kind, e.Epoch)
	if e.Kind.hasPeer() {
		s += fmt.Sprintf(" peer=%d", e.Peer)
	}
	if e.Arg != 0 {
		s += fmt.Sprintf(" arg=%d", e.Arg)
	}
	return s
}

// MarshalJSON writes the flight recorder's JSON form, which predates
// the single vocabulary: its own kind numbering, peer −1 where no peer
// is involved, and the journey checkpoint packed into arg's low byte
// under one shared kind.
func (e Event) MarshalJSON() ([]byte, error) {
	out := struct {
		At    time.Duration `json:"at"`
		Epoch uint64        `json:"epoch"`
		Arg   int64         `json:"arg,omitempty"`
		Kind  int8          `json:"kind"`
		Peer  int32         `json:"peer"`
	}{e.At, e.Epoch, e.Arg, kinds[e.Kind].code, -1}
	if e.Kind.hasPeer() {
		out.Peer = e.Peer
	}
	if out.Kind == txPhaseCode {
		out.Arg = e.Arg<<8 | int64(e.Kind-TxEnqueued)
	}
	return json.Marshal(out)
}

// foldOp says how one registry series folds the events that feed it.
type foldOp uint8

const (
	countOne   foldOp = iota // counter += 1
	countArg                 // counter += Arg
	countTxs                 // counter += transactions carried
	gaugeSet                 // gauge = Arg
	gaugeAdd                 // gauge += Arg
	observeArg               // histogram observes Arg
)

// seriesDef wires kinds to one registry series.
type seriesDef struct {
	kinds              []Kind
	op                 foldOp
	name, labels, help string
	bounds             []int64 // histograms only; nanosecond observations
}

// fsyncBounds: 50µs .. ~1.6s, log-scale.
var fsyncBounds = ExpBuckets(int64(50*time.Microsecond), 2, 16)

// nodeSeries are the event-fed series every node exposes; New registers
// them in this order (the order of a family's label sets on /metrics).
var nodeSeries = []seriesDef{
	{[]Kind{Fsync}, observeArg, "dl_wal_fsync_seconds", "", "WAL group-commit fsync latency.", fsyncBounds},
	{[]Kind{TxEnqueued}, countOne, "dl_txs_submitted_total", "", "Transactions accepted into the mempool.", nil},
	{[]Kind{BlockDelivered, BlockDeliveredLinked}, countTxs, "dl_txs_delivered_total", "", "Transactions delivered in the total order (this incarnation).", nil},
	{[]Kind{BlockDelivered, BlockDeliveredLinked}, countArg, "dl_delivered_payload_bytes_total", "", "Delivered transaction payload bytes (this incarnation).", nil},
	{[]Kind{StageBADecide}, countOne, "dl_epochs_decided_total", "", "Epochs whose BA vector decided (this incarnation).", nil},
	{[]Kind{StageDeliver}, countOne, "dl_epochs_delivered_total", "", "Epochs delivered to the application (this incarnation).", nil},
	{[]Kind{BlockDeliveredLinked}, countOne, "dl_blocks_delivered_total", `kind="linked"`, "Blocks delivered, split by commit path.", nil},
	{[]Kind{BlockDelivered}, countOne, "dl_blocks_delivered_total", `kind="ba"`, "Blocks delivered, split by commit path.", nil},
	{[]Kind{PeerRetrieveUnwanted}, countOne, "dl_retrieval_unwanted_chunks_total", "", "Retrieval chunks received for blocks already in hand: answers to requests hedged or cancelled too late.", nil},
	{[]Kind{TxRejected}, countOne, "dl_submissions_rejected_total", "", "Submissions the mempool refused (duplicate or over budget).", nil},
	{[]Kind{StoreError}, countOne, "dl_store_errors_total", "", "Failed durable writes (first one stops persistence).", nil},
	{[]Kind{SyncInstalled}, countOne, "dl_state_syncs_total", "", "Completed bootstrap-from-checkpoint installs.", nil},
	{[]Kind{SyncPages}, gaugeAdd, "dl_statesync_served_pages", "", "State-sync pages served to joiners.", nil},
}

const (
	admissions     = "dl_gateway_admissions_total"
	admissionsHelp = "Client submissions by admission outcome."
)

// gatewaySeries are the client gateway's series (Metrics.EnableGateway).
var gatewaySeries = []seriesDef{
	{[]Kind{GatewayAccepted}, countArg, admissions, `outcome="accepted"`, admissionsHelp, nil},
	{[]Kind{GatewayDuplicate}, countArg, admissions, `outcome="duplicate"`, admissionsHelp, nil},
	{[]Kind{GatewayOverCapacity}, countArg, admissions, `outcome="over-capacity"`, admissionsHelp, nil},
	{[]Kind{GatewayOversize}, countArg, admissions, `outcome="oversize"`, admissionsHelp, nil},
	{[]Kind{GatewayInvalid}, countArg, admissions, `outcome="invalid"`, admissionsHelp, nil},
	{[]Kind{GatewayRateLimited}, countArg, admissions, `outcome="rate-limited"`, admissionsHelp, nil},
	{[]Kind{GatewayCommits}, countArg, "dl_gateway_commits_total", "", "Committed transactions indexed for proof service.", nil},
	{[]Kind{GatewayStreamed}, countArg, "dl_gateway_commits_streamed_total", "", "Commits pushed to live subscriptions.", nil},
	{[]Kind{GatewayDropped}, countArg, "dl_gateway_commits_dropped_total", "", "Commits lost to full subscriber buffers.", nil},
	{[]Kind{GatewaySubscriptions}, gaugeAdd, "dl_gateway_subscriptions", "", "Open commit subscriptions.", nil},
	{[]Kind{GatewayProofBlocks}, gaugeSet, "dl_gateway_proof_blocks", "", "Blocks with resident commit-proof state.", nil},
}

// fold applies one event, carrying ntx transactions, to one series.
type fold func(ev Event, ntx int)

// register creates each definition's series in reg and appends its fold
// to the per-kind table.
func register(reg *Registry, table *[numKinds][]fold, defs []seriesDef) {
	for _, d := range defs {
		var f fold
		switch d.op {
		case countOne:
			c := reg.Counter(d.name, d.labels, d.help)
			f = func(Event, int) { c.Inc() }
		case countArg:
			c := reg.Counter(d.name, d.labels, d.help)
			f = func(ev Event, _ int) { c.Add(uint64(ev.Arg)) }
		case countTxs:
			c := reg.Counter(d.name, d.labels, d.help)
			f = func(_ Event, ntx int) { c.Add(uint64(ntx)) }
		case gaugeSet:
			g := reg.Gauge(d.name, d.labels, d.help)
			f = func(ev Event, _ int) { g.Set(ev.Arg) }
		case gaugeAdd:
			g := reg.Gauge(d.name, d.labels, d.help)
			f = func(ev Event, _ int) { g.Add(ev.Arg) }
		case observeArg:
			h := reg.Histogram(d.name, d.labels, d.help, d.bounds, 1e-9)
			f = func(ev Event, _ int) { h.Observe(ev.Arg) }
		}
		for _, k := range d.kinds {
			table[k] = append(table[k], f)
		}
	}
}
