// Package replica wires a consensus engine to a transport, a mempool and
// timers, forming a complete DispersedLedger node.
//
// The replica owns the paper's rate control for block proposals (§5).
// The engine answers whether the next block is due and whether it must
// be empty (core.Engine.ProposalDue), and the replica asks after every
// step; an empty block goes at once. A due block with room for
// transactions goes once (i) BatchDelay has passed since its
// last proposal, or (ii) BatchBytes of transactions have accumulated —
// Nagle's algorithm applied to batching — or (iii) another proposer's
// dispersal has opened the epoch, in which case the block carries
// whatever the node holds: the cluster's first trigger paces every
// epoch and the other nodes join it, or (iv) the node was idle: the
// delay had already run out, counted from its last transaction-carrying
// proposal, before its oldest pending transaction arrived. An idle node
// sends its next two transaction-carrying proposals at once (the second
// takes the rest of a burst one agreement round later) and then batches
// as before; its empty blocks still tick at BatchDelay. It also
// implements the fixed-block-size mode used by the scalability
// experiments (Fig 12/13), which ignores openings and idleness, and
// records the per-node statistics every figure of the evaluation is
// built from.
//
// A Replica is single-threaded: all methods must be called from one
// goroutine (the emulator's event loop, or a TCP node's event loop).
package replica

import (
	"encoding/binary"
	"errors"
	"time"

	"dledger/internal/core"
	"dledger/internal/mempool"
	"dledger/internal/statesync"
	"dledger/internal/stats"
	"dledger/internal/store"
	"dledger/internal/telemetry"
	"dledger/internal/wire"
	"dledger/internal/workload"
)

// Context is the environment a replica runs in: a clock, timers, and a
// way to send messages. Package simnet provides a deterministic
// implementation; package transport provides a live TCP one.
type Context interface {
	Now() time.Duration
	Send(to int, env wire.Envelope, prio wire.Priority, stream uint64)
	After(d time.Duration, fn func())
}

// Unsender is optionally implemented by Contexts whose transport can
// discard queued-but-unsent retrieval chunks (the QUIC-style stream
// cancellation of the paper's implementation).
type Unsender interface {
	Unsend(to int, epoch uint64, proposer int)
}

// Params tunes the replica.
type Params struct {
	// BatchDelay and BatchBytes are the Nagle thresholds; the paper uses
	// 100 ms and 150 KB. Zero values take those defaults.
	BatchDelay time.Duration
	BatchBytes int
	// FixedBlockBytes, when positive, switches to the scalability
	// experiments' mode: propose only when this many bytes are pending
	// and make every block exactly this large.
	FixedBlockBytes int
	// CheckpointEvery is the number of delivered epochs between durable
	// checkpoints (engine snapshot + WAL/chunk compaction). Zero takes
	// the default of 64; negative disables checkpointing.
	CheckpointEvery int
	// MempoolBytes caps the mempool backlog: a submission that would
	// push the queued bytes past the budget is rejected (SubmitFrom
	// returns mempool.ErrOverCapacity) instead of queued unboundedly.
	// Zero keeps the unbounded seed behaviour.
	MempoolBytes int
	// Telemetry, when set, is the node's telemetry bundle: the replica
	// reports every protocol fact to it as one event stamped with the
	// Context clock, and registers its backlog gauges and the
	// confirmation-latency histograms there. Nil disables telemetry at
	// near-zero cost (nil-handle no-ops).
	Telemetry *telemetry.Metrics
	// ClientDedup enables the gateway's content-hash machinery: the
	// mempool deduplicates submissions, every delivered block's
	// transaction hashes ride its WAL record (and the committed-hash
	// memory rides checkpoints), and recovery rebuilds both — so client
	// resubmission after a retry or a crash-restart is idempotent.
	// Every public node sets it; the emulator only where simulated
	// clients need it, as hashing costs emulated runs time and memory.
	ClientDedup bool
}

func (p Params) batchDelay() time.Duration {
	if p.BatchDelay == 0 {
		return 100 * time.Millisecond
	}
	return p.BatchDelay
}

func (p Params) batchBytes() int {
	if p.BatchBytes == 0 {
		return 150 << 10
	}
	return p.BatchBytes
}

func (p Params) checkpointEvery() int {
	if p.CheckpointEvery == 0 {
		return 64
	}
	if p.CheckpointEvery < 0 {
		return 0
	}
	return p.CheckpointEvery
}

// Delivery describes one delivered block, passed to the OnDeliver hook.
type Delivery struct {
	At       time.Duration
	Epoch    uint64
	Proposer int
	Txs      [][]byte
	Payload  int
	Linked   bool
	// TxHashes are the transactions' content hashes in block order,
	// populated only with Params.ClientDedup (the gateway builds commit
	// proofs and matches client subscriptions from them).
	TxHashes []mempool.Hash
	// Telemetry is the delivering incarnation's bundle (nil when
	// telemetry is off), for observers that time their own share of the
	// delivery path — the gateway's proof-stream ingest — and must
	// report it to the incarnation whose journeys it belongs to.
	Telemetry *telemetry.Metrics
}

// Stats aggregates the measurements the evaluation needs. Across a
// restart, the delivery and epoch counters are recovered from the WAL;
// the submission counters and the latency reservoirs are node-local
// measurements that restart from zero.
type Stats struct {
	Submitted        int64
	SubmittedBytes   int64
	DeliveredTxs     int64
	DeliveredPayload int64
	LinkedBlocks     int64
	BADeliveries     int64
	EpochsDecided    int64
	EpochsDelivered  int64
	// StoreErrors counts failed durable writes; after the first failure
	// the replica stops persisting (availability over durability) and
	// the node must not be restarted from this datadir.
	StoreErrors int64
	// RejectedSubmissions counts submissions the mempool refused
	// (duplicate or over the byte budget); the gateway keeps the
	// per-cause split.
	RejectedSubmissions int64
	// StateSyncs counts completed bootstrap-from-checkpoint installs
	// (engine-level transfer counters live in Engine().SyncStats()).
	StateSyncs int64
	// LatAll / LatLocal are confirmation latencies of all transactions
	// and of locally-submitted ones (§6.2's metric and Fig 14's),
	// downsampled into bounded reservoirs so a long-running node's
	// memory no longer grows per transaction.
	LatAll   stats.Reservoir
	LatLocal stats.Reservoir
}

// Replica is one node.
type Replica struct {
	self   int
	n      int // cluster size, the fan-out of a broadcast SendAction
	ctx    Context
	engine *core.Engine
	pool   *mempool.Pool
	params Params

	// st is nil on a node that persists nothing. After the first failed
	// write nothing more is persisted either (see storeFail).
	st          store.Store
	lastLSN     uint64
	storeBroken bool
	sinceCkpt   int
	syncCkpt    bool // a state-sync install wants the turn's checkpoint
	// recBatch is the reusable record buffer persistStep batches each
	// step's WAL appends through.
	recBatch []store.Record

	// tracker records the attestable state-sync checkpoints this node
	// can serve to joiners (nil without core.Config.StateSync).
	tracker *statesync.Tracker
	// lastSyncPages is the served-pages watermark already journaled to
	// the flight recorder (the engine counter is cumulative).
	lastSyncPages int64

	lastProposal time.Duration
	// lastTxProposal is when the node last proposed transactions: the
	// idle test runs the batching clock from it.
	lastTxProposal time.Duration
	// idleShots counts the transaction-carrying proposals an idle spell
	// still releases at once; idleRead says the idle test has read the
	// mempool since the last proposal (one read per proposal).
	idleShots  int
	idleRead   bool
	timerArmed bool
	started    bool

	// OnDeliver, when set, observes every delivered block.
	OnDeliver func(Delivery)

	// recoveredBlocks collects the (epoch, proposer, hashes) of every
	// block whose WAL record carried tx hashes, for the gateway to
	// rebuild its commit-proof index after a restart.
	recoveredBlocks []RecoveredBlock

	// tel holds the telemetry bundle and handles; all nil (and inert)
	// when Params.Telemetry is unset.
	tel repMetrics

	Stats Stats
}

// repMetrics is the replica's telemetry: the bundle every fact is
// emitted to, plus handles for the measurements that are not events —
// per-transaction latency observations and sampled state. Everything
// is nil-safe, so a zero repMetrics (telemetry disabled) no-ops.
type repMetrics struct {
	*telemetry.Metrics
	latAll        *telemetry.Histogram
	latLocal      *telemetry.Histogram
	mempoolBytes  *telemetry.Gauge
	syncBytes     *telemetry.Gauge
	syncChunks    *telemetry.Gauge
	syncLastEpoch *telemetry.Gauge

	// Queueing/backpressure gauges (dl_queue_*), sampled at proposal
	// cadence — the "where is the backlog" family.
	qFront        *telemetry.Gauge
	qClients      *telemetry.Gauge
	qOldestAgeMs  *telemetry.Gauge
	qProposalFill *telemetry.Gauge
	qRetrieval    *telemetry.Gauge
	qBA           *telemetry.Gauge
}

// confirmBounds: 1ms .. ~131s, log-scale (matches the stage histograms).
var confirmBounds = telemetry.ExpBuckets(int64(time.Millisecond), 2, 18)

func newRepMetrics(m *telemetry.Metrics) repMetrics {
	reg := m.Registry()
	const lat = "dl_tx_confirm_seconds"
	const latHelp = "Transaction confirmation latency (submit to deliver)."
	return repMetrics{
		Metrics:       m,
		latAll:        reg.Histogram(lat, `scope="all"`, latHelp, confirmBounds, 1e-9),
		latLocal:      reg.Histogram(lat, `scope="local"`, latHelp, confirmBounds, 1e-9),
		mempoolBytes:  reg.Gauge("dl_mempool_bytes", "", "Transaction bytes queued in the mempool."),
		syncBytes:     reg.Gauge("dl_statesync_fetched_bytes", "", "State-sync page payload bytes fetched from donors."),
		syncChunks:    reg.Gauge("dl_statesync_imported_chunks", "", "Verified chunk records adopted from donors."),
		syncLastEpoch: reg.Gauge("dl_statesync_last_epoch", "", "Checkpoint position of the most recent bootstrap install."),
		qFront:        reg.Gauge("dl_queue_mempool_txs", `shard="front"`, "Mempool depth by shard: re-proposal front vs client queues."),
		qClients:      reg.Gauge("dl_queue_mempool_txs", `shard="clients"`, "Mempool depth by shard: re-proposal front vs client queues."),
		qOldestAgeMs:  reg.Gauge("dl_queue_mempool_oldest_age_ms", "", "Age of the oldest queued transaction (ms)."),
		qProposalFill: reg.Gauge("dl_queue_proposal_fill_pct", "", "Last proposal's payload as a percentage of the batch-bytes target."),
		qRetrieval:    reg.Gauge("dl_queue_retrieval_inflight", "", "Block retrievals started but not completed."),
		qBA:           reg.Gauge("dl_queue_ba_inflight", "", "Binary-agreement instances without an output, across undecided epochs."),
	}
}

// RecoveredBlock is one delivered block recovered from the WAL with its
// transaction content hashes (recorded only under Params.ClientDedup).
type RecoveredBlock struct {
	Epoch    uint64
	Proposer int
	TxHashes []mempool.Hash
}

// New builds a replica for node self. A nil st means no durability:
// nothing is persisted and nothing can be recovered, which is right for
// tests, benchmarks and throwaway in-process clusters. Otherwise the
// replica recovers whatever state st holds: the checkpoint snapshot is
// applied, the WAL after it is replayed (restoring the engine's log
// position and the delivery counters), and the chunk store is loaded so
// the node can serve retrievals for pre-crash epochs. A corrupt store
// fails construction rather than silently rejoining with partial state.
func New(cfg core.Config, self int, params Params, st store.Store, ctx Context) (*Replica, error) {
	eng, err := core.NewEngine(cfg, self)
	if err != nil {
		return nil, err
	}
	r := &Replica{
		self:   self,
		n:      cfg.N,
		ctx:    ctx,
		engine: eng,
		pool: mempool.NewWithOptions(mempool.Options{
			MaxBytes: params.MempoolBytes,
			Dedup:    params.ClientDedup,
		}),
		params: params,
		st:     st,
		tel:    newRepMetrics(params.Telemetry),
	}
	if st != nil {
		if err := r.restore(); err != nil {
			return nil, err
		}
	}
	if cfg.StateSync {
		r.tracker = statesync.NewTracker(0)
		eng.SetSyncSource(trackerSource{r.tracker})
	}
	return r, nil
}

// restore rebuilds the engine, the delivery counters and the dedup
// memory from the store.
func (r *Replica) restore() error {
	var recs []store.Record
	cp, err := r.st.Recover(func(lsn uint64, rec store.Record) error {
		recs = append(recs, rec)
		r.replayStats(rec)
		if lsn > r.lastLSN {
			r.lastLSN = lsn
		}
		return nil
	})
	if err != nil {
		return err
	}
	var snap *core.Snapshot
	if cp != nil {
		snap, err = r.decodeCheckpoint(cp.State)
		if err != nil {
			return err
		}
		if cp.LSN > r.lastLSN {
			r.lastLSN = cp.LSN
		}
	}
	var chunks []store.ChunkRecord
	if err := r.st.Chunks(func(c store.ChunkRecord) error { chunks = append(chunks, c); return nil }); err != nil {
		return err
	}
	if snap != nil || len(recs) > 0 || len(chunks) > 0 {
		return r.engine.Restore(snap, recs, chunks)
	}
	return nil
}

// trackerSource adapts the tracker to the engine's donor interface.
type trackerSource struct{ t *statesync.Tracker }

func (s trackerSource) SyncPoints() []wire.SyncPoint { return s.t.Points() }
func (s trackerSource) SyncBlob(epoch uint64) []byte { return s.t.Blob(epoch) }

// replayStats re-derives the delivery counters from one WAL record, and
// replays committed transaction hashes into the dedup index so a client
// resubmitting a pre-crash commit is still recognized.
func (r *Replica) replayStats(rec store.Record) {
	switch rec.Type {
	case store.RecProposed:
		// The block will be re-dispersed (and eventually delivered), so
		// its transactions are in flight: without pending marks, a
		// client resubmitting them after the crash would get them
		// committed a second time.
		if r.params.ClientDedup && len(rec.Block) > 0 {
			if blk, err := wire.DecodeBlock(rec.Block); err == nil {
				for _, tx := range blk.Txs {
					r.pool.MarkPending(mempool.HashTx(tx))
				}
			}
		}
	case store.RecDecided:
		r.Stats.EpochsDecided++
	case store.RecBlock:
		r.Stats.DeliveredTxs += int64(rec.TxCount)
		r.Stats.DeliveredPayload += int64(rec.Payload)
		if rec.Linked {
			r.Stats.LinkedBlocks++
		} else {
			r.Stats.BADeliveries++
		}
		if r.params.ClientDedup && len(rec.TxHashes) > 0 {
			rb := RecoveredBlock{Epoch: rec.Epoch, Proposer: rec.Proposer,
				TxHashes: make([]mempool.Hash, len(rec.TxHashes))}
			for i, h := range rec.TxHashes {
				rb.TxHashes[i] = mempool.Hash(h)
				r.pool.Committed(rb.TxHashes[i])
			}
			r.recoveredBlocks = append(r.recoveredBlocks, rb)
		}
	case store.RecEpochDone:
		r.Stats.EpochsDelivered++
	}
}

// RecoveredBlocks returns the blocks recovered from the WAL with their
// transaction hashes, in replay order (empty unless Params.ClientDedup).
// The gateway consumes them to rebuild commit proofs for pre-crash
// deliveries.
func (r *Replica) RecoveredBlocks() []RecoveredBlock { return r.recoveredBlocks }

// Checkpoint blob layout: u32 snapshot length, engine snapshot, the six
// recovered counters, then — on ClientDedup nodes — the committed-hash
// memory (u32 count + 32-byte hashes, oldest first) so WAL compaction
// cannot forget hashes of checkpointed-away deliveries. Blobs without
// the hash section (pre-gateway datadirs) decode with an empty memory.
func (r *Replica) encodeCheckpoint(snap *core.Snapshot) []byte {
	eng := snap.Encode()
	hashes := r.pool.CommittedSnapshot()
	buf := make([]byte, 0, 4+len(eng)+48+4+32*len(hashes))
	buf = wire.AppendBytes(buf, eng)
	for _, v := range r.recoveredCounters() {
		buf = binary.BigEndian.AppendUint64(buf, uint64(*v))
	}
	if r.params.ClientDedup {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(hashes)))
		for _, h := range hashes {
			buf = append(buf, h[:]...)
		}
	}
	return buf
}

// recoveredCounters lists the Stats counters a checkpoint carries, in
// blob order.
func (r *Replica) recoveredCounters() [6]*int64 {
	return [6]*int64{
		&r.Stats.DeliveredTxs, &r.Stats.DeliveredPayload, &r.Stats.LinkedBlocks,
		&r.Stats.BADeliveries, &r.Stats.EpochsDecided, &r.Stats.EpochsDelivered,
	}
}

// decodeCheckpoint parses a checkpoint blob: the counters are added to
// Stats and the hashes replayed into the mempool's committed memory once
// the whole blob has parsed.
func (r *Replica) decodeCheckpoint(blob []byte) (*core.Snapshot, error) {
	rd := wire.NewReader(blob)
	eng := rd.View(int(rd.U32()))
	var ctrs [6]uint64
	for i := range ctrs {
		ctrs[i] = rd.U64()
	}
	if rd.Err() != nil {
		return nil, errors.New("replica: malformed checkpoint")
	}
	snap, err := core.DecodeSnapshot(eng)
	if err != nil {
		return nil, err
	}
	var hashes []mempool.Hash
	if rd.Len() > 0 {
		hashes = wire.Hashes[mempool.Hash](rd, int(rd.U32()))
	}
	if rd.Done() != nil {
		return nil, errors.New("replica: malformed checkpoint hash section")
	}
	for i, v := range r.recoveredCounters() {
		*v += int64(ctrs[i])
	}
	for _, h := range hashes {
		r.pool.Committed(h)
	}
	return snap, nil
}

// Self returns the node id.
func (r *Replica) Self() int { return r.self }

// Engine exposes the underlying engine (read-only use).
func (r *Replica) Engine() *core.Engine { return r.engine }

// Telemetry returns the node's telemetry bundle (nil when disabled).
func (r *Replica) Telemetry() *telemetry.Metrics { return r.params.Telemetry }

// SyncTracker exposes the node's state-sync checkpoint tracker (nil
// without core.Config.StateSync). Access it only on the replica's loop.
func (r *Replica) SyncTracker() *statesync.Tracker { return r.tracker }

// Start boots the replica. Call exactly once.
func (r *Replica) Start() {
	if r.started {
		return
	}
	r.started = true
	// Allow an immediate first proposal; the node starts idle.
	r.lastProposal = r.ctx.Now() - r.params.batchDelay()
	r.lastTxProposal = r.lastProposal
	r.apply(r.engine.Start())
}

// Submit enqueues a transaction from the node's own in-process client,
// ignoring admission rejections (the seed behaviour; rejections are
// still counted in Stats.RejectedSubmissions).
func (r *Replica) Submit(tx []byte) {
	_ = r.SubmitFrom(mempool.LocalClient, tx)
}

// SubmitFrom enqueues a transaction on behalf of a gateway client,
// subject to the mempool's admission control: the returned error is nil
// on acceptance or one of mempool.ErrDuplicatePending,
// mempool.ErrDuplicateCommitted, mempool.ErrOverCapacity.
func (r *Replica) SubmitFrom(client uint64, tx []byte) error {
	now := r.ctx.Now()
	if err := r.pool.PushFromAt(client, tx, now); err != nil {
		r.Stats.RejectedSubmissions++
		r.tel.Emit(telemetry.Event{Kind: telemetry.TxRejected, At: now})
		return err
	}
	r.Stats.Submitted++
	r.Stats.SubmittedBytes += int64(len(tx))
	r.tel.Emit(telemetry.Event{Kind: telemetry.TxEnqueued, At: now}, tx)
	r.mempoolChanged()
	r.apply(nil)
	return nil
}

// OnEnvelope feeds network messages into the engine as one step: their
// actions are applied together, so one group commit covers all their
// records before any of their effects is externalized. The emulator
// passes one envelope per step; the TCP node every envelope of a loop
// turn.
func (r *Replica) OnEnvelope(envs ...wire.Envelope) {
	var actions []core.Action
	for _, env := range envs {
		if a := r.engine.Handle(env); actions == nil {
			actions = a
		} else {
			actions = append(actions, a...)
		}
	}
	r.apply(actions)
}

// PendingBytes returns the mempool backlog.
func (r *Replica) PendingBytes() int { return r.pool.PendingBytes() }

// mempoolChanged publishes the backlog after a push or a pop.
func (r *Replica) mempoolChanged() { r.tel.mempoolBytes.Set(int64(r.pool.PendingBytes())) }

// apply runs one turn: actions is its first step (possibly empty), and a
// proposal the turn releases runs as the next. The rate control is asked
// after every step, an empty one included, since any engine call can make
// a proposal due. The checkpoint is taken at most once, after the last
// step, so it holds the effects of every record its LSN covers.
func (r *Replica) apply(actions []core.Action) {
	for {
		r.step(actions)
		if actions = r.tryPropose(); len(actions) == 0 {
			break
		}
	}
	if n := r.params.checkpointEvery(); r.st != nil && (r.syncCkpt || n > 0 && r.sinceCkpt >= n) {
		r.checkpoint()
	}
	// Mirror the engine-owned state-sync transfer counters (read only
	// on this loop) into scrape-safe gauges; pages served since the last
	// turn are an event, which also feeds the served-pages gauge.
	if r.tracker != nil {
		s := r.engine.SyncStats()
		r.tel.syncBytes.Set(s.BytesFetched)
		r.tel.syncChunks.Set(s.ChunksImported)
		r.tel.syncLastEpoch.Set(int64(s.LastSyncEpoch))
		if s.PagesServed > r.lastSyncPages {
			r.tel.Emit(telemetry.Event{Kind: telemetry.SyncPages, At: r.ctx.Now(), Arg: s.PagesServed - r.lastSyncPages})
			r.lastSyncPages = s.PagesServed
		}
	}
}

// step interprets one step's actions: their durable records are written
// and group-committed with one Sync before any of their effects is
// externalized, so nothing the application or a peer observes can be lost
// to a crash the WAL does not remember. A step is one engine call, or on
// TCP the envelopes of one loop turn (OnEnvelope).
func (r *Replica) step(actions []core.Action) {
	// Under ClientDedup every delivered transaction's content hash is
	// needed twice — in the WAL record and in the dedup/commit path —
	// so hash each DeliverAction once, keyed by action index.
	var hashes map[int][]mempool.Hash
	if r.params.ClientDedup {
		for idx, a := range actions {
			if act, ok := a.(core.DeliverAction); ok && len(act.Txs) > 0 {
				hs := make([]mempool.Hash, len(act.Txs))
				for i, tx := range act.Txs {
					hs[i] = mempool.HashTx(tx)
				}
				if hashes == nil {
					hashes = map[int][]mempool.Hash{}
				}
				hashes[idx] = hs
			}
		}
	}
	if r.st != nil {
		r.persistStep(actions, hashes)
	}
	for idx, a := range actions {
		switch act := a.(type) {
		case core.SendAction:
			if act.To != wire.Broadcast {
				r.ctx.Send(act.To, act.Env, act.Prio, act.Stream)
				continue
			}
			for to := 0; to < r.n; to++ {
				if to != r.self {
					r.ctx.Send(to, act.Env, act.Prio, act.Stream)
				}
			}
		case core.DeliverAction:
			r.onDeliver(act, hashes[idx])
		case core.ResubmitAction:
			r.pool.PushFrontAt(act.Txs, r.ctx.Now())
			r.mempoolChanged()
		case core.TimerAction:
			token := act.Token
			r.ctx.After(act.After, func() {
				r.apply(r.engine.HandleTimer(token))
			})
		case core.UnsendAction:
			if u, ok := r.ctx.(Unsender); ok {
				u.Unsend(act.To, act.Epoch, act.Proposer)
			}
		case core.EpochDecidedAction:
			r.Stats.EpochsDecided++
			r.tel.Emit(telemetry.Event{Kind: telemetry.StageBADecide, At: r.ctx.Now(), Epoch: act.Epoch, Arg: int64(len(act.S))})
		case core.EpochDeliveredAction:
			r.Stats.EpochsDelivered++
			r.sinceCkpt++
			r.tel.Emit(telemetry.Event{Kind: telemetry.StageDeliver, At: r.ctx.Now(), Epoch: act.Epoch})
		case core.StageAction:
			// The engine's stage values are the telemetry kinds' (pinned
			// by TestStageKindsMatch); only per-peer stages use Peer.
			r.tel.Emit(telemetry.Event{Kind: telemetry.Kind(act.Stage), At: r.ctx.Now(), Epoch: act.Epoch, Peer: int32(act.Peer)})
		case core.VoteCastAction:
			// Journal the vote in the flight recorder (durability is
			// persistStep's job).
			arg := int64(act.Vote.Kind)<<33 | int64(act.Vote.Round)<<1
			if act.Vote.Value {
				arg |= 1
			}
			r.tel.Emit(telemetry.Event{Kind: telemetry.VoteCast, At: r.ctx.Now(), Epoch: act.Epoch, Peer: int32(act.Proposer), Arg: arg})
		case core.SyncPointAction:
			r.recordSyncPoint(act)
		case core.SyncInstallAction:
			r.installSync(act)
		}
	}
}

// persistStep writes the step's durable records and group-commits them
// with one Sync, before any effect of the step is externalized. The
// step's WAL records are collected into one reused batch and handed to
// the store in a single AppendBatch call — the WAL-level half of the
// group commit (the frame bytes coalesce in the segment writer and one
// fsync covers them all).
func (r *Replica) persistStep(actions []core.Action, hashes map[int][]mempool.Hash) {
	recs := r.recBatch[:0]
	wrote := false
	for idx, a := range actions {
		switch act := a.(type) {
		case core.ProposalMadeAction:
			recs = append(recs, store.Record{Type: store.RecProposed, Epoch: act.Epoch, Block: act.Block})
		case core.DeliverAction:
			var th [][32]byte
			if hs := hashes[idx]; len(hs) > 0 {
				th = make([][32]byte, len(hs))
				for i, h := range hs {
					th[i] = h
				}
			}
			recs = append(recs, store.Record{
				Type: store.RecBlock, Epoch: act.Epoch, Proposer: act.Proposer,
				Linked: act.Linked, TxCount: uint32(len(act.Txs)),
				Payload: uint32(act.Payload), V: act.V, TxHashes: th,
			})
		case core.EpochDecidedAction:
			recs = append(recs, store.Record{Type: store.RecDecided, Epoch: act.Epoch, S: act.S})
		case core.EpochDeliveredAction:
			recs = append(recs, store.Record{Type: store.RecEpochDone, Epoch: act.Epoch, Floor: act.Floor})
		case core.VoteCastAction:
			// Votes ride the step's existing group commit: the same Sync
			// that covers the step's other records makes them durable
			// before any of the step's sends (including the vote itself)
			// reaches the wire — one record, not one fsync, per vote.
			recs = append(recs, store.Record{
				Type: store.RecVote, Epoch: act.Epoch, Proposer: act.Proposer,
				VoteKind: uint8(act.Vote.Kind), Round: act.Vote.Round, Value: act.Vote.Value,
			})
		case core.ChunkStoredAction:
			// Chunk records sync with the step too, before the GotChunk
			// or Ready they journal leaves.
			wrote = r.persist(func() error { return r.st.PutChunk(act.Rec) }) || wrote
		}
	}
	if len(recs) > 0 {
		wrote = r.persist(func() error {
			lsn, err := r.st.AppendBatch(recs)
			if err == nil {
				r.lastLSN = lsn
			}
			return err
		}) || wrote
	}
	// Drop the batch's references to block/hash payloads before reuse so
	// the buffer doesn't pin a step's blocks until the next write burst.
	for i := range recs {
		recs[i] = store.Record{}
	}
	r.recBatch = recs[:0]
	if wrote {
		r.persist(r.syncStore)
	}
}

// persist runs one durable write — unless an earlier one failed — and
// reports whether it succeeded; a failure ends persistence (storeFail).
func (r *Replica) persist(write func() error) bool {
	if r.storeBroken {
		return false
	}
	if err := write(); err != nil {
		r.storeFail()
		return false
	}
	return true
}

// syncStore group-commits the step, timing the fsync.
func (r *Replica) syncStore() error {
	t0 := r.ctx.Now()
	err := r.st.Sync()
	// Journaled as well as measured: WAL stalls show up in post-mortem
	// timelines next to the protocol events they gated.
	now := r.ctx.Now()
	r.tel.Emit(telemetry.Event{Kind: telemetry.Fsync, At: now, Arg: int64(now - t0)})
	return err
}

// storeFail records a durable-write failure and stops persisting: the
// node stays available, but its datadir is no longer a valid restart
// point. A restart from it would recover to a stale position and catch
// up as if freshly behind — and, because votes cast after the failure
// were never logged, such a restart could re-send forgotten votes and
// consume the cluster's fault budget. So the invalidation is made
// durable too: the store's UNSAFE_RESTART marker makes OpenFile refuse
// the directory until the operator forces it (dlnode -force-restart).
// Writing the marker is best-effort — it runs right after a storage
// failure — so the warning dlnode prints on StoreErrors stays
// load-bearing as the fallback signal.
func (r *Replica) storeFail() {
	r.storeBroken = true
	r.Stats.StoreErrors++
	r.tel.Emit(telemetry.Event{Kind: telemetry.StoreError})
	_ = r.st.MarkUnsafeRestart() // best effort, see above
}

// recordSyncPoint builds the canonical state-sync manifest at a cadence
// boundary — the engine's objective frontier plus this node's
// committed-hash memory, which the action ordering guarantees reflects
// exactly the deliveries through act.Epoch — and records it in the
// tracker for joiners to attest and pull.
func (r *Replica) recordSyncPoint(act core.SyncPointAction) {
	if r.tracker == nil {
		return
	}
	m := &store.Manifest{
		N:           len(act.Floor),
		Epoch:       act.Epoch,
		LinkedFloor: act.Floor,
		Blocks:      act.Blocks,
	}
	hashes := r.pool.CommittedSnapshot()
	if len(hashes) > statesync.SyncCommittedCap {
		hashes = hashes[len(hashes)-statesync.SyncCommittedCap:]
	}
	for _, h := range hashes {
		m.Committed = append(m.Committed, [32]byte(h))
	}
	r.tracker.Add(act.Epoch, store.EncodeManifest(m))
}

// installSync applies the replica-level half of a state-sync bootstrap:
// the committed-hash memory is seeded (so a client resubmitting a
// transaction committed during the synced-over gap is still recognized)
// and, on durable nodes, the turn's checkpoint pins the synced position
// so a crash after it recovers from there instead of re-syncing.
// Proposals need nothing here: the engine has none due until the
// post-install catch-up ends, and then requires the slots it found
// decided to be empty.
func (r *Replica) installSync(act core.SyncInstallAction) {
	r.Stats.StateSyncs++
	r.tel.Emit(telemetry.Event{Kind: telemetry.SyncInstalled, Epoch: act.Epoch})
	for _, h := range act.Committed {
		r.pool.Committed(mempool.Hash(h))
	}
	r.syncCkpt = true
}

// checkpoint snapshots the engine at the current WAL position; the store
// then compacts the WAL the snapshot subsumes and the chunks the
// engine's retention horizon has garbage-collected.
func (r *Replica) checkpoint() {
	r.sinceCkpt, r.syncCkpt = 0, false
	r.persist(func() error {
		blob := r.encodeCheckpoint(r.engine.Snapshot())
		return r.st.Checkpoint(store.Checkpoint{LSN: r.lastLSN, State: blob}, r.engine.PrunedThrough())
	})
}

func (r *Replica) onDeliver(act core.DeliverAction, hashes []mempool.Hash) {
	now := r.ctx.Now()
	for _, h := range hashes {
		r.pool.Committed(h)
	}
	r.Stats.DeliveredTxs += int64(len(act.Txs))
	r.Stats.DeliveredPayload += int64(act.Payload)
	kind := telemetry.BlockDelivered
	if act.Linked {
		r.Stats.LinkedBlocks++
		kind = telemetry.BlockDeliveredLinked
	} else {
		r.Stats.BADeliveries++
	}
	r.tel.Emit(telemetry.Event{Kind: kind, At: now, Epoch: act.Epoch, Peer: int32(act.Proposer), Arg: int64(act.Payload)}, act.Txs...)
	for _, tx := range act.Txs {
		meta, err := workload.Parse(tx)
		if err != nil {
			continue
		}
		lat := now - meta.Submitted
		if lat < 0 {
			lat = 0
		}
		r.Stats.LatAll.Add(lat)
		r.tel.latAll.Observe(int64(lat))
		if meta.Origin == r.self {
			r.Stats.LatLocal.Add(lat)
			r.tel.latLocal.Observe(int64(lat))
		}
	}
	if r.OnDeliver != nil {
		r.OnDeliver(Delivery{
			At: now, Epoch: act.Epoch, Proposer: act.Proposer,
			Txs: act.Txs, Payload: act.Payload, Linked: act.Linked,
			TxHashes: hashes, Telemetry: r.params.Telemetry,
		})
	}
}

// tryPropose asks the engine whether a proposal is due and, when it is
// and the rate-control rules allow, proposes, returning the actions.
func (r *Replica) tryPropose() []core.Action {
	due, empty := r.engine.ProposalDue()
	if !due {
		return nil
	}
	if empty {
		// DL-Coupled lag rule or a slot the cluster already decided: the
		// block goes at once and empty (and reports no trigger).
		return r.propose(nil, 0)
	}
	if r.params.FixedBlockBytes > 0 {
		if r.pool.PendingBytes() >= r.params.FixedBlockBytes {
			return r.propose(r.pool.PopBatch(r.params.FixedBlockBytes), telemetry.TriggerBytes)
		}
		return nil
	}
	now := r.ctx.Now()
	at := r.lastProposal + r.params.batchDelay()
	switch {
	case r.pool.PendingBytes() >= r.params.batchBytes():
		return r.propose(r.pool.PopBatch(0), telemetry.TriggerBytes)
	case r.engine.EpochOpened():
		// Another proposer has opened the epoch: it decides on that
		// proposer's schedule whether or not this node's batch is full,
		// so the batch goes with it, whatever its size.
		return r.propose(r.pool.PopBatch(0), telemetry.TriggerOpened)
	case r.idle():
		return r.propose(r.pool.PopBatch(0), telemetry.TriggerIdle)
	case now >= at:
		return r.propose(r.pool.PopBatch(0), telemetry.TriggerTimer)
	}
	// Not due yet: arm the delay timer once.
	if !r.timerArmed {
		r.timerArmed = true
		r.ctx.After(at-now, func() {
			r.timerArmed = false
			r.apply(nil)
		})
	}
	return nil
}

// idle reports whether the pending transactions go at once because the
// node was idle. An idle spell starts when the batching clock, run from
// the last transaction-carrying proposal, had already run out before the
// oldest pending transaction arrived; it releases the node's next two
// transaction-carrying proposals, whatever triggers them.
func (r *Replica) idle() bool {
	if r.pool.Len() == 0 {
		return false
	}
	if r.idleShots == 0 && !r.idleRead {
		r.idleRead = true
		if at, ok := r.pool.OldestAt(); ok && at >= r.lastTxProposal+r.params.batchDelay() {
			r.idleShots = 2
		}
	}
	return r.idleShots > 0
}

// propose disperses the due block with txs — trigger, one of telemetry's
// Trigger* values, says what released them — and returns the actions.
func (r *Replica) propose(txs [][]byte, trigger int64) []core.Action {
	r.lastProposal = r.ctx.Now()
	r.idleRead = false
	if len(txs) > 0 {
		r.lastTxProposal = r.lastProposal
		if r.idleShots > 0 {
			r.idleShots--
		}
	}
	r.mempoolChanged()
	// apply persists (and syncs) the returned ProposalMadeAction before
	// any chunk reaches the wire: a node that crashes mid-dispersal
	// re-disperses the identical block instead of equivocating.
	actions, err := r.engine.Propose(txs)
	if err != nil {
		// Propose is only called when ProposalDue allows it, so this
		// indicates a bug; surface it loudly in tests via panic.
		panic("replica: " + err.Error())
	}
	if len(txs) > 0 {
		for _, a := range actions {
			if act, ok := a.(core.ProposalMadeAction); ok {
				r.tel.Emit(telemetry.Event{Kind: telemetry.TxProposed, At: r.lastProposal, Epoch: act.Epoch, Peer: int32(r.self), Arg: trigger}, txs...)
				break
			}
		}
	}
	r.updateQueueGauges(txs)
	return actions
}

// updateQueueGauges refreshes the dl_queue_* backlog family. Proposal
// cadence (~10 Hz under load) keeps the O(clients + epochs held) scans
// off the per-submission path.
func (r *Replica) updateQueueGauges(proposal [][]byte) {
	if r.params.Telemetry == nil {
		return
	}
	front := r.pool.FrontLen()
	r.tel.qFront.Set(int64(front))
	r.tel.qClients.Set(int64(r.pool.Len() - front))
	age := int64(0)
	if at, ok := r.pool.OldestAt(); ok {
		age = int64((r.lastProposal - at) / time.Millisecond)
	}
	r.tel.qOldestAgeMs.Set(age)
	target := r.params.batchBytes()
	if r.params.FixedBlockBytes > 0 {
		target = r.params.FixedBlockBytes
	}
	bytes := 0
	for _, tx := range proposal {
		bytes += len(tx)
	}
	r.tel.qProposalFill.Set(int64(bytes) * 100 / int64(target))
	r.tel.qRetrieval.Set(int64(r.engine.RetrievalsInflight()))
	r.tel.qBA.Set(int64(r.engine.BAInflight()))
}
