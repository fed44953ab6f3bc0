package gateway

import (
	"sync"
	"time"

	"dledger/internal/mempool"
	"dledger/internal/merkle"
	"dledger/internal/replica"
	"dledger/internal/telemetry"
)

// Status classifies a submission receipt.
type Status uint8

// Receipt statuses. Exactly one is returned per submission, immediately.
const (
	// StatusAccepted: the transaction entered the mempool; a Commit will
	// follow on delivery.
	StatusAccepted Status = iota
	// StatusDuplicatePending: identical content is already queued or in
	// flight here; the original's Commit covers this submission too.
	StatusDuplicatePending
	// StatusDuplicateCommitted: identical content already committed —
	// the idempotent-resubmission case. The Commit proof is re-streamed
	// to the submitter when the serving node still holds it.
	StatusDuplicateCommitted
	// StatusOverCapacity: the mempool byte budget is exhausted; retry
	// after the receipt's RetryAfter hint.
	StatusOverCapacity
	// StatusOversize: the transaction exceeds the per-transaction cap.
	StatusOversize
	// StatusInvalid: structurally unacceptable (empty).
	StatusInvalid
	// StatusRateLimited: the client exhausted its per-client admission
	// rate budget (Options.RatePerClient); retry after the receipt's
	// RetryAfter hint. Unlike StatusOverCapacity — a statement about the
	// whole node — this one is about the submitting client alone: one
	// flooder hits it long before it can exhaust the shared byte budget.
	StatusRateLimited
)

// Accepted reports whether the submission entered (or already passed
// through) the log: accepted and both duplicate statuses all mean the
// content is, or will be, committed exactly once.
func (s Status) Accepted() bool {
	return s == StatusAccepted || s == StatusDuplicatePending || s == StatusDuplicateCommitted
}

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusAccepted:
		return "accepted"
	case StatusDuplicatePending:
		return "duplicate-pending"
	case StatusDuplicateCommitted:
		return "duplicate-committed"
	case StatusOverCapacity:
		return "over-capacity"
	case StatusOversize:
		return "oversize"
	case StatusInvalid:
		return "invalid"
	case StatusRateLimited:
		return "rate-limited"
	default:
		return "unknown"
	}
}

// Receipt is the immediate, synchronous answer to one submission.
type Receipt struct {
	ReqID  uint64
	Status Status
	TxHash mempool.Hash
	// RetryAfter hints when an over-capacity submitter should try again.
	RetryAfter time.Duration
}

// Counters are the hub's per-cause statistics (the public API re-exports
// them as dispersedledger.GatewayStats).
type Counters struct {
	// Accepted counts accepted gateway submissions.
	Accepted int64
	// RejectedDuplicate counts duplicate submissions (already pending or
	// already committed) — the idempotent-retry path, not an error.
	RejectedDuplicate int64
	// RejectedOverCapacity counts submissions rejected because the
	// mempool byte budget was exhausted (clients got retry-after hints).
	RejectedOverCapacity int64
	// RejectedOversize and RejectedInvalid count per-transaction cap and
	// malformed-submission rejections.
	RejectedOversize int64
	RejectedInvalid  int64
	// RejectedRateLimited counts submissions refused by the per-client
	// admission token bucket (Options.RatePerClient).
	RejectedRateLimited int64
	// Commits counts committed transactions indexed by the hub;
	// CommitsStreamed those pushed to a live subscription, and
	// CommitsDropped those lost to a full subscriber buffer (the client
	// recovers by resubmitting: duplicate-committed re-streams the proof).
	Commits         int64
	CommitsStreamed int64
	CommitsDropped  int64
}

// Rejected returns the total rejections across causes.
func (c Counters) Rejected() int64 {
	return c.RejectedDuplicate + c.RejectedOverCapacity + c.RejectedOversize +
		c.RejectedInvalid + c.RejectedRateLimited
}

// Node is the consensus node a hub fronts: Exec runs a function on the
// node's event loop (where the replica may be touched) and waits for it.
// The replica must run with replica.Params.ClientDedup: the hub's
// admission and proofs use its content hashes.
// A live node adapts transport.TCPNode.Inspect to it; the emulated
// harness runs single-threaded and execs inline.
type Node interface {
	Exec(fn func(*replica.Replica))
}

// Options tunes a Hub.
type Options struct {
	// N and F describe the cluster, echoed to clients at handshake.
	N, F int
	// RetryAfter is the backpressure hint attached to over-capacity
	// rejections (default 250 ms, roughly two batching delays).
	RetryAfter time.Duration
	// RatePerClient, when positive, rate-limits admission per client to
	// this many bytes/second (token bucket holding rateBurstSeconds of
	// it): a flooder is rejected with StatusRateLimited at the hub —
	// before its bytes ever contend for the shared mempool budget — so
	// admission fairness matches the mempool's round-robin dequeue
	// fairness. Zero disables the limit.
	RatePerClient float64
	// Telemetry, when set, exposes the hub's admission counters and
	// queue-depth gauges in the node's metrics registry.
	Telemetry *telemetry.Metrics
	// Now is the clock the rate limiter meters against; the emulated
	// harness injects simulated time. Defaults to wall time.
	Now func() time.Duration
}

// maxTxBytes caps one transaction (1 MiB); clients learn it from the
// Welcome.
const maxTxBytes = 1 << 20

// proofTxs bounds the commit-proof index by indexed transactions, each
// block counting as at least one, so its memory does not grow with
// transactions per block: past it whole blocks are evicted, oldest
// first. Older commits still reject duplicates — the mempool's committed
// memory is the authority — but can no longer re-stream a proof.
const proofTxs = 1 << 18

// rateBurstSeconds sizes the admission token bucket: it holds this many
// seconds of Options.RatePerClient.
const rateBurstSeconds = 4

func (o Options) retryAfter() time.Duration {
	if o.RetryAfter == 0 {
		return 250 * time.Millisecond
	}
	return o.RetryAfter
}

// blockID names a log slot.
type blockID struct {
	epoch    uint64
	proposer int
}

// Sub is one client's commit subscription. C drops (never blocks) when
// the buffer fills: the consensus loop must not wait on a slow client.
type Sub struct {
	Client uint64
	C      chan Commit
	closed bool
}

// Hub is the gateway brain of one node. All methods are safe for
// concurrent use; OnDeliver is additionally safe to call from the node's
// consensus loop (it never blocks).
type Hub struct {
	node Node
	opts Options
	now  func() time.Duration

	mu       sync.Mutex
	blocks   map[blockID]*proofBlock
	order    []blockID // FIFO eviction of proof trees
	held     int       // the blocks' charge against proofTxs
	index    map[mempool.Hash]txRef
	interest map[mempool.Hash][]uint64
	subs     map[uint64][]*Sub
	buckets  map[uint64]*bucket
	// counts holds the counted gateway kinds (GatewayAccepted through
	// GatewayDropped), indexed from the first.
	counts [telemetry.GatewayDropped - telemetry.GatewayAccepted + 1]int64
}

// note counts n occurrences of a gateway fact: in the hub's own
// Counters, which work without telemetry, and as one telemetry event.
// Callers hold h.mu.
func (h *Hub) note(k telemetry.Kind, n int) {
	h.counts[k-telemetry.GatewayAccepted] += int64(n)
	h.opts.Telemetry.Emit(telemetry.Event{Kind: k, Arg: int64(n)})
}

// admissionKind maps a receipt status to the gateway fact it counts as.
var admissionKind = [...]telemetry.Kind{
	StatusAccepted:           telemetry.GatewayAccepted,
	StatusDuplicatePending:   telemetry.GatewayDuplicate,
	StatusDuplicateCommitted: telemetry.GatewayDuplicate,
	StatusOverCapacity:       telemetry.GatewayOverCapacity,
	StatusOversize:           telemetry.GatewayOversize,
	StatusInvalid:            telemetry.GatewayInvalid,
	StatusRateLimited:        telemetry.GatewayRateLimited,
}

// bucket is one client's admission token bucket.
type bucket struct {
	tokens float64
	last   time.Duration
}

// maxRateBuckets bounds the bucket map; past it the map resets (a
// mass-client flood cannot grow hub memory unboundedly, at the cost of
// refreshing every bucket to a full burst once per epoch of churn).
const maxRateBuckets = 1 << 16

// proofBlock caches one delivered block's ordered tx hashes; the proof
// tree is built on the first proof request and kept until eviction.
type proofBlock struct {
	hashes []mempool.Hash
	tree   *merkle.Tree
}

type txRef struct {
	id    blockID
	index int
}

// NewHub creates the hub fronting node.
func NewHub(node Node, opts Options) *Hub {
	now := opts.Now
	if now == nil {
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	opts.Telemetry.EnableGateway()
	return &Hub{
		node:     node,
		opts:     opts,
		now:      now,
		blocks:   map[blockID]*proofBlock{},
		index:    map[mempool.Hash]txRef{},
		interest: map[mempool.Hash][]uint64{},
		subs:     map[uint64][]*Sub{},
		buckets:  map[uint64]*bucket{},
	}
}

// takeTokens runs the per-client admission token bucket: it consumes n
// bytes of budget, or returns how long the client should wait. Zero
// means admitted.
func (h *Hub) takeTokens(client uint64, n int) time.Duration {
	now := h.now()
	burst := rateBurstSeconds * h.opts.RatePerClient
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.buckets[client]
	if b == nil {
		if len(h.buckets) >= maxRateBuckets {
			// Shed idle buckets but carry debtors over: the reset must
			// not be a way for a client to erase what it owes by
			// helping churn the map full.
			kept := map[uint64]*bucket{}
			for id, ob := range h.buckets {
				if ob.tokens < 0 {
					kept[id] = ob
				}
			}
			h.buckets = kept
		}
		b = &bucket{tokens: burst, last: now}
		h.buckets[client] = b
	}
	if now > b.last {
		// Monotonic guard: Now() is sampled outside the lock, so two
		// racing submissions can present timestamps out of order; a
		// negative delta must not subtract tokens.
		b.tokens += h.opts.RatePerClient * (now - b.last).Seconds()
		if b.tokens > burst {
			b.tokens = burst
		}
		b.last = now
	}
	// A transaction larger than the whole burst is admitted once the
	// bucket is full and paid off as debt (tokens go negative) — the
	// long-term rate still holds, and without the debt path such a
	// transaction could never be admitted at all: the client would
	// livelock on retry-after hints that can never come true.
	need := float64(n)
	if need > burst {
		need = burst
	}
	if b.tokens >= need {
		b.tokens -= float64(n)
		return 0
	}
	wait := time.Duration((need - b.tokens) / h.opts.RatePerClient * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait
}

// N and F report the cluster shape (for the protocol handshake).
func (h *Hub) N() int { return h.opts.N }

// F reports the fault tolerance.
func (h *Hub) F() int { return h.opts.F }

// Counters snapshots the per-cause statistics.
func (h *Hub) Counters() Counters {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := func(k telemetry.Kind) int64 { return h.counts[k-telemetry.GatewayAccepted] }
	return Counters{
		Accepted:             n(telemetry.GatewayAccepted),
		RejectedDuplicate:    n(telemetry.GatewayDuplicate),
		RejectedOverCapacity: n(telemetry.GatewayOverCapacity),
		RejectedOversize:     n(telemetry.GatewayOversize),
		RejectedInvalid:      n(telemetry.GatewayInvalid),
		RejectedRateLimited:  n(telemetry.GatewayRateLimited),
		Commits:              n(telemetry.GatewayCommits),
		CommitsStreamed:      n(telemetry.GatewayStreamed),
		CommitsDropped:       n(telemetry.GatewayDropped),
	}
}

// Subscribe opens a commit subscription for a client. Commits of the
// client's accepted transactions are pushed to the returned channel
// (dropped, and counted, if the buffer fills). Close the subscription
// with Unsubscribe.
func (h *Hub) Subscribe(client uint64, buffer int) *Sub {
	if buffer <= 0 {
		buffer = 1024
	}
	s := &Sub{Client: client, C: make(chan Commit, buffer)}
	h.mu.Lock()
	h.subs[client] = append(h.subs[client], s)
	h.mu.Unlock()
	h.opts.Telemetry.Emit(telemetry.Event{Kind: telemetry.GatewaySubscriptions, Arg: 1})
	return s
}

// Unsubscribe closes a subscription; its channel is closed.
func (h *Hub) Unsubscribe(s *Sub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	list := h.subs[s.Client]
	kept := list[:0]
	for _, x := range list {
		if x != s {
			kept = append(kept, x)
		}
	}
	if len(kept) == 0 {
		delete(h.subs, s.Client)
	} else {
		h.subs[s.Client] = kept
	}
	h.opts.Telemetry.Emit(telemetry.Event{Kind: telemetry.GatewaySubscriptions, Arg: -1})
	close(s.C)
}

// push streams one commit to every live subscription of a client.
// Callers hold h.mu.
func (h *Hub) push(client uint64, c Commit) {
	for _, s := range h.subs[client] {
		select {
		case s.C <- c:
			h.note(telemetry.GatewayStreamed, 1)
		default:
			h.note(telemetry.GatewayDropped, 1)
		}
	}
}

// refundTokens returns rate budget for a submission that admitted
// nothing (duplicates, over-capacity): only bytes that actually enter
// the mempool should count against the client's rate, or an honest
// client's reconnect-resubmission burst would exhaust its own bucket.
func (h *Hub) refundTokens(client uint64, n int) {
	if h.opts.RatePerClient <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if b := h.buckets[client]; b != nil {
		b.tokens += float64(n)
		if burst := rateBurstSeconds * h.opts.RatePerClient; b.tokens > burst {
			b.tokens = burst
		}
	}
}

// Submit runs admission for one client transaction and returns its
// receipt. Accepted transactions are remembered so the client's
// subscription receives the Commit on delivery; duplicate-committed
// resubmissions get their proof re-streamed immediately.
func (h *Hub) Submit(client uint64, reqID uint64, tx []byte) Receipt {
	t0 := h.now()
	rc := Receipt{ReqID: reqID}
	if len(tx) == 0 {
		rc.Status = StatusInvalid
		h.count(rc.Status)
		return rc
	}
	if len(tx) > maxTxBytes {
		rc.Status = StatusOversize
		h.count(rc.Status)
		return rc
	}
	hash := mempool.HashTx(tx)
	rc.TxHash = hash

	// Fast path: already committed and still proof-resident. This runs
	// BEFORE the rate limiter: re-streaming a proof is how a client
	// recovers a lost commit (dlclient resubmits on reconnect), costs
	// no mempool admission, and must neither be refused as rate-limited
	// nor drain the client's admission budget.
	h.mu.Lock()
	if ref, ok := h.index[hash]; ok {
		rc.Status = StatusDuplicateCommitted
		h.note(telemetry.GatewayDuplicate, 1)
		if c, ok := h.commitLocked(ref); ok {
			h.push(client, c)
		}
		h.mu.Unlock()
		return rc
	}
	h.mu.Unlock()

	if h.opts.RatePerClient > 0 {
		// Admission-time fairness: the limit applies before the
		// transaction can contend for the shared mempool byte budget,
		// so a flooder cannot starve other clients admission-first and
		// leave fair dequeue with nothing to arbitrate.
		if wait := h.takeTokens(client, len(tx)); wait > 0 {
			rc.Status = StatusRateLimited
			rc.RetryAfter = wait
			h.count(rc.Status)
			return rc
		}
	}
	h.mu.Lock()
	// Register interest before the submission reaches the replica: the
	// consensus loop may deliver the block (and call OnDeliver) between
	// SubmitFrom returning and this goroutine reacquiring the lock.
	h.interest[hash] = addClient(h.interest[hash], client)
	h.mu.Unlock()

	// One captured variable: each is a heap allocation per submission.
	var res struct {
		err error
		tel *telemetry.Metrics
	}
	h.node.Exec(func(r *replica.Replica) {
		res.err, res.tel = r.SubmitFrom(client, tx), r.Telemetry()
	})

	switch res.err {
	case nil:
		rc.Status = StatusAccepted
		// The journey exists now (SubmitFrom ran synchronously via
		// Exec); attach the hub-measured admission duration. It goes to
		// the bundle of the replica incarnation that took the
		// transaction (a hub can outlive one), and as a duration, never
		// a timestamp: the hub clock and the replica's Context clock are
		// different domains.
		res.tel.Emit(telemetry.Event{Kind: telemetry.TxAdmitted, Arg: int64(h.now() - t0)}, hash[:])
	case mempool.ErrDuplicatePending:
		// Keep the interest registration: the original submission's
		// commit satisfies this client too (it may be the same client
		// retrying over a fresh connection).
		rc.Status = StatusDuplicatePending
		h.refundTokens(client, len(tx))
	case mempool.ErrDuplicateCommitted:
		rc.Status = StatusDuplicateCommitted
		h.refundTokens(client, len(tx))
		h.mu.Lock()
		h.dropInterest(hash, client)
		if ref, ok := h.index[hash]; ok {
			if c, ok := h.commitLocked(ref); ok {
				h.push(client, c)
			}
		}
		h.mu.Unlock()
	case mempool.ErrOverCapacity:
		rc.Status = StatusOverCapacity
		rc.RetryAfter = h.opts.retryAfter()
		h.refundTokens(client, len(tx))
		h.mu.Lock()
		h.dropInterest(hash, client)
		h.mu.Unlock()
	default:
		rc.Status = StatusInvalid
		h.mu.Lock()
		h.dropInterest(hash, client)
		h.mu.Unlock()
	}
	h.count(rc.Status)
	return rc
}

func (h *Hub) count(s Status) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.note(admissionKind[s], 1)
}

func addClient(list []uint64, client uint64) []uint64 {
	for _, c := range list {
		if c == client {
			return list
		}
	}
	return append(list, client)
}

func (h *Hub) dropInterest(hash mempool.Hash, client uint64) {
	list := h.interest[hash]
	kept := list[:0]
	for _, c := range list {
		if c != client {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		delete(h.interest, hash)
	} else {
		h.interest[hash] = kept
	}
}

// OnDeliver ingests one delivered block: its transactions are indexed
// for duplicate-committed proofs, and every interested client's
// subscription receives the Commit. Called from the consensus loop; it
// never blocks (subscription pushes drop on full buffers).
func (h *Hub) OnDeliver(d replica.Delivery) {
	if len(d.TxHashes) == 0 {
		return
	}
	// Proof-stream ingest duration for the block's sampled journeys;
	// lands before the epoch finalizes them (the replica calls OnDeliver
	// before its EpochDeliveredAction).
	t0 := h.now()
	h.ingest(d.Epoch, d.Proposer, d.TxHashes)
	d.Telemetry.Emit(telemetry.Event{Kind: telemetry.TxProofIngested, Epoch: d.Epoch, Peer: int32(d.Proposer), Arg: int64(h.now() - t0)})
}

// Seed installs blocks recovered from the WAL (replica.RecoveredBlocks)
// so commit proofs for pre-crash deliveries survive a restart and
// post-restart resubmissions verify against the recovered log.
func (h *Hub) Seed(blocks []replica.RecoveredBlock) {
	for _, b := range blocks {
		h.ingest(b.Epoch, b.Proposer, b.TxHashes)
	}
}

func (h *Hub) ingest(epoch uint64, proposer int, hashes []mempool.Hash) {
	if len(hashes) == 0 {
		return
	}
	id := blockID{epoch, proposer}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.blocks[id]; ok {
		return
	}
	h.blocks[id] = &proofBlock{hashes: hashes}
	h.order = append(h.order, id)
	h.held += len(hashes)
	h.note(telemetry.GatewayCommits, len(hashes))
	for i, hash := range hashes {
		h.index[hash] = txRef{id: id, index: i}
		if clients := h.interest[hash]; len(clients) != 0 {
			c, ok := h.commitLocked(txRef{id: id, index: i})
			if ok {
				for _, cl := range clients {
					h.push(cl, c)
				}
			}
			delete(h.interest, hash)
		}
	}
	for h.held > proofTxs {
		old := h.order[0]
		h.order = h.order[1:]
		b := h.blocks[old]
		h.held -= len(b.hashes)
		for _, hash := range b.hashes {
			if h.index[hash].id == old {
				delete(h.index, hash)
			}
		}
		delete(h.blocks, old)
	}
	h.opts.Telemetry.Emit(telemetry.Event{Kind: telemetry.GatewayProofBlocks, Arg: int64(len(h.blocks))})
}

// commitLocked builds the Commit for an indexed transaction. Callers
// hold h.mu. The block's proof tree is built on first use and cached.
func (h *Hub) commitLocked(ref txRef) (Commit, bool) {
	b := h.blocks[ref.id]
	if b == nil || ref.index >= len(b.hashes) {
		return Commit{}, false
	}
	if b.tree == nil {
		b.tree = txTree(b.hashes)
	}
	proof, err := b.tree.Prove(ref.index)
	if err != nil {
		return Commit{}, false
	}
	return Commit{
		TxHash:   b.hashes[ref.index],
		Epoch:    ref.id.epoch,
		Proposer: ref.id.proposer,
		Index:    ref.index,
		Count:    len(b.hashes),
		Root:     b.tree.Root(),
		Path:     proof.Path,
	}, true
}
