// Package mempool implements the per-node transaction input queue of
// Fig 5, rewritten as the admission-controlled buffer behind the client
// gateway: clients submit transactions to their node, the node batches
// them into block proposals, and — in HoneyBadger mode — transactions of
// dropped blocks return to the front of the queue for re-proposal.
//
// Three properties distinguish it from a plain FIFO:
//
//   - Per-client fairness. Transactions are queued per client and
//     dequeued round-robin, one transaction per client per turn, so a
//     single chatty client cannot starve the others out of a block. The
//     round-robin order is deterministic (activation order), which keeps
//     emulated runs replayable.
//   - Content-hash deduplication. With Options.Dedup, a transaction
//     whose SHA-256 is already queued, in flight in a proposed block, or
//     recently committed is rejected instead of queued again — client
//     retries and post-crash resubmissions become idempotent. The
//     committed-hash memory is bounded (committedCap hashes) and is
//     restored from the WAL/checkpoint by the replica on recovery.
//   - Byte-budget admission. With Options.MaxBytes, a submission that
//     would push the queued backlog past the budget is rejected with
//     ErrOverCapacity rather than queued unboundedly; the gateway turns
//     that into a retry-after hint at the protocol edge.
//
// The pool is not safe for concurrent use; the replica event loop owns
// it. The dedup index is sharded by hash prefix, which bounds the
// per-map rehash cost as the committed history grows.
package mempool

import (
	"crypto/sha256"
	"errors"
	"time"
)

// Hash is a transaction content hash (SHA-256).
type Hash [32]byte

// HashTx returns the content hash used for deduplication.
func HashTx(tx []byte) Hash { return sha256.Sum256(tx) }

// LocalClient is the client id of transactions submitted through the
// node's own in-process Submit path (as opposed to a gateway client).
const LocalClient uint64 = 0

// Admission errors returned by PushFrom.
var (
	// ErrDuplicatePending rejects a transaction already queued or in
	// flight in a proposed-but-not-yet-committed block.
	ErrDuplicatePending = errors.New("mempool: duplicate of a pending transaction")
	// ErrDuplicateCommitted rejects a transaction that has already been
	// committed (within the bounded committed-hash memory).
	ErrDuplicateCommitted = errors.New("mempool: transaction already committed")
	// ErrOverCapacity rejects a transaction that would exceed the byte
	// budget; the caller should retry after the backlog drains.
	ErrOverCapacity = errors.New("mempool: byte budget exhausted")
)

// Options configures a pool.
type Options struct {
	// MaxBytes caps the queued transaction bytes; 0 means unbounded
	// (the seed behaviour, right for benchmarks and trusted callers).
	MaxBytes int
	// Dedup enables content-hash deduplication of submissions.
	Dedup bool
}

// committedCap bounds the committed-hash memory (FIFO eviction): 65536
// hashes, 2 MB.
const committedCap = 1 << 16

// dedupShards is the shard count of the hash index (by hash prefix).
const dedupShards = 16

// hashSet is a sharded hash index.
type hashSet struct {
	shards [dedupShards]map[Hash]struct{}
}

func newHashSet() *hashSet {
	s := &hashSet{}
	for i := range s.shards {
		s.shards[i] = map[Hash]struct{}{}
	}
	return s
}

func (s *hashSet) has(h Hash) bool {
	_, ok := s.shards[h[0]%dedupShards][h]
	return ok
}
func (s *hashSet) add(h Hash) { s.shards[h[0]%dedupShards][h] = struct{}{} }
func (s *hashSet) del(h Hash) { delete(s.shards[h[0]%dedupShards], h) }

// clientQueue is one client's FIFO shard. at parallels txs with each
// transaction's enqueue time (the caller's clock; zero when enqueued
// through the timestamp-less entry points).
type clientQueue struct {
	txs [][]byte
	at  []time.Duration
}

// Pool is the sharded transaction queue. It is not safe for concurrent
// use; the replica event loop owns it.
type Pool struct {
	opts Options

	// front holds re-proposal batches (PushFrontAt), served before any
	// client queue to preserve the dropped block's order; frontAt
	// parallels it with enqueue times.
	front   [][]byte
	frontAt []time.Duration
	// clients maps client id -> queue shard; ring lists the clients with
	// queued transactions in deterministic activation order, and cursor
	// is the round-robin position.
	clients map[uint64]*clientQueue
	ring    []uint64
	cursor  int

	bytes int
	count int

	// pending indexes hashes that are queued or in flight (popped into a
	// proposal, not yet committed); committed remembers recently
	// committed hashes, bounded by commitLog's FIFO eviction.
	pending   *hashSet
	committed *hashSet
	commitLog []Hash
	commitPos int // next eviction slot once commitLog is full
}

// NewWithOptions returns an empty pool with admission control.
func NewWithOptions(opts Options) *Pool {
	p := &Pool{opts: opts, clients: map[uint64]*clientQueue{}}
	if opts.Dedup {
		p.pending = newHashSet()
		p.committed = newHashSet()
	}
	return p
}

// PushFrom queues a transaction for a client, enforcing deduplication
// and the byte budget. The returned error is one of ErrDuplicatePending,
// ErrDuplicateCommitted, ErrOverCapacity, or nil on acceptance.
func (p *Pool) PushFrom(client uint64, tx []byte) error {
	return p.PushFromAt(client, tx, 0)
}

// PushFromAt is PushFrom stamping the transaction's enqueue time with
// the caller's clock, so OldestAt can report queue age.
func (p *Pool) PushFromAt(client uint64, tx []byte, now time.Duration) error {
	var h Hash
	if p.opts.Dedup {
		h = HashTx(tx)
		if p.committed.has(h) {
			return ErrDuplicateCommitted
		}
		if p.pending.has(h) {
			return ErrDuplicatePending
		}
	}
	if p.opts.MaxBytes > 0 && p.bytes+len(tx) > p.opts.MaxBytes {
		return ErrOverCapacity
	}
	if p.opts.Dedup {
		p.pending.add(h)
	}
	q := p.clients[client]
	if q == nil {
		q = &clientQueue{}
		p.clients[client] = q
	}
	if len(q.txs) == 0 {
		p.ring = append(p.ring, client)
	}
	q.txs = append(q.txs, tx)
	q.at = append(q.at, now)
	p.bytes += len(tx)
	p.count++
	return nil
}

// PushFrontAt returns a batch to the head of the queue, preserving its
// order (used when a proposed block is dropped and must be re-proposed),
// stamping its (re-)enqueue time with the caller's clock so OldestAt can
// report queue age. The batch's hashes are already pending, so no dedup
// bookkeeping moves.
func (p *Pool) PushFrontAt(batch [][]byte, now time.Duration) {
	if len(batch) == 0 {
		return
	}
	p.front = append(append(make([][]byte, 0, len(batch)+len(p.front)), batch...), p.front...)
	at := make([]time.Duration, 0, len(batch)+len(p.frontAt))
	for range batch {
		at = append(at, now)
	}
	p.frontAt = append(at, p.frontAt...)
	for _, tx := range batch {
		p.bytes += len(tx)
		p.count++
	}
}

// PopBatch removes and returns transactions until maxBytes would be
// exceeded (at least one transaction is returned if the pool is
// non-empty, so oversized transactions cannot wedge the queue); maxBytes
// <= 0 drains the whole pool. Re-proposal batches drain first in their
// original order; client queues then drain round-robin, one transaction
// per client per turn. Popped transactions stay in the pending dedup
// index until Committed observes them.
func (p *Pool) PopBatch(maxBytes int) [][]byte {
	if p.count == 0 {
		return nil
	}
	var out [][]byte
	total := 0
	// take reports whether tx fits the budget; the first transaction
	// always fits (oversized transactions must not wedge the queue).
	take := func(tx []byte) bool {
		if maxBytes > 0 && len(out) > 0 && total+len(tx) > maxBytes {
			return false
		}
		out = append(out, tx)
		total += len(tx)
		p.bytes -= len(tx)
		p.count--
		return true
	}
	full := func() bool { return maxBytes > 0 && total >= maxBytes }

	for len(p.front) > 0 && !full() {
		if !take(p.front[0]) {
			return out
		}
		p.front = p.front[1:]
		p.frontAt = p.frontAt[1:]
	}
	if len(p.front) == 0 {
		p.front, p.frontAt = nil, nil
	}

	i := p.cursor
	for len(p.ring) > 0 && !full() {
		if i >= len(p.ring) {
			i = 0
		}
		q := p.clients[p.ring[i]]
		if !take(q.txs[0]) {
			break
		}
		q.txs = q.txs[1:]
		q.at = q.at[1:]
		if len(q.txs) == 0 {
			q.txs, q.at = nil, nil
			p.ring = append(p.ring[:i], p.ring[i+1:]...)
			// i now indexes the next client; do not advance.
		} else {
			i++
		}
	}
	if len(p.ring) == 0 {
		i = 0
	}
	p.cursor = i
	return out
}

// MarkPending records a hash as in flight without queueing any bytes.
// Recovery uses it for transactions inside a crashed node's re-dispersed
// proposals: they are not committed yet, but resubmitting them would
// commit them twice once the re-dispersal lands. No-op without Dedup.
func (p *Pool) MarkPending(h Hash) {
	if p.opts.Dedup && !p.committed.has(h) {
		p.pending.add(h)
	}
}

// Committed records a committed transaction hash: its pending entry is
// released and the hash enters the bounded committed memory, so a later
// resubmission of the same content is rejected as already committed.
// No-op without Options.Dedup.
func (p *Pool) Committed(h Hash) {
	if !p.opts.Dedup {
		return
	}
	p.pending.del(h)
	if p.committed.has(h) {
		return
	}
	if len(p.commitLog) < committedCap {
		p.commitLog = append(p.commitLog, h)
	} else {
		p.committed.del(p.commitLog[p.commitPos])
		p.commitLog[p.commitPos] = h
		p.commitPos = (p.commitPos + 1) % committedCap
	}
	p.committed.add(h)
}

// CommittedSnapshot returns the committed-hash memory oldest-first, for
// checkpointing. Nil without Options.Dedup.
func (p *Pool) CommittedSnapshot() []Hash {
	if !p.opts.Dedup || len(p.commitLog) == 0 {
		return nil
	}
	out := make([]Hash, 0, len(p.commitLog))
	out = append(out, p.commitLog[p.commitPos:]...)
	out = append(out, p.commitLog[:p.commitPos]...)
	return out
}

// Len returns the number of queued transactions.
func (p *Pool) Len() int { return p.count }

// PendingBytes returns the total queued transaction bytes.
func (p *Pool) PendingBytes() int { return p.bytes }

// FrontLen returns the number of queued re-proposal transactions (the
// PushFrontAt shard, served before any client queue).
func (p *Pool) FrontLen() int { return len(p.front) }

// OldestAt returns the earliest enqueue time among the transactions at
// the head of each shard, and whether any timestamped transaction is
// queued. Cost is O(clients); the replica samples it at proposal
// cadence, not per submission.
func (p *Pool) OldestAt() (time.Duration, bool) {
	oldest, ok := time.Duration(0), false
	consider := func(at time.Duration) {
		if at == 0 {
			return // enqueued through a timestamp-less entry point
		}
		if !ok || at < oldest {
			oldest, ok = at, true
		}
	}
	if len(p.frontAt) > 0 {
		consider(p.frontAt[0])
	}
	for _, c := range p.ring {
		if q := p.clients[c]; q != nil && len(q.at) > 0 {
			consider(q.at[0])
		}
	}
	return oldest, ok
}
