// Package store is the durable-storage subsystem backing restartable
// DispersedLedger nodes. It persists the three kinds of state a node must
// not forget across a crash:
//
//   - a write-ahead log (WAL) of protocol progress — proposals made,
//     epochs decided, blocks delivered, epochs completed — whose replay
//     restores the node's position in the global log,
//   - a chunk store of the AVID fragments this node holds on behalf of
//     other proposers, which is what lets a restarted node keep its
//     availability promise and serve retrieval requests for pre-crash
//     epochs, and
//   - periodic checkpoints: an opaque snapshot of the engine's durable
//     state plus the WAL position it reflects, which bounds replay time
//     and enables WAL compaction.
//
// One backend implements the Store interface: FileStore persists to a
// directory of CRC-checked, fsync-batched log segments. dlnode keeps its
// datadir in one, and the emulated harness gives each durable node one
// in a temporary directory: a crash closes it, a restart opens the same
// directory again. A node that wants no durability has no store at all:
// a nil Store is how every layer above spells "none", and such a node
// pays no persistence cost.
//
// Recovery model (also see DESIGN.md): the WAL records protocol
// *outcomes* (decisions, deliveries) and, since vote persistence, every
// outbound binary-agreement vote (RecVote) — group-committed with its
// step before it reaches the wire. A restarted node therefore re-sends
// exactly its pre-crash votes and never contradicts them: restarts no
// longer consume fault budget. Delivered state is never forgotten or
// contradicted: replay is deterministic and the post-restart delivery
// sequence is a consistent continuation of the pre-crash one. Logs
// without vote records (pre-vote-persistence datadirs) replay unchanged,
// with the old fault-budget caveat applying to their first restart.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dledger/internal/merkle"
	"dledger/internal/wire"
)

// RecordType distinguishes WAL record variants.
type RecordType uint8

// WAL record types.
const (
	// RecProposed marks that this node dispersed a block into Epoch and
	// carries the encoded block. Written (and synced) before the chunks
	// reach the network, so a restarted node never equivocates by
	// re-proposing into an epoch — it re-disperses the identical block
	// instead, which also keeps a cluster-wide restart live (without the
	// block bytes, an epoch whose every dispersal died with its proposer
	// could never decide).
	RecProposed RecordType = iota + 1
	// RecDecided marks that Epoch's dispersal phase decided with
	// committed set S.
	RecDecided
	// RecBlock marks the delivery of one block, in delivery order. V is
	// the block's observed V array (kept for later linking computations);
	// TxCount/Payload replay the statistics counters. TxHashes (written
	// by every deployed node: replica.Params.ClientDedup) are the block's
	// transaction content hashes in block order: recovery rebuilds the
	// dedup index and the commit-proof trees from them, so a client
	// resubmitting after a crash-restart is still recognized. The field
	// is optional on the wire — records without it decode with nil
	// hashes, so pre-gateway datadirs stay readable.
	RecBlock
	// RecEpochDone marks that Epoch is fully delivered; Floor is the
	// linked-delivery floor after the epoch, per node.
	RecEpochDone
	// RecVote records one binary-agreement vote-journal entry for the
	// instance (Epoch, Proposer): VoteKind (a ba.VoteKind), Round and
	// Value. Written — and group-committed with the rest of the step —
	// before the vote reaches the wire, so a restarted node re-sends
	// exactly its pre-crash votes and can never equivocate. The type is
	// new relative to the seed format; logs without vote records replay
	// unchanged (the restart then consumes fault budget, the documented
	// pre-vote-persistence behaviour).
	RecVote
)

// Record is one WAL entry. Only the fields of the variant named by Type
// are meaningful.
type Record struct {
	Type     RecordType
	Epoch    uint64
	Proposer int        // RecBlock, RecVote
	Linked   bool       // RecBlock
	TxCount  uint32     // RecBlock
	Payload  uint32     // RecBlock
	V        []uint64   // RecBlock
	TxHashes [][32]byte // RecBlock, optional: tx content hashes in block order
	S        []int      // RecDecided
	Floor    []uint64   // RecEpochDone
	Block    []byte     // RecProposed: the encoded proposed block
	VoteKind uint8      // RecVote: the ba.VoteKind
	Round    uint32     // RecVote
	Value    bool       // RecVote
}

// ChunkRecord is one entry of a VID server's journal: an accepted
// chunk, a Ready, or a completion, which carries the agreed root and,
// when HasChunk, the chunk and its inclusion proof.
type ChunkRecord struct {
	Epoch    uint64
	Proposer int
	Kind     ChunkKind
	Root     merkle.Root
	HasChunk bool
	Data     []byte
	Proof    merkle.Proof
}

// ChunkKind is what a chunk record journals. On disk it shares one byte
// with HasChunk: 0 and 1 are a completion without and with its chunk.
type ChunkKind uint8

const (
	ChunkDone  ChunkKind = 0 // completion under Root
	ChunkGot   ChunkKind = 2 // accepted chunk: Root, Data, Proof
	ChunkReady ChunkKind = 3 // Ready(Root) said
)

// Checkpoint pairs an opaque engine snapshot with the WAL position it
// reflects: records with LSN <= LSN are subsumed by State and may be
// compacted away.
type Checkpoint struct {
	LSN   uint64
	State []byte
}

// Store is the durability interface a replica writes through; a nil
// Store means the node persists nothing. All methods are called from the
// node's single event loop; implementations need no internal ordering
// guarantees beyond that, but a closed handle must keep refusing writes
// (ErrFenced) while a successor writes the same state.
type Store interface {
	// AppendBatch appends a step's WAL records as one group and returns
	// the LSN of the last (LSNs are 1-based and increase by one per
	// record; 0 when recs is empty). Durability is deferred until Sync.
	AppendBatch(recs []Record) (uint64, error)
	// PutChunk appends one chunk record. Durable at the next Sync.
	PutChunk(c ChunkRecord) error
	// Sync makes all prior AppendBatches and PutChunks durable (group
	// commit).
	Sync() error
	// Checkpoint durably (and atomically) replaces the checkpoint, and
	// then drops what it makes redundant: WAL records with LSN <= cp.LSN
	// and chunk records for epochs <= prunedThrough (the engine's
	// RetainEpochs garbage-collection horizon). Dropping is best effort,
	// by segment. One call because the order is the contract: a WAL
	// compacted before the checkpoint that subsumes it is durable loses
	// the records to a crash in between.
	Checkpoint(cp Checkpoint, prunedThrough uint64) error
	// Recover returns the latest checkpoint (nil if none) and replays
	// every WAL record with LSN > checkpoint.LSN, in LSN order.
	Recover(fn func(lsn uint64, rec Record) error) (*Checkpoint, error)
	// Chunks iterates all resident chunk records in append order.
	Chunks(fn func(ChunkRecord) error) error
	// MarkUnsafeRestart durably flags the store as no valid restart
	// point, after a durable write failed (see ErrUnsafeRestart).
	// Best-effort by nature: it runs right after a storage failure, so
	// it may fail too — the advisory LOCK still guards the live process,
	// and the marker only closes the operator-restarts-later window.
	MarkUnsafeRestart() error
	// Close flushes and releases the store; what it held survives for
	// the next open of the same directory. Every later write through the
	// closed handle fails with ErrFenced.
	Close() error
}

// ErrFenced is returned by every write through a closed handle. After
// an in-process crash the dead incarnation's leftover timers still hold
// the handle; their writes are discarded, so the successor that reopens
// the directory recovers exactly what was written before the crash.
var ErrFenced = errors.New("store: write through a closed handle")

// ErrCorrupt reports a WAL or chunk segment damaged somewhere other than
// its tail (tail damage is expected after a crash and silently dropped).
var ErrCorrupt = errors.New("store: corrupt segment")

// ErrUnsafeRestart is returned by OpenFile when the data directory
// carries an UNSAFE_RESTART marker: a durable write failed mid-run, the
// node kept participating without persisting (availability over
// durability), and the log therefore stops short of what the node
// externalized. Restarting from it would recover to a stale position —
// and, because votes cast after the failure were never logged, could
// re-send forgotten agreement votes, consuming the cluster's fault
// budget. Recover from scratch or a peer checkpoint instead, or pass
// FileOptions.ForceRestart to accept the risk (dlnode -force-restart).
var ErrUnsafeRestart = errors.New("store: data directory is not a valid restart point")

// ----- Record encoding -----
//
// Records use the same deterministic binary style as package wire and
// decode through its Reader: type(1) epoch(8) then variant fields. Slices
// carry u16 counts; node ids are u16 (the wire format's cluster-size cap).

// AppendRecord serializes a WAL record onto buf and returns the extended
// slice.
func AppendRecord(buf []byte, r Record) []byte {
	buf = append(buf, byte(r.Type))
	buf = binary.BigEndian.AppendUint64(buf, r.Epoch)
	switch r.Type {
	case RecProposed:
		buf = wire.AppendBytes(buf, r.Block)
	case RecDecided:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.S)))
		for _, j := range r.S {
			buf = binary.BigEndian.AppendUint16(buf, uint16(j))
		}
	case RecBlock:
		buf = binary.BigEndian.AppendUint16(buf, uint16(r.Proposer))
		buf = wire.AppendBool(buf, r.Linked)
		buf = binary.BigEndian.AppendUint32(buf, r.TxCount)
		buf = binary.BigEndian.AppendUint32(buf, r.Payload)
		buf = wire.AppendU64s(buf, r.V)
		// The hash section is appended only when present, keeping the
		// encoding of hash-free records byte-identical to the seed format.
		if len(r.TxHashes) > 0 {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.TxHashes)))
			for _, h := range r.TxHashes {
				buf = append(buf, h[:]...)
			}
		}
	case RecEpochDone:
		buf = wire.AppendU64s(buf, r.Floor)
	case RecVote:
		buf = binary.BigEndian.AppendUint16(buf, uint16(r.Proposer))
		buf = append(buf, r.VoteKind)
		buf = binary.BigEndian.AppendUint32(buf, r.Round)
		buf = wire.AppendBool(buf, r.Value)
	}
	return buf
}

// DecodeRecord parses AppendRecord output.
func DecodeRecord(data []byte) (Record, error) {
	r := wire.NewReader(data)
	rec := Record{Type: RecordType(r.U8()), Epoch: r.U64()}
	switch rec.Type {
	case RecProposed:
		rec.Block = r.Bytes32()
	case RecDecided:
		rec.S = r.NodeIDs(int(r.U16()))
	case RecBlock:
		rec.Proposer, rec.Linked = int(r.U16()), r.Bool()
		rec.TxCount, rec.Payload = r.U32(), r.U32()
		rec.V = r.U64s(int(r.U16()))
		if r.Len() > 0 {
			rec.TxHashes = wire.Hashes[[32]byte](r, int(r.U32()))
		}
	case RecEpochDone:
		rec.Floor = r.U64s(int(r.U16()))
	case RecVote:
		rec.Proposer, rec.VoteKind = int(r.U16()), r.U8()
		rec.Round, rec.Value = r.U32(), r.Bool()
	default:
		return Record{}, fmt.Errorf("store: unknown record type %d", rec.Type)
	}
	if err := r.Done(); err != nil {
		return Record{}, fmt.Errorf("store: bad record: %w", err)
	}
	return rec, nil
}

// ChunkRecordSize returns EncodeChunkRecord's exact output size without
// encoding (pagination over large inventories skips by size).
func ChunkRecordSize(c ChunkRecord) int {
	return 8 + 2 + 1 + merkle.RootSize + 4 + len(c.Data) + wire.ProofSize(c.Proof)
}

// EncodeChunkRecord serializes a chunk record.
func EncodeChunkRecord(c ChunkRecord) []byte {
	return AppendChunkRecord(make([]byte, 0, ChunkRecordSize(c)), c)
}

// AppendChunkRecord serializes a chunk record onto buf and returns the
// extended slice.
func AppendChunkRecord(buf []byte, c ChunkRecord) []byte {
	buf = binary.BigEndian.AppendUint64(buf, c.Epoch)
	buf = binary.BigEndian.AppendUint16(buf, uint16(c.Proposer))
	if c.Kind == ChunkDone && c.HasChunk {
		buf = append(buf, 1)
	} else {
		buf = append(buf, byte(c.Kind))
	}
	buf = append(buf, c.Root[:]...)
	buf = wire.AppendBytes(buf, c.Data)
	return wire.AppendProof(buf, c.Proof)
}

// DecodeChunkRecord parses EncodeChunkRecord output.
func DecodeChunkRecord(data []byte) (ChunkRecord, error) {
	r := wire.NewReader(data)
	c := ChunkRecord{Epoch: r.U64(), Proposer: int(r.U16()), Kind: ChunkKind(r.U8()),
		Root: r.Hash(), Data: r.Bytes32(), Proof: r.Proof()}
	if err := r.Done(); err != nil {
		return ChunkRecord{}, fmt.Errorf("store: bad chunk record: %w", err)
	}
	if c.Kind == 1 {
		c.Kind, c.HasChunk = ChunkDone, true
	} else if c.Kind > ChunkReady {
		return ChunkRecord{}, fmt.Errorf("store: unknown chunk record kind %d", c.Kind)
	}
	return c, nil
}
