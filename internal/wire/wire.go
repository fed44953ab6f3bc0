// Package wire defines the protocol messages exchanged by DispersedLedger
// nodes and their exact binary encoding.
//
// Every message is carried in an Envelope that names the sender and the
// protocol instance (epoch, proposer) it belongs to. The encoding is a
// hand-written, deterministic binary layout rather than gob/JSON for two
// reasons: the network emulator charges transmission time by exact wire
// size, and the paper's Fig 2 comparison is about per-message byte
// overheads, so sizes must be honest and stable.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dledger/internal/merkle"
)

// NodeID identifies a node in the cluster, 0-based. The wire format uses
// 16 bits, which caps clusters at 65536 nodes (the paper evaluates 128).
type NodeID = int

// Broadcast is the special destination meaning "send to every node,
// including myself". The paper's automata assume self-delivery of
// broadcasts.
const Broadcast NodeID = -1

// Priority classes for transport scheduling (§5 of the paper). Dispersal
// traffic gets a 30:1 bandwidth share over retrieval traffic at a shared
// bottleneck, emulating the MulTcp-style congestion-control split.
type Priority uint8

const (
	// PrioDispersal is the high-priority class: VID dispersal messages and
	// BA votes. This traffic is small but latency- and
	// throughput-critical: it gates the progress of the whole cluster.
	PrioDispersal Priority = iota
	// PrioRetrieval is the low-priority class: block retrieval traffic.
	// Within this class, transports serve lower epochs first.
	PrioRetrieval
)

// Message type codes on the wire.
const (
	TChunk byte = iota + 1
	TGotChunk
	TReady
	TRequestChunk
	TReturnChunk
	TCancelRequest
	TBVal
	TAux
	TTerm
	TRequestChunkAgain
	TStatusRequest
	TStatusReply
	TSyncHello
	TSyncOffer
	TSyncPull
	TSyncPage
)

// Msg is implemented by every protocol message.
type Msg interface {
	// Type returns the wire type code.
	Type() byte
	// AppendTo appends the message body (excluding the type code) to buf.
	AppendTo(buf []byte) []byte
	// BodySize returns the exact encoded body size in bytes.
	BodySize() int
}

// Envelope wraps a message with its routing metadata.
type Envelope struct {
	From     NodeID
	Epoch    uint64
	Proposer NodeID // which node's slot this instance belongs to
	Payload  Msg
}

// envelopeHeader = type(1) + from(2) + epoch(8) + proposer(2).
const envelopeHeader = 1 + 2 + 8 + 2

// WireSize returns the exact encoded size of the envelope in bytes.
func (e Envelope) WireSize() int {
	return envelopeHeader + e.Payload.BodySize()
}

// Encode serializes the envelope into a fresh buffer.
func (e Envelope) Encode() []byte {
	return e.AppendTo(make([]byte, 0, e.WireSize()))
}

// AppendTo serializes the envelope onto buf and returns the extended
// slice. Callers that frame messages into pooled or presized buffers use
// this to avoid Encode's per-message allocation: appending WireSize
// bytes to a slice with that much spare capacity never reallocates.
func (e Envelope) AppendTo(buf []byte) []byte {
	buf = append(buf, e.Payload.Type())
	buf = binary.BigEndian.AppendUint16(buf, uint16(e.From))
	buf = binary.BigEndian.AppendUint64(buf, e.Epoch)
	buf = binary.BigEndian.AppendUint16(buf, uint16(e.Proposer))
	return e.Payload.AppendTo(buf)
}

// Errors returned by Decode.
var (
	ErrShort       = errors.New("wire: message truncated")
	ErrUnknownType = errors.New("wire: unknown message type")
	ErrTrailing    = errors.New("wire: trailing bytes after message")
)

// Decode parses an envelope produced by Encode.
func Decode(data []byte) (Envelope, error) {
	r := NewReader(data)
	t := r.U8()
	e := Envelope{From: int(r.U16()), Epoch: r.U64(), Proposer: int(r.U16())}
	if r.Err() != nil {
		return Envelope{}, ErrShort
	}
	switch t {
	case TChunk:
		e.Payload = Chunk{Root: r.Hash(), Data: r.Bytes32(), Proof: r.Proof()}
	case TGotChunk:
		e.Payload = GotChunk{Root: r.Hash()}
	case TReady:
		e.Payload = Ready{Root: r.Hash()}
	case TRequestChunk:
		e.Payload = RequestChunk{}
	case TReturnChunk:
		e.Payload = ReturnChunk{Root: r.Hash(), Data: r.Bytes32(), Proof: r.Proof()}
	case TCancelRequest:
		e.Payload = CancelRequest{}
	case TBVal:
		e.Payload = BVal{Round: r.U32(), Value: r.Bool()}
	case TAux:
		e.Payload = Aux{Round: r.U32(), Value: r.Bool()}
	case TTerm:
		e.Payload = Term{Value: r.Bool()}
	case TRequestChunkAgain:
		e.Payload = RequestChunkAgain{}
	case TStatusRequest:
		e.Payload = StatusRequest{}
	case TStatusReply:
		e.Payload = StatusReply{Decided: r.Bool(), Through: r.U64(), S: r.Bytes(int(r.U16()))}
	case TSyncHello:
		e.Payload = SyncHello{}
	case TSyncOffer:
		m := SyncOffer{}
		for n := r.Count(int(r.U8()), 40); n > 0; n-- {
			m.Points = append(m.Points, SyncPoint{Epoch: r.U64(), Hash: r.Hash()})
		}
		e.Payload = m
	case TSyncPull:
		e.Payload = SyncPull{Section: r.U8(), Page: r.U32()}
	case TSyncPage:
		e.Payload = SyncPage{Section: r.U8(), Page: r.U32(), Last: r.Bool(), Data: r.Bytes32()}
	default:
		return Envelope{}, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	if err := r.Done(); err != nil {
		return Envelope{}, err
	}
	return e, nil
}

// ----- AVID dispersal messages (Fig 3 of the paper) -----

// Chunk carries one erasure-coded chunk from the dispersing client to a
// server, with the Merkle root commitment and the inclusion proof.
type Chunk struct {
	Root  merkle.Root
	Data  []byte
	Proof merkle.Proof
}

func (Chunk) Type() byte { return TChunk }
func (m Chunk) BodySize() int {
	return merkle.RootSize + 4 + len(m.Data) + ProofSize(m.Proof)
}
func (m Chunk) AppendTo(buf []byte) []byte {
	buf = append(buf, m.Root[:]...)
	buf = AppendBytes(buf, m.Data)
	return AppendProof(buf, m.Proof)
}

// GotChunk announces that the sender holds a valid chunk under Root.
type GotChunk struct{ Root merkle.Root }

func (GotChunk) Type() byte    { return TGotChunk }
func (GotChunk) BodySize() int { return merkle.RootSize }
func (m GotChunk) AppendTo(buf []byte) []byte {
	return append(buf, m.Root[:]...)
}

// Ready votes to complete the dispersal under Root.
type Ready struct{ Root merkle.Root }

func (Ready) Type() byte    { return TReady }
func (Ready) BodySize() int { return merkle.RootSize }
func (m Ready) AppendTo(buf []byte) []byte {
	return append(buf, m.Root[:]...)
}

// ----- AVID retrieval messages (Fig 4 of the paper) -----

// RequestChunk asks a server for its stored chunk of an instance.
type RequestChunk struct{}

func (RequestChunk) Type() byte                 { return TRequestChunk }
func (RequestChunk) BodySize() int              { return 0 }
func (RequestChunk) AppendTo(buf []byte) []byte { return buf }

// ReturnChunk is a server's answer to RequestChunk.
type ReturnChunk struct {
	Root  merkle.Root
	Data  []byte
	Proof merkle.Proof
}

func (ReturnChunk) Type() byte { return TReturnChunk }
func (m ReturnChunk) BodySize() int {
	return merkle.RootSize + 4 + len(m.Data) + ProofSize(m.Proof)
}
func (m ReturnChunk) AppendTo(buf []byte) []byte {
	buf = append(buf, m.Root[:]...)
	buf = AppendBytes(buf, m.Data)
	return AppendProof(buf, m.Proof)
}

// CancelRequest tells a server the retriever has decoded the block and
// needs no more chunks (the optimization discussed in §6.3 of the paper).
type CancelRequest struct{}

func (CancelRequest) Type() byte                 { return TCancelRequest }
func (CancelRequest) BodySize() int              { return 0 }
func (CancelRequest) AppendTo(buf []byte) []byte { return buf }

// ----- Binary agreement messages (Mostéfaoui et al.) -----

// BVal is the binary-value broadcast vote of a BA round.
type BVal struct {
	Round uint32
	Value bool
}

func (BVal) Type() byte    { return TBVal }
func (BVal) BodySize() int { return 5 }
func (m BVal) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, m.Round)
	return AppendBool(buf, m.Value)
}

// Aux is the second-stage vote of a BA round, carrying a value from the
// sender's bin_values set.
type Aux struct {
	Round uint32
	Value bool
}

func (Aux) Type() byte    { return TAux }
func (Aux) BodySize() int { return 5 }
func (m Aux) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, m.Round)
	return AppendBool(buf, m.Value)
}

// Term is the Bracha-style termination gadget: broadcast on decision so
// that lagging nodes can adopt the value and every instance quiesces.
type Term struct{ Value bool }

func (Term) Type() byte    { return TTerm }
func (Term) BodySize() int { return 1 }
func (m Term) AppendTo(buf []byte) []byte {
	return AppendBool(buf, m.Value)
}

// ----- Crash-recovery messages (internal/store's recovery path) -----

// RequestChunkAgain is RequestChunk from a node that may have asked this
// server before it crashed: the server clears its duplicate-suppression
// and cancellation state for the sender and answers afresh. The amplification
// a Byzantine sender gains is bounded to one chunk per message, the same
// as a first request.
type RequestChunkAgain struct{}

func (RequestChunkAgain) Type() byte                 { return TRequestChunkAgain }
func (RequestChunkAgain) BodySize() int              { return 0 }
func (RequestChunkAgain) AppendTo(buf []byte) []byte { return buf }

// StatusRequest asks a peer whether the envelope's epoch has decided and,
// if so, for its committed set. A recovering node broadcasts it to learn
// decisions it slept through (halted agreement instances no longer emit
// Term messages, so the votes alone cannot catch it up).
type StatusRequest struct{}

func (StatusRequest) Type() byte                 { return TStatusRequest }
func (StatusRequest) BodySize() int              { return 0 }
func (StatusRequest) AppendTo(buf []byte) []byte { return buf }

// StatusReply answers StatusRequest. Through is the responder's decided
// watermark (epochs 1..Through all decided there); when Decided is set, S
// is the epoch's committed index set as a bitmap (bit j = node j's block
// committed). A recovering node adopts an epoch's outcome only on f+1
// identical replies, so no f-bounded group of Byzantine peers can forge
// history.
type StatusReply struct {
	Decided bool
	Through uint64
	S       []byte
}

func (StatusReply) Type() byte      { return TStatusReply }
func (m StatusReply) BodySize() int { return 1 + 8 + 2 + len(m.S) }
func (m StatusReply) AppendTo(buf []byte) []byte {
	buf = AppendBool(buf, m.Decided)
	buf = binary.BigEndian.AppendUint64(buf, m.Through)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.S)))
	return append(buf, m.S...)
}

// SetBitmap encodes a sorted index set as a bitmap of nBits bits.
func SetBitmap(s []int, nBits int) []byte {
	b := make([]byte, (nBits+7)/8)
	for _, j := range s {
		if j >= 0 && j < nBits {
			b[j/8] |= 1 << (j % 8)
		}
	}
	return b
}

// BitmapSet decodes SetBitmap output back into a sorted index set,
// considering only the first nBits bits.
func BitmapSet(b []byte, nBits int) []int {
	var s []int
	for j := 0; j < nBits && j/8 < len(b); j++ {
		if b[j/8]&(1<<(j%8)) != 0 {
			s = append(s, j)
		}
	}
	return s
}

// PriorityOf returns the transport priority class of a message: dispersal
// and agreement traffic is high priority, the bulk of retrieval low (§4.5).
// Only the messages that carry a block's bytes ride the low class: the
// returned chunks, and the checkpoint pages of state sync, so a joining
// node's download never delays dispersal. Everything else is tiny and
// gates something — recovery status traffic a node's rejoin, state-sync
// hello, offer and pull a bootstrap, and the chunk requests and their
// cancels a whole retrieval: queued in the low class (served oldest epoch
// first, on 1/(T+1) of the link) a node's newest requests would leave
// last, behind every chunk it owes. All three request messages share one
// class so a cancel never overtakes the request it cancels.
func PriorityOf(m Msg) Priority {
	switch m.Type() {
	case TReturnChunk, TSyncPage:
		return PrioRetrieval
	default:
		return PrioDispersal
	}
}

// ----- State-sync messages (internal/statesync's checkpoint transfer) -----

// SyncPoint names one attestable checkpoint: the canonical state-sync
// manifest at delivered position Epoch hashes to Hash. All honest nodes
// that delivered through Epoch (with state sync enabled) compute the
// identical manifest, so a joining node adopts a point only on f+1
// identical (Epoch, Hash) attestations — the same trust argument as the
// status catch-up protocol.
type SyncPoint struct {
	Epoch uint64
	Hash  [32]byte
}

// SyncHello asks every peer for its resident sync points. Broadcast by a
// node whose datadir is empty (dlnode -join) or stale beyond every
// peer's retention horizon.
type SyncHello struct{}

func (SyncHello) Type() byte                 { return TSyncHello }
func (SyncHello) BodySize() int              { return 0 }
func (SyncHello) AppendTo(buf []byte) []byte { return buf }

// SyncOffer answers SyncHello with the responder's resident sync points,
// newest first. An empty list is a valid answer ("no checkpoint to
// offer"): f+1 empty offers tell a joiner the cluster is young enough
// for the ordinary status catch-up.
type SyncOffer struct {
	Points []SyncPoint
}

func (SyncOffer) Type() byte      { return TSyncOffer }
func (m SyncOffer) BodySize() int { return 1 + len(m.Points)*40 }
func (m SyncOffer) AppendTo(buf []byte) []byte {
	buf = append(buf, byte(len(m.Points)))
	for _, p := range m.Points {
		buf = binary.BigEndian.AppendUint64(buf, p.Epoch)
		buf = append(buf, p.Hash[:]...)
	}
	return buf
}

// Sync stream sections.
const (
	// SyncSectionManifest streams the canonical checkpoint manifest for
	// the target point (hash-verified after reassembly).
	SyncSectionManifest uint8 = 0
	// SyncSectionChunks streams the donor's retained chunk inventory for
	// epochs beyond the target point. Entries are donor-specific and
	// verified individually against their Merkle roots.
	SyncSectionChunks uint8 = 1
)

// SyncPull requests one page of one section of the sync point named by
// the envelope's Epoch. The puller keeps a single request in flight per
// donor (self-clocking flow control) and re-pulls on a timer, so the
// transfer resumes across reconnects and donor failures.
type SyncPull struct {
	Section uint8
	Page    uint32
}

func (SyncPull) Type() byte    { return TSyncPull }
func (SyncPull) BodySize() int { return 5 }
func (m SyncPull) AppendTo(buf []byte) []byte {
	buf = append(buf, m.Section)
	return binary.BigEndian.AppendUint32(buf, m.Page)
}

// SyncPage answers SyncPull with one page of section bytes. Last marks
// the section's final page; a page with Last and no Data means the donor
// no longer holds the requested point (evicted from its ring) and the
// puller should pick a fresh target.
type SyncPage struct {
	Section uint8
	Page    uint32
	Last    bool
	Data    []byte
}

func (SyncPage) Type() byte      { return TSyncPage }
func (m SyncPage) BodySize() int { return 1 + 4 + 1 + 4 + len(m.Data) }
func (m SyncPage) AppendTo(buf []byte) []byte {
	buf = append(buf, m.Section)
	buf = binary.BigEndian.AppendUint32(buf, m.Page)
	buf = AppendBool(buf, m.Last)
	return AppendBytes(buf, m.Data)
}
