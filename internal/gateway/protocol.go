package gateway

// The client protocol: length-framed, deterministic binary messages in
// the style of internal/wire. Every frame is a u32 big-endian length
// followed by a one-byte type code and the message body. Client frames
// are capped at MaxFrame so a malicious client cannot force unbounded
// allocations; the cap comfortably exceeds the per-transaction limit.
//
//	client -> server: Hello, Submit, Ping
//	server -> client: Welcome, Receipt(s), Commit(s), Pong
//
// A connection starts with Hello (naming the client; the name is the
// client's stable identity across reconnects, hashed to its 64-bit id)
// answered by Welcome (the assigned id and the cluster shape). Submits
// are answered by exactly one Receipt each, correlated by request id;
// Commits arrive asynchronously on subscribed connections, in delivery
// order.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"dledger/internal/mempool"
	"dledger/internal/merkle"
	"dledger/internal/wire"
)

// Protocol constants.
const (
	// HelloMagic opens every connection ("DLGW").
	HelloMagic = 0x444C4757
	// ProtocolVersion is bumped on incompatible changes.
	ProtocolVersion = 1
	// MaxFrame caps one frame on the wire.
	MaxFrame = 2 << 20
	// MaxNameLen caps the client name in Hello.
	MaxNameLen = 64
)

// Frame type codes.
const (
	MTHello byte = iota + 1
	MTSubmit
	MTPing
	MTWelcome
	MTReceipt
	MTCommit
	MTPong
)

// Protocol errors.
var (
	ErrFrameTooBig = errors.New("gateway: frame exceeds MaxFrame")
	ErrShort       = errors.New("gateway: message truncated")
	ErrBadMagic    = errors.New("gateway: bad hello magic")
	ErrBadVersion  = errors.New("gateway: unsupported protocol version")
	ErrUnknownType = errors.New("gateway: unknown message type")
)

// Hello opens a connection.
type Hello struct {
	// Name is the client's stable identity; reconnecting with the same
	// name resumes the same per-client queue and subscriptions.
	Name []byte
	// Subscribe requests the commit stream on this connection.
	Subscribe bool
}

// EncodeHello serializes a Hello frame body (without the length prefix).
func EncodeHello(h Hello) []byte {
	buf := make([]byte, 0, 1+4+1+1+1+len(h.Name))
	buf = append(buf, MTHello)
	buf = binary.BigEndian.AppendUint32(buf, HelloMagic)
	buf = append(buf, ProtocolVersion)
	flags := byte(0)
	if h.Subscribe {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = append(buf, byte(len(h.Name)))
	return append(buf, h.Name...)
}

func decodeHello(r *wire.Reader) (Hello, error) {
	magic, version, flags := r.U32(), r.U8(), r.U8()
	n := int(r.U8())
	switch {
	case r.Err() != nil:
		return Hello{}, ErrShort
	case magic != HelloMagic:
		return Hello{}, ErrBadMagic
	case version != ProtocolVersion:
		return Hello{}, ErrBadVersion
	case n > MaxNameLen:
		return Hello{}, ErrShort
	}
	return Hello{Name: r.Bytes(n), Subscribe: flags&1 != 0}, nil
}

// Welcome answers Hello.
type Welcome struct {
	ClientID   uint64
	N, F       int
	MaxTxBytes int
}

// EncodeWelcome serializes a Welcome frame body.
func EncodeWelcome(w Welcome) []byte {
	buf := make([]byte, 0, 1+8+2+2+4)
	buf = append(buf, MTWelcome)
	buf = binary.BigEndian.AppendUint64(buf, w.ClientID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(w.N))
	buf = binary.BigEndian.AppendUint16(buf, uint16(w.F))
	return binary.BigEndian.AppendUint32(buf, uint32(w.MaxTxBytes))
}

// Submit carries one transaction.
type Submit struct {
	ReqID uint64
	Tx    []byte
}

// EncodeSubmit serializes a Submit frame body.
func EncodeSubmit(s Submit) []byte {
	buf := make([]byte, 0, 1+8+4+len(s.Tx))
	buf = append(buf, MTSubmit)
	buf = binary.BigEndian.AppendUint64(buf, s.ReqID)
	return wire.AppendBytes(buf, s.Tx)
}

// EncodeReceipt serializes a Receipt frame body.
func EncodeReceipt(r Receipt) []byte {
	buf := make([]byte, 0, 1+8+1+4+32)
	buf = append(buf, MTReceipt)
	buf = binary.BigEndian.AppendUint64(buf, r.ReqID)
	buf = append(buf, byte(r.Status))
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.RetryAfter.Milliseconds()))
	return append(buf, r.TxHash[:]...)
}

// EncodeCommit serializes a Commit frame body.
func EncodeCommit(c Commit) []byte {
	buf := make([]byte, 0, 1+32+8+2+4+4+32+1+len(c.Path)*merkle.RootSize)
	buf = append(buf, MTCommit)
	buf = append(buf, c.TxHash[:]...)
	buf = binary.BigEndian.AppendUint64(buf, c.Epoch)
	buf = binary.BigEndian.AppendUint16(buf, uint16(c.Proposer))
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.Index))
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.Count))
	buf = append(buf, c.Root[:]...)
	buf = append(buf, byte(len(c.Path)))
	for _, p := range c.Path {
		buf = append(buf, p[:]...)
	}
	return buf
}

// Ping/Pong carry an opaque nonce.
type Ping struct{ Nonce uint64 }

// EncodePing serializes a Ping frame body.
func EncodePing(p Ping) []byte {
	buf := make([]byte, 0, 9)
	buf = append(buf, MTPing)
	return binary.BigEndian.AppendUint64(buf, p.Nonce)
}

// EncodePong serializes a Pong frame body.
func EncodePong(p Ping) []byte {
	buf := make([]byte, 0, 9)
	buf = append(buf, MTPong)
	return binary.BigEndian.AppendUint64(buf, p.Nonce)
}

// Message is the decoded form of one frame: exactly one of the fields is
// non-nil, matching Type.
type Message struct {
	Type    byte
	Hello   *Hello
	Welcome *Welcome
	Submit  *Submit
	Receipt *Receipt
	Commit  *Commit
	Ping    *Ping // Ping and Pong both land here
}

// DecodeMessage parses one frame body (type byte + message body). A
// body that is too short or too long for its type is ErrShort.
func DecodeMessage(data []byte) (Message, error) {
	r := wire.NewReader(data)
	m := Message{Type: r.U8()}
	if r.Err() != nil {
		return Message{}, ErrShort
	}
	switch m.Type {
	case MTHello:
		v, err := decodeHello(r)
		if err != nil {
			return Message{}, err
		}
		m.Hello = &v
	case MTWelcome:
		m.Welcome = &Welcome{ClientID: r.U64(), N: int(r.U16()), F: int(r.U16()), MaxTxBytes: int(r.U32())}
	case MTSubmit:
		m.Submit = &Submit{ReqID: r.U64(), Tx: r.Bytes32()}
	case MTReceipt:
		m.Receipt = &Receipt{ReqID: r.U64(), Status: Status(r.U8()),
			RetryAfter: time.Duration(r.U32()) * time.Millisecond, TxHash: r.Hash()}
	case MTCommit:
		m.Commit = &Commit{TxHash: r.Hash(), Epoch: r.U64(), Proposer: int(r.U16()),
			Index: int(r.U32()), Count: int(r.U32()), Root: r.Hash(),
			Path: wire.Hashes[merkle.Root](r, int(r.U8()))}
	case MTPing, MTPong:
		m.Ping = &Ping{Nonce: r.U64()}
	default:
		return Message{}, fmt.Errorf("%w: %d", ErrUnknownType, m.Type)
	}
	if r.Done() != nil {
		return Message{}, ErrShort
	}
	return m, nil
}

// ClientID derives a client's 64-bit id from its stable name: the first
// eight bytes of the name's content hash, forced non-zero so it can
// never collide with mempool.LocalClient.
func ClientID(name []byte) uint64 {
	h := mempool.HashTx(name)
	id := binary.BigEndian.Uint64(h[:8])
	if id == mempool.LocalClient {
		id = 1
	}
	return id
}
