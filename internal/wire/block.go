package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// InfEpoch is the sentinel "infinity" used in V arrays for ill-formatted
// blocks (footnote 5 of the paper): such observations never constrain the
// (f+1)-th-largest computation from below.
const InfEpoch = math.MaxUint64

// Block is the unit of proposal. In addition to the transaction batch, a
// block carries the proposer's V array: V[j] is the largest epoch t such
// that all of node j's VID instances up to epoch t have Completed at the
// proposer (§4.3, inter-node linking).
type Block struct {
	Proposer NodeID
	Epoch    uint64
	V        []uint64
	Txs      [][]byte
}

// ErrBadBlock is returned when a retrieved byte string does not parse as a
// block. Per the paper, such blocks are treated as having V = [∞, ∞, ...].
var ErrBadBlock = errors.New("wire: ill-formatted block")

// PayloadBytes returns the total transaction bytes in the block.
func (b *Block) PayloadBytes() int {
	n := 0
	for _, tx := range b.Txs {
		n += len(tx)
	}
	return n
}

// EncodedSize returns the exact size of Encode's output.
func (b *Block) EncodedSize() int {
	n := 2 + 8 + 2 + 8*len(b.V) + 4
	for _, tx := range b.Txs {
		n += 4 + len(tx)
	}
	return n
}

// Encode serializes the block.
func (b *Block) Encode() []byte {
	buf := make([]byte, 0, b.EncodedSize())
	buf = binary.BigEndian.AppendUint16(buf, uint16(b.Proposer))
	buf = binary.BigEndian.AppendUint64(buf, b.Epoch)
	buf = AppendU64s(buf, b.V)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b.Txs)))
	for _, tx := range b.Txs {
		buf = AppendBytes(buf, tx)
	}
	return buf
}

// DecodeBlock parses a block. Any structural problem yields ErrBadBlock.
func DecodeBlock(data []byte) (*Block, error) {
	r := NewReader(data)
	b := &Block{Proposer: int(r.U16()), Epoch: r.U64(), V: r.U64s(int(r.U16()))}
	// Every transaction costs at least its length prefix, so a forged
	// count cannot size the slice beyond the input.
	n := r.Count(int(r.U32()), 4)
	b.Txs = make([][]byte, 0, n)
	for ; n > 0 && r.Err() == nil; n-- {
		b.Txs = append(b.Txs, r.Bytes32())
	}
	if r.Done() != nil {
		return nil, ErrBadBlock
	}
	return b, nil
}
