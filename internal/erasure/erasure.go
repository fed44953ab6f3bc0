// Package erasure implements a systematic (k, n) Reed-Solomon erasure code
// over GF(2^8), built from scratch on package gf256. It replaces the
// klauspost/reedsolomon dependency used by the DispersedLedger paper.
//
// A Coder splits a block of data into k equal-size data shards and computes
// n−k parity shards. Any k of the n shards reconstruct the original block.
// DispersedLedger uses k = N−2f and n = N, so the block survives even when
// the f Byzantine servers withhold their chunks and f correct servers are
// slow (§3 of the paper).
package erasure

import (
	"errors"
	"fmt"

	"dledger/internal/gf256"
)

// Errors returned by the coder.
var (
	ErrTooFewShards   = errors.New("erasure: not enough shards to reconstruct")
	ErrShardSize      = errors.New("erasure: shards have inconsistent or zero size")
	ErrInvalidParams  = errors.New("erasure: invalid code parameters")
	ErrInvalidPadding = errors.New("erasure: corrupt length prefix in decoded data")
)

// Coder is a systematic Reed-Solomon coder with k data shards and n total
// shards. It is safe for concurrent use after construction because all
// methods only read the precomputed matrices.
type Coder struct {
	k, n   int
	matrix *gf256.Matrix // n x k encoding matrix; top k x k is the identity
}

// New returns a Coder with k data shards out of n total shards.
// Requirements: 0 < k <= n <= 256.
func New(k, n int) (*Coder, error) {
	if k <= 0 || n < k || n > 256 {
		return nil, fmt.Errorf("%w: k=%d n=%d", ErrInvalidParams, k, n)
	}
	// Build a systematic encoding matrix: start from an n x k Vandermonde
	// matrix and multiply by the inverse of its top k x k square so the top
	// becomes the identity. Every k x k submatrix of the result remains
	// invertible, and the first k shards equal the data itself.
	vm := gf256.VandermondeMatrix(n, k)
	top := vm.SubMatrix(0, k, 0, k)
	topInv, err := top.Invert()
	if err != nil {
		// Cannot happen: Vandermonde top squares are invertible.
		return nil, err
	}
	return &Coder{k: k, n: n, matrix: vm.Mul(topInv)}, nil
}

// ShardSize returns the size of each shard produced for a block of
// dataLen bytes. The block is prefixed with its length (4 bytes) and padded
// to a multiple of k.
func (c *Coder) ShardSize(dataLen int) int {
	total := dataLen + 4
	return (total + c.k - 1) / c.k
}

// Scratch holds reusable encode buffers for SplitInto and
// ReconstructShards. A zero Scratch is ready to use; it grows to the
// largest encode it has served and is then allocation-free. A Scratch is
// owned by one goroutine at a time, and the shards those calls encode
// into it are valid only until the next call that uses the same Scratch.
type Scratch struct {
	buf    []byte
	shards [][]byte
	rows   []int
}

// Split encodes data into n shards of equal size. Any k of the returned
// shards reconstruct data via Reconstruct. The input is copied; the caller
// may reuse it. The returned shards are freshly allocated and owned by the
// caller; use SplitInto when the shards are transient.
func (c *Coder) Split(data []byte) ([][]byte, error) {
	return c.split(data, nil)
}

// SplitInto is Split encoding into s's reused buffers: the returned shards
// alias s and are only valid until s's next use. It exists for transient
// encodes — AVID-M's verification re-encode discards the shards as soon as
// the Merkle root is compared, and going through a Scratch makes that path
// allocation-free in steady state.
func (c *Coder) SplitInto(data []byte, s *Scratch) ([][]byte, error) {
	return c.split(data, s)
}

func (c *Coder) split(data []byte, s *Scratch) ([][]byte, error) {
	if uint64(len(data)) > 0xffffffff-4 {
		return nil, fmt.Errorf("%w: block too large", ErrInvalidParams)
	}
	shardSize := c.ShardSize(len(data))
	need := shardSize * c.n
	var buf []byte
	var shards [][]byte
	if s != nil {
		if cap(s.buf) < need {
			s.buf = make([]byte, need)
		}
		if cap(s.shards) < c.n {
			s.shards = make([][]byte, c.n)
		}
		buf, shards = s.buf[:need], s.shards[:c.n]
	} else {
		buf = make([]byte, need)
		shards = make([][]byte, c.n)
	}
	// Lay out: 4-byte big-endian length, then data, then zero padding, then
	// the parity rows. Only the tail needs clearing on reuse — the header
	// and data region are overwritten below, and parity rows accumulate
	// from zero.
	buf[0] = byte(len(data) >> 24)
	buf[1] = byte(len(data) >> 16)
	buf[2] = byte(len(data) >> 8)
	buf[3] = byte(len(data))
	copy(buf[4:], data)
	tail := buf[4+len(data):]
	for i := range tail {
		tail[i] = 0
	}

	for i := 0; i < c.n; i++ {
		shards[i] = buf[i*shardSize : (i+1)*shardSize]
	}
	forEachRow(c.n-c.k, shardSize, func(r int) {
		i := c.k + r
		gf256.MulAddRow(shards[i], c.matrix.Row(i), shards[:c.k])
	})
	return shards, nil
}

// Reconstruct recovers the original data block from shards. The slice must
// have length n; missing shards are nil. At least k shards must be present.
// Present shards must all have the same non-zero length.
//
// Reconstruct does not verify shard integrity: feeding it k shards that were
// not produced by the same Split call yields garbage. AVID-M detects this
// case by re-encoding and comparing Merkle roots (§3.3 of the paper).
func (c *Coder) Reconstruct(shards [][]byte) ([]byte, error) {
	data, _, err := c.decodeData(shards)
	if err != nil {
		return nil, err
	}
	return Unframe(data)
}

// ReconstructShards recovers every missing shard from the first k present
// ones, filling in the nil entries of shards in place; present entries are
// left untouched. It returns the k data rows end to end in a fresh buffer
// (what Unframe reads), and the nil data entries become views of it. The
// missing parity rows are encoded into s's buffer: like SplitInto's
// shards they are valid only until s's next use.
func (c *Coder) ReconstructShards(shards [][]byte, s *Scratch) ([]byte, error) {
	data, size, err := c.decodeData(shards)
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			shards[i] = data[i*size : (i+1)*size : (i+1)*size]
		}
	}
	missing := s.rows[:0]
	for i := c.k; i < c.n; i++ {
		if shards[i] == nil {
			missing = append(missing, i)
		}
	}
	s.rows = missing
	need := len(missing) * size
	if cap(s.buf) < need {
		s.buf = make([]byte, need)
	}
	buf := s.buf[:need]
	clear(buf) // parity rows accumulate from zero
	for r, i := range missing {
		shards[i] = buf[r*size : (r+1)*size : (r+1)*size]
	}
	forEachRow(len(missing), size, func(r int) {
		i := missing[r]
		gf256.MulAddRow(shards[i], c.matrix.Row(i), shards[:c.k])
	})
	return data, nil
}

// decodeData is the one decode routine under Reconstruct and
// ReconstructShards. It takes the first k present entries of shards,
// which must share one non-zero size, and returns the k data rows end to
// end in a fresh buffer with that size: rows that are present are copied,
// the missing ones decoded from the k taken rows.
func (c *Coder) decodeData(shards [][]byte) (data []byte, size int, err error) {
	if len(shards) != c.n {
		return nil, 0, fmt.Errorf("%w: got %d shard slots, want %d", ErrInvalidParams, len(shards), c.n)
	}
	size = -1
	present := make([]int, 0, c.k)
	for i, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		}
		if len(s) != size || size == 0 {
			return nil, 0, ErrShardSize
		}
		present = append(present, i)
		if len(present) == c.k {
			break
		}
	}
	if len(present) < c.k {
		return nil, 0, fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, len(present), c.k)
	}
	// A data row i that is present is among the taken rows: at most i
	// present rows come before it, fewer than k. So the data rows to
	// decode are exactly the nil ones, and there are some exactly when a
	// parity row was taken.
	var dec *gf256.Matrix
	var srcs [][]byte
	if present[c.k-1] >= c.k {
		if dec, err = c.matrix.SelectRows(present).Invert(); err != nil {
			return nil, 0, err
		}
		srcs = make([][]byte, c.k)
		for j, i := range present {
			srcs[j] = shards[i]
		}
	}
	data = make([]byte, size*c.k)
	forEachRow(c.k, size, func(i int) {
		row := data[i*size : (i+1)*size]
		if shards[i] != nil {
			copy(row, shards[i])
		} else {
			gf256.MulAddRow(row, dec.Row(i), srcs)
		}
	})
	return data, size, nil
}

// Unframe returns the block that data, an encoding's k data rows end to
// end, carries behind its 4-byte big-endian length prefix. What follows
// the block is padding. It fails with ErrInvalidPadding when the prefix
// claims more bytes than data holds.
func Unframe(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, ErrInvalidPadding
	}
	n := int(data[0])<<24 | int(data[1])<<16 | int(data[2])<<8 | int(data[3])
	if n < 0 || n > len(data)-4 {
		return nil, ErrInvalidPadding
	}
	return data[4 : 4+n], nil
}
