package avid

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dledger/internal/erasure"
	"dledger/internal/merkle"
	"dledger/internal/wire"
)

// oracleDecode is the re-encoding check done in full: decode the block
// from the K chunks in shards, encode all N chunks again with Split, and
// compare the root of a tree built over them. The Retriever recomputes
// only the rows it did not receive; TestRetrieveMatchesFullReencode holds
// it to this reference.
func oracleDecode(p Params, root merkle.Root, shards [][]byte) ([]byte, bool) {
	block, err := p.Coder.Reconstruct(shards)
	if err != nil {
		return BadUploader, true
	}
	re, err := p.Coder.Split(block)
	if err != nil || merkle.NewTree(re).Root() != root {
		return BadUploader, true
	}
	return block, false
}

// encodeRows erasure-codes data, k rows of equal size laid end to end, as
// given: no length prefix is written and no padding is cleared, so it
// builds consistent codewords that Split would never produce.
func encodeRows(t *testing.T, p Params, data []byte) [][]byte {
	t.Helper()
	size := len(data) / p.K()
	shards := make([][]byte, p.N)
	for i := 0; i < p.K(); i++ {
		shards[i] = data[i*size : (i+1)*size]
	}
	var sc erasure.Scratch
	if _, err := p.Coder.ReconstructShards(shards, &sc); err != nil {
		t.Fatal(err)
	}
	for i := p.K(); i < p.N; i++ {
		shards[i] = append([]byte(nil), shards[i]...) // out of the scratch
	}
	return shards
}

// frame lays out block as Split does — length prefix, block, zero
// padding — over k rows of size bytes, and writes claimed as the length.
func frame(k, size, claimed int, block []byte) []byte {
	data := make([]byte, k*size)
	data[0], data[1], data[2], data[3] = byte(claimed>>24), byte(claimed>>16), byte(claimed>>8), byte(claimed)
	copy(data[4:], block)
	return data
}

// TestRetrieveMatchesFullReencode is the differential test of retrieval:
// for honest and forged dispersals, each committed under a valid root,
// and for systematic-only, parity-only and mixed sets of K chunks, the
// Retriever must return exactly what the full re-encode returns.
func TestRetrieveMatchesFullReencode(t *testing.T) {
	for _, nf := range [][2]int{{4, 1}, {7, 2}, {16, 5}} {
		p, err := NewParams(nf[0], nf[1])
		if err != nil {
			t.Fatal(err)
		}
		k := p.K()
		rng := rand.New(rand.NewSource(int64(p.N)))
		randBlock := func(n int) []byte {
			b := make([]byte, n)
			rng.Read(b)
			return b
		}
		split := func(block []byte) [][]byte {
			shards, err := p.Coder.Split(block)
			if err != nil {
				t.Fatal(err)
			}
			return shards
		}
		// A length whose frame leaves padding in the last data row.
		padded := 1000
		for (padded+4)%k == 0 {
			padded++
		}

		type dispersal struct {
			name   string
			shards [][]byte
			block  []byte // nil: forged, every client must return BAD_UPLOADER
		}
		var cases []dispersal
		for _, n := range []int{0, 1, padded, 4099} {
			b := randBlock(n)
			cases = append(cases, dispersal{fmt.Sprintf("honest %d B", n), split(b), b})
		}
		{
			b := randBlock(padded)
			size := p.Coder.ShardSize(len(b))
			data := frame(k, size, len(b), b)
			data[len(data)-1] = 0x5a
			cases = append(cases, dispersal{"nonzero padding", encodeRows(t, p, data), nil})
		}
		{
			b := randBlock(padded)
			size := p.Coder.ShardSize(len(b)) + 3
			cases = append(cases, dispersal{"oversized shards", encodeRows(t, p, frame(k, size, len(b), b)), nil})
		}
		{
			b := randBlock(padded)
			size := p.Coder.ShardSize(len(b))
			cases = append(cases, dispersal{"length beyond capacity", encodeRows(t, p, frame(k, size, k*size-3, b)), nil})
		}
		for _, row := range []int{k, p.N - 1} {
			shards := split(randBlock(padded))
			shards[row] = append([]byte(nil), shards[row]...)
			shards[row][len(shards[row])/2] ^= 0x81
			cases = append(cases, dispersal{fmt.Sprintf("inconsistent parity row %d", row), shards, nil})
		}
		for _, row := range []int{0, k - 1, p.N - 1} {
			shards := split(randBlock(padded))
			shards[row] = append(append([]byte(nil), shards[row]...), 0)
			cases = append(cases, dispersal{fmt.Sprintf("row %d one byte longer", row), shards, nil})
		}

		// Received sets, each in the order its chunks arrive.
		sets := [][]int{rng.Perm(k), nil, nil}
		for i := 0; i < k; i++ {
			sets[1] = append(sets[1], k+i)     // the first K parity rows
			sets[2] = append(sets[2], p.N-1-i) // the last K, descending
		}
		for i := 0; i < 8; i++ {
			sets = append(sets, rng.Perm(p.N)[:k]) // mixed
		}

		for _, tc := range cases {
			tree := merkle.NewTree(tc.shards)
			root := tree.Root()
			for _, set := range sets {
				r := NewRetriever(p)
				r.Start()
				present := make([][]byte, p.N)
				for _, i := range set {
					proof, err := tree.Prove(i)
					if err != nil {
						t.Fatal(err)
					}
					r.HandleReturnChunk(i, wire.ReturnChunk{Root: root, Data: tc.shards[i], Proof: proof})
					present[i] = tc.shards[i]
				}
				if !r.Done() {
					t.Fatalf("N=%d %s set %v: retrieval not done after K chunks", p.N, tc.name, set)
				}
				got, bad := r.Block()
				want, wantBad := oracleDecode(p, root, present)
				if bad != wantBad || !bytes.Equal(got, want) {
					t.Fatalf("N=%d %s set %v: retriever (bad=%v, %d B), full re-encode (bad=%v, %d B)",
						p.N, tc.name, set, bad, len(got), wantBad, len(want))
				}
				if tc.block == nil && !bad || tc.block != nil && (bad || !bytes.Equal(got, tc.block)) {
					t.Fatalf("N=%d %s set %v: bad=%v, want bad=%v", p.N, tc.name, set, bad, tc.block == nil)
				}
			}
		}
	}
}
