package avid

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"dledger/internal/merkle"
	"dledger/internal/wire"
)

// TestQuickDispersalRetrieval drives random cluster shapes, block sizes,
// schedules and withholding sets through a full dispersal + retrieval,
// asserting Termination, Agreement, Availability and Correctness.
func TestQuickDispersalRetrieval(t *testing.T) {
	f := func(seed int64, fRaw, sizeRaw uint16, withholdRaw uint8) bool {
		fv := int(fRaw%3) + 1 // f in 1..3
		n := 3*fv + 1         // minimal cluster for f
		size := int(sizeRaw%4096) + 1
		rng := rand.New(rand.NewSource(seed))

		c := newCluster(t, n, fv, seed)
		block := make([]byte, size)
		rng.Read(block)
		c.disperse(t, 2000, block, nil)
		c.run(t, nil)
		for i, s := range c.servers {
			if done, _ := s.Completed(); !done {
				t.Errorf("server %d did not complete (n=%d f=%d)", i, n, fv)
				return false
			}
		}
		// Up to f servers withhold retrieval responses.
		withhold := map[int]bool{}
		for len(withhold) < int(withholdRaw)%(fv+1) {
			withhold[rng.Intn(n)] = true
		}
		ret := c.startRetriever(1000)
		c.run(t, func(from, to int) bool {
			return to >= 1000 && withhold[from]
		})
		if !ret.Done() {
			t.Errorf("retrieval stalled (n=%d f=%d withhold=%d)", n, fv, len(withhold))
			return false
		}
		got, bad := ret.Block()
		return !bad && bytes.Equal(got, block)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickBadUploaderAlwaysConsistent: for random inconsistent
// dispersals, any two retrieval clients (with different server subsets
// answering) return the same value.
func TestQuickBadUploaderAlwaysConsistent(t *testing.T) {
	f := func(seed int64, chunkSizeRaw uint8) bool {
		chunkSize := int(chunkSizeRaw%64) + 1
		c := newCluster(t, 7, 2, seed)
		for i, m := range byzantineDisperse(t, c.p, chunkSize, seed) {
			c.queue = append(c.queue, qmsg{2000, i, m})
		}
		c.run(t, nil)
		rng := rand.New(rand.NewSource(seed ^ 77))
		blockA, blockB := rng.Intn(7), rng.Intn(7)
		r1 := c.startRetriever(1000)
		r2 := c.startRetriever(1001)
		c.run(t, func(from, to int) bool {
			return to == 1000 && from == blockA || to == 1001 && from == blockB
		})
		if !r1.Done() || !r2.Done() {
			return false
		}
		b1, _ := r1.Block()
		b2, _ := r2.Block()
		return bytes.Equal(b1, b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPartialConsistencyAttack: a Byzantine disperser encodes a real
// block but swaps one chunk for garbage (still proof-valid under the new
// root). Clients decoding from subsets that exclude the garbage chunk
// must return exactly the same value as clients whose subset includes it
// — i.e. either everyone gets the same block or everyone gets
// BAD_UPLOADER.
func TestPartialConsistencyAttack(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p, err := NewParams(7, 2)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		block := make([]byte, 700)
		rng.Read(block)
		shards, err := p.Coder.Split(block)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt one shard, then re-commit.
		corrupt := rng.Intn(7)
		shards[corrupt] = append([]byte(nil), shards[corrupt]...)
		shards[corrupt][0] ^= 0xFF
		chunks := byzChunksFromShards(t, p, shards)

		c := newCluster(t, 7, 2, seed)
		for i, m := range chunks {
			c.queue = append(c.queue, qmsg{2000, i, m})
		}
		c.run(t, nil)

		// Client A avoids the corrupt server; client B prefers it.
		rA := c.startRetriever(1000)
		rB := c.startRetriever(1001)
		c.run(t, func(from, to int) bool {
			if to == 1000 && from == corrupt {
				return true
			}
			// Client B drops two non-corrupt servers to force the
			// corrupt chunk into its decoding subset.
			if to == 1001 && from != corrupt && from == (corrupt+1)%7 {
				return true
			}
			return false
		})
		if !rA.Done() || !rB.Done() {
			t.Fatalf("seed %d: retrievals stalled", seed)
		}
		bA, badA := rA.Block()
		bB, badB := rB.Block()
		if badA != badB || !bytes.Equal(bA, bB) {
			t.Fatalf("seed %d: clients disagree (badA=%v badB=%v)", seed, badA, badB)
		}
	}
}

// byzChunksFromShards commits to the given (possibly inconsistent) shard
// set and produces per-server Chunk messages, as a Byzantine disperser
// would.
func byzChunksFromShards(t *testing.T, p Params, shards [][]byte) []wire.Chunk {
	t.Helper()
	tree := merkle.NewTree(shards)
	chunks := make([]wire.Chunk, p.N)
	for i := 0; i < p.N; i++ {
		proof, err := tree.Prove(i)
		if err != nil {
			t.Fatal(err)
		}
		chunks[i] = wire.Chunk{Root: tree.Root(), Data: shards[i], Proof: proof}
	}
	return chunks
}
