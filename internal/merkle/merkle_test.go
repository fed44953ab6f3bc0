package merkle

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randChunks(rng *rand.Rand, n, size int) [][]byte {
	chunks := make([][]byte, n)
	for i := range chunks {
		chunks[i] = make([]byte, size)
		rng.Read(chunks[i])
	}
	return chunks
}

func TestProveVerifyAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 40; n++ {
		chunks := randChunks(rng, n, 32)
		tree := NewTree(chunks)
		for i := 0; i < n; i++ {
			proof, err := tree.Prove(i)
			if err != nil {
				t.Fatalf("n=%d Prove(%d): %v", n, i, err)
			}
			if !Verify(tree.Root(), chunks[i], proof) {
				t.Fatalf("n=%d: valid proof for leaf %d rejected", n, i)
			}
		}
	}
}

func TestVerifyRejectsWrongChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	chunks := randChunks(rng, 16, 64)
	tree := NewTree(chunks)
	proof, _ := tree.Prove(5)
	bad := append([]byte(nil), chunks[5]...)
	bad[0] ^= 1
	if Verify(tree.Root(), bad, proof) {
		t.Fatal("tampered chunk accepted")
	}
}

func TestVerifyRejectsWrongIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	chunks := randChunks(rng, 16, 64)
	tree := NewTree(chunks)
	proof, _ := tree.Prove(5)
	proof.Index = 6
	if Verify(tree.Root(), chunks[5], proof) {
		t.Fatal("proof accepted at wrong index")
	}
}

func TestVerifyRejectsWrongRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewTree(randChunks(rng, 8, 32))
	bChunks := randChunks(rng, 8, 32)
	b := NewTree(bChunks)
	proof, _ := b.Prove(3)
	if Verify(a.Root(), bChunks[3], proof) {
		t.Fatal("proof accepted under unrelated root")
	}
}

func TestVerifyRejectsTruncatedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	chunks := randChunks(rng, 9, 32)
	tree := NewTree(chunks)
	proof, _ := tree.Prove(2)
	proof.Path = proof.Path[:len(proof.Path)-1]
	if Verify(tree.Root(), chunks[2], proof) {
		t.Fatal("truncated proof accepted")
	}
}

func TestVerifyRejectsLeafAsInterior(t *testing.T) {
	// Domain separation: the hash of an interior node must not verify as a
	// leaf. Construct a two-leaf tree and try to pass the root preimage of
	// the left subtree of a four-leaf tree as a chunk.
	rng := rand.New(rand.NewSource(6))
	chunks := randChunks(rng, 4, 32)
	tree := NewTree(chunks)
	// Interior node of leaves 0,1:
	left := hashInterior(HashLeaf(chunks[0]), HashLeaf(chunks[1]))
	right := hashInterior(HashLeaf(chunks[2]), HashLeaf(chunks[3]))
	// A fake "2-leaf" proof claiming the interior bytes are leaf 0:
	fake := Proof{Index: 0, Leaves: 2, Path: []Root{right}}
	if Verify(tree.Root(), left[:], fake) {
		t.Fatal("interior node accepted as leaf (missing domain separation)")
	}
}

func TestProveOutOfRange(t *testing.T) {
	tree := NewTree([][]byte{[]byte("a")})
	if _, err := tree.Prove(-1); err == nil {
		t.Fatal("Prove(-1) should fail")
	}
	if _, err := tree.Prove(1); err == nil {
		t.Fatal("Prove(leaves) should fail")
	}
}

func TestEmptyTreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTree(nil) did not panic")
		}
	}()
	NewTree(nil)
}

// rootOf is NewTree's root rebuilt from the chunks' leaf hashes.
func rootOf(chunks [][]byte) Root {
	leaves := make([]Root, len(chunks))
	for i, c := range chunks {
		leaves[i] = HashLeaf(c)
	}
	return RootOfLeaves(leaves)
}

func TestRootDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 40; n++ {
		chunks := randChunks(rng, n, 48)
		if NewTree(chunks).Root() != rootOf(chunks) {
			t.Fatalf("n=%d: RootOfLeaves disagrees with NewTree().Root()", n)
		}
	}
}

func TestRootSensitiveToOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	chunks := randChunks(rng, 6, 16)
	r1 := rootOf(chunks)
	swapped := append([][]byte(nil), chunks...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if r1 == rootOf(swapped) {
		t.Fatal("root must depend on leaf order")
	}
}

func TestProofPropertyQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8, idxRaw uint16) bool {
		n := int(nRaw%64) + 1
		idx := int(idxRaw) % n
		rng := rand.New(rand.NewSource(seed))
		chunks := randChunks(rng, n, 24)
		tree := NewTree(chunks)
		proof, err := tree.Prove(idx)
		if err != nil {
			return false
		}
		if !Verify(tree.Root(), chunks[idx], proof) {
			return false
		}
		// Each proof must fail under any other leaf's content.
		other := (idx + 1) % n
		if n > 1 && Verify(tree.Root(), chunks[other], proof) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitPoint(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 4, 8: 4, 9: 8, 16: 8, 17: 16}
	for n, want := range cases {
		if got := splitPoint(n); got != want {
			t.Fatalf("splitPoint(%d) = %d, want %d", n, got, want)
		}
	}
}

func BenchmarkBuildTree128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	chunks := randChunks(rng, 128, 8<<10) // 128 chunks of 8 KB ~ 1 MB block
	b.SetBytes(128 * 8 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewTree(chunks)
	}
}

func BenchmarkVerifyProof(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	chunks := randChunks(rng, 128, 8<<10)
	tree := NewTree(chunks)
	proof, _ := tree.Prove(65)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(tree.Root(), chunks[65], proof) {
			b.Fatal("verify failed")
		}
	}
}
