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

// refTree is the recursive RFC 6962 construction: the tree over n leaves
// splits at splitPoint(n), and every subtree hash is cached by its span
// of leaves. Tree's level-by-level build must match it byte for byte.
type refTree struct {
	leaves int
	nodes  map[span]Root
}

type span struct{ start, size int }

func newRefTree(leaves []Root) *refTree {
	t := &refTree{leaves: len(leaves), nodes: map[span]Root{}}
	t.build(leaves, 0)
	return t
}

func (t *refTree) build(leaves []Root, start int) Root {
	r := leaves[0]
	if len(leaves) > 1 {
		k := splitPoint(len(leaves))
		r = hashInterior(t.build(leaves[:k], start), t.build(leaves[k:], start+k))
	}
	t.nodes[span{start, len(leaves)}] = r
	return r
}

func (t *refTree) root() Root { return t.nodes[span{0, t.leaves}] }

// prove walks from the root down to leaf i, taking the other half at
// each split, and returns the siblings leaf first.
func (t *refTree) prove(i int) []Root {
	var down []Root
	for start, size := 0, t.leaves; size > 1; {
		k := splitPoint(size)
		if i < start+k {
			down = append(down, t.nodes[span{start + k, size - k}])
			size = k
		} else {
			down = append(down, t.nodes[span{start, k}])
			start, size = start+k, size-k
		}
	}
	var path []Root
	for j := len(down) - 1; j >= 0; j-- {
		path = append(path, down[j])
	}
	return path
}

// splitPoint returns the largest power of two strictly less than n (n >= 2),
// per RFC 6962.
func splitPoint(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

func TestMatchesRFC6962Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 1; n <= 300; n++ {
		chunks := randChunks(rng, n, 8)
		leaves := make([]Root, n)
		for i, c := range chunks {
			leaves[i] = HashLeaf(c)
		}
		ref := newRefTree(leaves)
		tree := NewTree(chunks)
		if tree.Root() != ref.root() || RootOfLeaves(leaves) != ref.root() {
			t.Fatalf("n=%d: root differs from the RFC 6962 reference", n)
		}
		for i := 0; i < n; i++ {
			proof, err := tree.Prove(i)
			if err != nil {
				t.Fatalf("n=%d Prove(%d): %v", n, i, err)
			}
			want := ref.prove(i)
			if proof.Index != i || proof.Leaves != n || len(proof.Path) != len(want) {
				t.Fatalf("n=%d leaf %d: proof %+v, reference path of %d", n, i, proof, len(want))
			}
			for k := range want {
				if proof.Path[k] != want[k] {
					t.Fatalf("n=%d leaf %d: path[%d] differs from the reference", n, i, k)
				}
			}
			if !VerifyLeaf(ref.root(), leaves[i], Proof{Index: i, Leaves: n, Path: want}) {
				t.Fatalf("n=%d: reference proof for leaf %d rejected", n, i)
			}
		}
	}
}

func TestVerifyRejectsExtendedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	chunks := randChunks(rng, 9, 32)
	tree := NewTree(chunks)
	for _, i := range []int{0, 8} { // 8 is promoted at every level but the last
		proof, _ := tree.Prove(i)
		proof.Path = append(proof.Path, tree.Root())
		if Verify(tree.Root(), chunks[i], proof) {
			t.Fatalf("proof for leaf %d with an extra sibling accepted", i)
		}
	}
}

func TestVerifyRejectsWrongLeafCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	chunks := randChunks(rng, 9, 32)
	tree := NewTree(chunks)
	proof, _ := tree.Prove(8)
	for _, n := range []int{0, 8, 10, 16} {
		bad := proof
		bad.Leaves = n
		if Verify(tree.Root(), chunks[8], bad) {
			t.Fatalf("proof for leaf 8 of 9 accepted as one of %d leaves", n)
		}
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
