// Package merkle implements the Merkle tree commitments used by AVID-M.
//
// A tree is built over an ordered list of chunks. The root is a 32-byte
// commitment to the whole list; a Proof shows that a particular chunk is
// the i-th leaf under a given root. The construction follows RFC 6962
// (Certificate Transparency): leaves and interior nodes are hashed with
// distinct domain-separation prefixes, which prevents an attacker from
// presenting an interior node as a leaf or vice versa, and the tree over n
// leaves splits at the largest power of two strictly less than n, so any
// leaf count is supported without padding.
package merkle

import (
	"crypto/sha256"
	"errors"
)

// RootSize is the size of a Merkle root in bytes.
const RootSize = sha256.Size

// Root is a Merkle tree root: the commitment AVID-M agrees on.
type Root [RootSize]byte

// Proof proves that a chunk is the leaf at a given index under some root.
type Proof struct {
	Index  int    // leaf position, 0-based
	Leaves int    // total number of leaves in the tree
	Path   []Root // sibling hashes from the leaf to the root
}

// Domain-separation prefixes of leaf and interior hashes.
const (
	leafPrefix     byte = 0x00
	interiorPrefix byte = 0x01
)

// ErrBadProof is returned by Verify for structurally invalid proofs.
var ErrBadProof = errors.New("merkle: malformed proof")

// HashLeaf returns the leaf hash of a chunk.
func HashLeaf(chunk []byte) Root {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(chunk)
	var r Root
	h.Sum(r[:0])
	return r
}

func hashInterior(left, right Root) Root {
	var b [1 + 2*RootSize]byte
	b[0] = interiorPrefix
	copy(b[1:], left[:])
	copy(b[1+RootSize:], right[:])
	return sha256.Sum256(b[:])
}

// Tree is an in-memory Merkle tree. Build once, then read the Root and
// generate Proofs; a Tree is safe for concurrent reads.
type Tree struct {
	leaves int
	root   Root
	// nodes caches every subtree hash, keyed by (start, size) range of
	// leaves, to make proof generation O(log n) after an O(n) build.
	nodes map[span]Root
}

type span struct{ start, size int }

// NewTree builds a Merkle tree over the given chunks. It panics if chunks
// is empty: AVID-M always has N >= 1 chunks.
func NewTree(chunks [][]byte) *Tree {
	if len(chunks) == 0 {
		panic("merkle: empty leaf list")
	}
	t := &Tree{leaves: len(chunks), nodes: make(map[span]Root, 2*len(chunks))}
	t.root = t.build(chunks, 0)
	return t
}

func (t *Tree) build(chunks [][]byte, start int) Root {
	var r Root
	if len(chunks) == 1 {
		r = HashLeaf(chunks[0])
	} else {
		k := splitPoint(len(chunks))
		left := t.build(chunks[:k], start)
		right := t.build(chunks[k:], start+k)
		r = hashInterior(left, right)
	}
	t.nodes[span{start, len(chunks)}] = r
	return r
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

// Root returns the tree root.
func (t *Tree) Root() Root { return t.root }

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return t.leaves }

// Prove returns the inclusion proof for leaf i.
func (t *Tree) Prove(i int) (Proof, error) {
	if i < 0 || i >= t.leaves {
		return Proof{}, ErrBadProof
	}
	p := Proof{Index: i, Leaves: t.leaves}
	start, size := 0, t.leaves
	// Walk down from the root to the leaf, recording the sibling at each
	// step; then reverse so Path runs leaf -> root.
	var down []Root
	for size > 1 {
		k := splitPoint(size)
		if i < start+k {
			down = append(down, t.nodes[span{start + k, size - k}])
			size = k
		} else {
			down = append(down, t.nodes[span{start, k}])
			start, size = start+k, size-k
		}
	}
	for j := len(down) - 1; j >= 0; j-- {
		p.Path = append(p.Path, down[j])
	}
	return p, nil
}

// Verify reports whether proof shows that chunk is the leaf at proof.Index
// of a tree with proof.Leaves leaves whose root is root.
func Verify(root Root, chunk []byte, proof Proof) bool {
	return VerifyLeaf(root, HashLeaf(chunk), proof)
}

// VerifyLeaf is Verify for a chunk whose leaf hash (HashLeaf) the caller
// already has, or wants to keep: AVID-M retrieval rebuilds the root from
// the leaf hashes of the chunks it accepted.
func VerifyLeaf(root, leaf Root, proof Proof) bool {
	if proof.Index < 0 || proof.Leaves <= 0 || proof.Index >= proof.Leaves {
		return false
	}
	// Walk the RFC 6962 splits from the root down to the leaf, noting at
	// each level whether the path goes right; then hash bottom-up. A tree
	// of int-many leaves is less than 64 levels deep.
	var right uint64
	depth := 0
	for start, size := 0, proof.Leaves; size > 1; depth++ {
		k := splitPoint(size)
		if proof.Index < start+k {
			size = k
		} else {
			right |= 1 << depth
			start, size = start+k, size-k
		}
	}
	if len(proof.Path) != depth {
		return false
	}
	h := leaf
	for i, sib := range proof.Path {
		if right&(1<<(depth-1-i)) != 0 { // current node is a right child
			h = hashInterior(sib, h)
		} else {
			h = hashInterior(h, sib)
		}
	}
	return h == root
}

// RootOfLeaves returns the root of the tree whose leaves hash to leaves,
// in order: NewTree's root over the chunks they are the HashLeaf of,
// without building the Tree. leaves must not be empty.
func RootOfLeaves(leaves []Root) Root {
	if len(leaves) == 1 {
		return leaves[0]
	}
	k := splitPoint(len(leaves))
	return hashInterior(RootOfLeaves(leaves[:k]), RootOfLeaves(leaves[k:]))
}
