// Package merkle implements the Merkle tree commitments used by AVID-M.
//
// A tree is built over an ordered list of chunks. The root is a 32-byte
// commitment to the whole list; a Proof shows that a particular chunk is
// the i-th leaf under a given root. The construction follows RFC 6962
// (Certificate Transparency): leaves and interior nodes are hashed with
// distinct domain-separation prefixes, which prevents an attacker from
// presenting an interior node as a leaf or vice versa, and the tree over n
// leaves splits at the largest power of two strictly less than n, so any
// leaf count is supported without padding. The tree is built bottom up,
// one level at a time: adjacent nodes are hashed in pairs and an odd last
// node is promoted unhashed, which yields exactly RFC 6962's splits.
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
	// levels[0] holds the leaf hashes, each further level the level
	// below hashed in pairs (see hashLevel), and the last level the root
	// alone, so a proof is one sibling per level.
	levels [][]Root
}

// NewTree builds a Merkle tree over the given chunks. It panics if chunks
// is empty: AVID-M always has N >= 1 chunks.
func NewTree(chunks [][]byte) *Tree {
	if len(chunks) == 0 {
		panic("merkle: empty leaf list")
	}
	level := make([]Root, len(chunks))
	for i, c := range chunks {
		level[i] = HashLeaf(c)
	}
	t := &Tree{levels: [][]Root{level}}
	for len(level) > 1 {
		level = hashLevel(make([]Root, (len(level)+1)/2), level)
		t.levels = append(t.levels, level)
	}
	return t
}

// hashLevel writes the level above level into dst, which may be level
// itself, and returns it: each pair of nodes hashed into their parent,
// an odd last node promoted unhashed.
func hashLevel(dst, level []Root) []Root {
	dst = dst[:(len(level)+1)/2]
	for i := range dst {
		if 2*i+1 < len(level) {
			dst[i] = hashInterior(level[2*i], level[2*i+1])
		} else {
			dst[i] = level[2*i]
		}
	}
	return dst
}

// Root returns the tree root.
func (t *Tree) Root() Root { return t.levels[len(t.levels)-1][0] }

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return len(t.levels[0]) }

// Prove returns the inclusion proof for leaf i.
func (t *Tree) Prove(i int) (Proof, error) {
	if i < 0 || i >= t.Leaves() {
		return Proof{}, ErrBadProof
	}
	p := Proof{Index: i, Leaves: t.Leaves()}
	for _, level := range t.levels[:len(t.levels)-1] {
		if sib := i ^ 1; sib < len(level) {
			p.Path = append(p.Path, level[sib])
		}
		i >>= 1
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
	i, n := proof.Index, proof.Leaves
	if i < 0 || n <= 0 || i >= n {
		return false
	}
	// Climb the levels Prove walked, consuming one sibling wherever the
	// node has one; a promoted node has none.
	h, path := leaf, proof.Path
	for ; n > 1; i, n = i>>1, (n+1)/2 {
		if i^1 >= n {
			continue
		}
		if len(path) == 0 {
			return false
		}
		if i&1 == 1 {
			h = hashInterior(path[0], h)
		} else {
			h = hashInterior(h, path[0])
		}
		path = path[1:]
	}
	return len(path) == 0 && h == root
}

// RootOfLeaves returns the root of the tree whose leaves hash to leaves,
// in order: NewTree's root over the chunks they are the HashLeaf of,
// without building the Tree. leaves must not be empty.
func RootOfLeaves(leaves []Root) Root {
	if len(leaves) == 1 {
		return leaves[0]
	}
	level := hashLevel(make([]Root, (len(leaves)+1)/2), leaves)
	for len(level) > 1 {
		level = hashLevel(level, level)
	}
	return level[0]
}
