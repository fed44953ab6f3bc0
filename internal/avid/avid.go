// Package avid implements AVID-M, the asynchronous verifiable information
// dispersal protocol of §3 of the DispersedLedger paper.
//
// A dispersing client erasure-codes a block into N chunks with an
// (N−2f, N) code, commits to them with a Merkle root, and sends one chunk
// (plus inclusion proof) to each server. Servers never verify the
// encoding; they only agree on the root via one round of GotChunk and one
// amplifying round of Ready messages. Retrieval clients collect N−2f
// proof-valid chunks under a common root, decode, and then re-encode to
// check that the root commits to a consistent encoding — if not, every
// client deterministically returns the BAD_UPLOADER error value, which
// preserves the Correctness property against a Byzantine disperser.
//
// The check re-encodes only what the client did not receive. The code is
// MDS: the data decoded from K rows re-encodes to exactly those K rows,
// whose leaf hashes the proof checks already computed. So the client
// computes the N−K other rows, hashes them, and compares the root built
// from all N leaves. A full re-encode also compared two things the K rows
// do not show, and the client checks them outright: the shard size is
// the one Split gives the decoded block's length, and every padding byte
// after the block is zero. With both, the rows are the block's one
// canonical encoding, and the outcome — block or BAD_UPLOADER — is the
// full re-encode's for every set of K chunks.
//
// The package provides three pieces:
//
//   - Server: the per-instance server automaton (Fig 3 + the server side
//     of Fig 4),
//   - Disperse: the client-side dispersal (chunking + Chunk messages),
//   - Retriever: the client-side retrieval automaton (Fig 4).
//
// All automata are deterministic and single-threaded, driven by Handle
// calls from the replica event loop.
//
// A Server journals what it says, as a ba.BA journals its votes (see
// SetJournal); Restore replays the journal and Resend re-sends what it
// said after a restart.
package avid

import (
	"fmt"
	"sync"

	"dledger/internal/erasure"
	"dledger/internal/merkle"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// scratchPool recycles erasure-encode scratch across the transient
// re-encode paths — retrieval verification and own-chunk back-fill —
// where the shards are discarded (or copied out) before the next use.
// Dispersal proper keeps Split: its shards travel in Chunk messages and
// must own their memory.
var scratchPool = sync.Pool{New: func() any { return new(erasure.Scratch) }}

// BadUploader is the fixed error value returned by retrieval when the
// dispersed chunks are not a consistent erasure encoding (§3.3). All
// correct clients return the identical value, which is what the
// Correctness property requires.
var BadUploader = []byte("BAD_UPLOADER")

// Params describes an AVID-M deployment: N servers tolerating F Byzantine
// ones. K = N − 2F is the erasure-code data-shard count.
type Params struct {
	N, F  int
	Coder *erasure.Coder
}

// NewParams builds Params (and the shared erasure coder) for n servers
// tolerating f faults. It requires n >= 3f+1.
func NewParams(n, f int) (Params, error) {
	if f < 0 || n < 3*f+1 {
		return Params{}, fmt.Errorf("avid: need n >= 3f+1, got n=%d f=%d", n, f)
	}
	c, err := erasure.New(n-2*f, n)
	if err != nil {
		return Params{}, err
	}
	return Params{N: n, F: f, Coder: c}, nil
}

// K returns the number of chunks needed to reconstruct a block.
func (p Params) K() int { return p.N - 2*p.F }

// Send is an outgoing message produced by an automaton. To may be
// wire.Broadcast.
type Send struct {
	To  wire.NodeID
	Msg wire.Msg
}

// Disperse encodes block and produces the per-server Chunk messages:
// result[i] is addressed to server i. It also returns the Merkle root
// commitment of the dispersal.
func Disperse(p Params, block []byte) ([]wire.Chunk, merkle.Root, error) {
	shards, err := p.Coder.Split(block)
	if err != nil {
		return nil, merkle.Root{}, err
	}
	tree := merkle.NewTree(shards)
	root := tree.Root()
	msgs := make([]wire.Chunk, p.N)
	for i := 0; i < p.N; i++ {
		proof, err := tree.Prove(i)
		if err != nil {
			return nil, merkle.Root{}, err
		}
		msgs[i] = wire.Chunk{Root: root, Data: shards[i], Proof: proof}
	}
	return msgs, root, nil
}

// OwnChunk re-encodes a full block and returns server self's leaf: the
// Merkle root, the chunk, and its inclusion proof. A node that
// retrieved a block over the network uses it to back-fill the chunk its
// crashed or not-yet-joined incarnation never received, restoring its
// availability promise for the instance.
func OwnChunk(p Params, self int, block []byte) (merkle.Root, []byte, merkle.Proof, error) {
	sc := scratchPool.Get().(*erasure.Scratch)
	defer scratchPool.Put(sc)
	shards, err := p.Coder.SplitInto(block, sc)
	if err != nil {
		return merkle.Root{}, nil, merkle.Proof{}, err
	}
	tree := merkle.NewTree(shards)
	proof, err := tree.Prove(self)
	if err != nil {
		return merkle.Root{}, nil, merkle.Proof{}, err
	}
	// The scratch is reused after return: the one shard we keep is copied.
	chunk := append([]byte(nil), shards[self]...)
	return tree.Root(), chunk, proof, nil
}

// Server is the per-instance server automaton.
type Server struct {
	p    Params
	self int

	myChunk []byte
	myProof merkle.Proof
	myRoot  merkle.Root
	haveMy  bool

	gotChunkFrom map[merkle.Root]peerSet
	readyFrom    map[merkle.Root]peerSet
	sentReady    bool
	// said is what the server put on the wire, for Resend; journal,
	// when set, observes each record as it is made.
	said    []Send
	journal func(store.ChunkRecord)

	completed bool
	chunkRoot merkle.Root

	// Retrieval state per requester, indexed by server id. Requests that
	// arrived before completion (or before we had a matching chunk) are
	// pending until both hold. answered tracks requesters we already
	// served, so duplicate RequestChunk messages are ignored per the paper.
	pending, answered, canceled []bool
}

// peerSet is a set of server ids in [0, N) and its size.
type peerSet struct {
	in []bool
	n  int
}

// NewServer creates the server automaton for one VID instance.
func NewServer(p Params, self int) *Server {
	req := make([]bool, 3*p.N)
	return &Server{
		p:            p,
		self:         self,
		gotChunkFrom: map[merkle.Root]peerSet{},
		readyFrom:    map[merkle.Root]peerSet{},
		pending:      req[:p.N:p.N],
		answered:     req[p.N : 2*p.N : 2*p.N],
		canceled:     req[2*p.N:],
	}
}

// SetJournal installs an observer for the server's journal, as chunk
// records without epoch and proposer: the chunk it accepts before its
// GotChunk, each Ready before it is sent, and its completion. A caller
// that persists them and syncs before transmitting gets
// record-before-wire, so a restarted server holds the chunk it
// acknowledged and never says GotChunk or Ready for a second root.
func (s *Server) SetJournal(fn func(store.ChunkRecord)) { s.journal = fn }

// Restore rebuilds a server by replaying its journal in append order
// through the transitions that made it. Received quorum state is not
// restored; Resend and the peers' re-sends rebuild it.
func Restore(p Params, self int, journal []store.ChunkRecord) *Server {
	s := NewServer(p, self)
	for _, c := range journal {
		switch c.Kind {
		case store.ChunkGot:
			s.accept(c.Root, c.Data, c.Proof)
		case store.ChunkReady:
			s.ready(c.Root)
		default:
			s.complete(c.Root, c.Data, c.Proof)
		}
	}
	return s
}

// Resend returns the GotChunk and Ready this server said, for broadcast
// after a restart, which leaves no other copy of an unfinished quorum.
func (s *Server) Resend() []Send { return s.said }

func (s *Server) record(c store.ChunkRecord) {
	if s.journal != nil {
		s.journal(c)
	}
}

// accept stores the server's chunk and says GotChunk for it.
func (s *Server) accept(root merkle.Root, data []byte, proof merkle.Proof) Send {
	s.record(store.ChunkRecord{Kind: store.ChunkGot, Root: root, Data: data, Proof: proof})
	s.haveMy, s.myChunk, s.myProof, s.myRoot = true, data, proof, root
	s.said = append(s.said, Send{To: wire.Broadcast, Msg: wire.GotChunk{Root: root}})
	return s.said[len(s.said)-1]
}

func (s *Server) ready(root merkle.Root) Send {
	s.record(store.ChunkRecord{Kind: store.ChunkReady, Root: root})
	s.sentReady = true
	s.said = append(s.said, Send{To: wire.Broadcast, Msg: wire.Ready{Root: root}})
	return s.said[len(s.said)-1]
}

// complete installs completion under root. A completion with data is
// adopted (see AdoptComplete): data replaces a chunk that does not
// match root, and no Ready is owed.
func (s *Server) complete(root merkle.Root, data []byte, proof merkle.Proof) {
	if s.haveMy && s.myRoot == root {
		data = nil
	}
	s.record(store.ChunkRecord{Root: root, HasChunk: len(data) > 0, Data: data, Proof: proof})
	s.completed, s.chunkRoot = true, root
	if len(data) > 0 {
		s.haveMy, s.myChunk, s.myProof, s.myRoot = true, data, proof, root
		s.sentReady = true
	}
}

// Completed reports whether dispersal has Completed at this server, and
// the agreed root.
func (s *Server) Completed() (bool, merkle.Root) { return s.completed, s.chunkRoot }

// AdoptComplete installs a completion learned outside the quorum path:
// the caller retrieved (and re-encoding-verified) the instance's full
// block, so the dispersal provably completed cluster-wide, and root,
// data, proof are this server's own recomputed leaf. The adopted
// server sends no quorum messages — completion is stable and the
// instance's epoch is already decided or linked. Pending retrieval
// requests are answered now that a chunk is in hand. A server already
// completed under a different root, or already holding its chunk under
// root, ignores the call.
func (s *Server) AdoptComplete(root merkle.Root, data []byte, proof merkle.Proof) []Send {
	if s.completed && (s.chunkRoot != root || s.HasChunk()) {
		return nil
	}
	s.complete(root, data, proof)
	s.sentReady = true
	return s.flushPending()
}

// StoredChunk exposes the server's chunk for state sync: the agreed
// root and, when the server holds a chunk matching it, the chunk and
// proof. ok mirrors HasChunk. Only meaningful after completion.
func (s *Server) StoredChunk() (root merkle.Root, data []byte, proof merkle.Proof, ok bool) {
	return s.chunkRoot, s.myChunk, s.myProof, s.HasChunk()
}

// HasChunk reports whether this server stored a chunk matching the agreed
// root (only meaningful after completion).
func (s *Server) HasChunk() bool {
	return s.haveMy && s.completed && s.myRoot == s.chunkRoot
}

// Handle processes one message. completed is true on the step where the
// dispersal first Completes locally.
func (s *Server) Handle(from int, msg wire.Msg) (outs []Send, completed bool) {
	if m, ok := msg.(wire.Chunk); ok {
		return s.onChunk(m), false
	}
	// Quorum messages only count from, and requests are only served to,
	// actual servers.
	if from < 0 || from >= s.p.N {
		return nil, false
	}
	switch m := msg.(type) {
	case wire.GotChunk:
		outs = s.onGotChunk(from, m)
	case wire.Ready:
		outs, completed = s.onReady(from, m)
	case wire.RequestChunk:
		outs = s.onRequest(from)
	case wire.RequestChunkAgain:
		// A restarted retriever lost whatever we answered before its
		// crash: clear the duplicate suppression and answer afresh. The
		// amplification a Byzantine sender gains is one chunk per
		// message — no worse than a first request.
		s.answered[from] = false
		s.canceled[from] = false
		outs = s.onRequest(from)
	case wire.CancelRequest:
		s.canceled[from] = true
	}
	return outs, completed
}

func (s *Server) onChunk(m wire.Chunk) []Send {
	// Verify that the chunk is the self-th leaf under the claimed root;
	// only the first valid one is kept and answered.
	if s.haveMy || m.Proof.Index != s.self || !merkle.Verify(m.Root, m.Data, m.Proof) {
		return nil
	}
	return append([]Send{s.accept(m.Root, m.Data, m.Proof)}, s.flushPending()...)
}

// vote adds from to root's set in votes and returns the set's size, or
// 0 when from was already in it.
func (s *Server) vote(votes map[merkle.Root]peerSet, root merkle.Root, from int) int {
	set := votes[root]
	if set.in == nil {
		set.in = make([]bool, s.p.N)
	} else if set.in[from] {
		return 0
	}
	set.in[from] = true
	set.n++
	votes[root] = set
	return set.n
}

func (s *Server) onGotChunk(from int, m wire.GotChunk) []Send {
	if s.vote(s.gotChunkFrom, m.Root, from) >= s.p.N-s.p.F && !s.sentReady {
		return []Send{s.ready(m.Root)}
	}
	return nil
}

func (s *Server) onReady(from int, m wire.Ready) (outs []Send, completed bool) {
	n := s.vote(s.readyFrom, m.Root, from)
	if n == 0 {
		return nil, false
	}
	if n >= s.p.F+1 && !s.sentReady {
		outs = append(outs, s.ready(m.Root))
	}
	if n >= 2*s.p.F+1 && !s.completed {
		s.complete(m.Root, nil, merkle.Proof{})
		completed = true
		outs = append(outs, s.flushPending()...)
	}
	return outs, completed
}

func (s *Server) onRequest(from int) []Send {
	if s.answered[from] {
		return nil
	}
	s.pending[from] = true
	return s.flushPending()
}

// flushPending answers queued retrieval requests once the dispersal has
// completed and our stored chunk matches the agreed root. Per Fig 4, a
// server defers responding until then.
func (s *Server) flushPending() []Send {
	if !s.completed || !s.haveMy || s.myRoot != s.chunkRoot {
		return nil
	}
	// Answer in requester order: several requests can be pending when the
	// dispersal completes, and the emulator's whole-cluster runs replay
	// byte-for-byte from a seed.
	var outs []Send
	for from, waiting := range s.pending {
		if !waiting {
			continue
		}
		s.pending[from] = false
		if s.answered[from] || s.canceled[from] {
			continue
		}
		s.answered[from] = true
		outs = append(outs, Send{To: from, Msg: wire.ReturnChunk{
			Root:  s.chunkRoot,
			Data:  s.myChunk,
			Proof: s.myProof,
		}})
	}
	return outs
}

// Retriever is the client-side retrieval automaton (Fig 4).
type Retriever struct {
	p       Params
	started bool
	done    bool
	result  []byte
	bad     bool

	chunks map[merkle.Root]map[int]accepted
	from   map[int]bool // dedup: one ReturnChunk per server counts
}

// accepted is a chunk whose proof verified, with the leaf hash the check
// computed: the re-encoding check reuses it instead of hashing the chunk
// again.
type accepted struct {
	data []byte
	leaf merkle.Root
}

// NewRetriever creates a retrieval client for one VID instance.
func NewRetriever(p Params) *Retriever {
	return &Retriever{
		p:      p,
		chunks: map[merkle.Root]map[int]accepted{},
		from:   map[int]bool{},
	}
}

// Start returns the RequestChunk broadcast. Idempotent.
func (r *Retriever) Start() []Send {
	if r.started {
		return nil
	}
	r.started = true
	return []Send{{To: wire.Broadcast, Msg: wire.RequestChunk{}}}
}

// Done reports completion; after Done, Block returns the retrieved block.
func (r *Retriever) Done() bool { return r.done }

// Answered reports whether a valid chunk from the given server has been
// counted (retry logic uses it to re-ask only silent servers).
func (r *Retriever) Answered(from int) bool { return r.from[from] }

// Block returns the retrieval result. bad is true when the dispersal was
// inconsistent (the paper's BAD_UPLOADER case); block then equals
// BadUploader.
func (r *Retriever) Block() (block []byte, bad bool) { return r.result, r.bad }

// HandleReturnChunk ingests a server response. done flips to true on the
// step the block is first reconstructed; outs carries the CancelRequest
// broadcast that stops servers from sending further chunks.
func (r *Retriever) HandleReturnChunk(from int, m wire.ReturnChunk) (outs []Send, done bool) {
	if r.done || from < 0 || from >= r.p.N {
		return nil, false
	}
	// The chunk position is bound to the responding server: server i
	// stores and returns the i-th chunk. A proof for a different index is
	// invalid regardless of its Merkle path.
	if m.Proof.Index != from {
		return nil, false
	}
	leaf := merkle.HashLeaf(m.Data)
	if !merkle.VerifyLeaf(m.Root, leaf, m.Proof) {
		return nil, false
	}
	if r.from[from] {
		return nil, false
	}
	r.from[from] = true
	set := r.chunks[m.Root]
	if set == nil {
		set = map[int]accepted{}
		r.chunks[m.Root] = set
	}
	set[from] = accepted{data: m.Data, leaf: leaf}

	if len(set) < r.p.K() {
		return nil, false
	}
	r.decode(m.Root, set)
	return []Send{{To: wire.Broadcast, Msg: wire.CancelRequest{}}}, true
}

// decode reconstructs the block from the K chunks accepted under root and
// runs the re-encoding check (§3.3): the block must re-encode to the N
// chunks root commits to. The K accepted chunks need no re-encoding — an
// MDS decode from K rows re-encodes to exactly those rows — so only the
// N−K rows nobody sent are computed and hashed, and the root is rebuilt
// from all N leaf hashes. That shortcut holds for canonical encodings
// only: Split sizes the shards for the block and pads with zeros, so both
// are checked before the root.
func (r *Retriever) decode(root merkle.Root, set map[int]accepted) {
	shards := make([][]byte, r.p.N)
	size := 0
	for i, c := range set {
		shards[i] = c.data
		size = len(c.data)
	}
	sc := scratchPool.Get().(*erasure.Scratch)
	defer scratchPool.Put(sc)
	// Decoding fails (e.g. on inconsistent sizes) only for chunks a
	// Byzantine uploader committed to.
	rows, err := r.p.Coder.ReconstructShards(shards, sc)
	if err != nil {
		r.finish(nil, true)
		return
	}
	block, err := erasure.Unframe(rows)
	if err != nil || r.p.Coder.ShardSize(len(block)) != size || !zero(rows[4+len(block):]) {
		r.finish(nil, true)
		return
	}
	leaves := make([]merkle.Root, r.p.N)
	for i, s := range shards {
		if c, ok := set[i]; ok {
			leaves[i] = c.leaf
		} else {
			leaves[i] = merkle.HashLeaf(s)
		}
	}
	if merkle.RootOfLeaves(leaves) != root {
		r.finish(nil, true)
		return
	}
	r.finish(block, false)
}

func zero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

func (r *Retriever) finish(block []byte, bad bool) {
	r.done = true
	r.bad = bad
	if bad {
		r.result = append([]byte(nil), BadUploader...)
	} else {
		r.result = block
	}
	r.chunks = nil
}
