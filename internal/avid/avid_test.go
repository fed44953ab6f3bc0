package avid

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"dledger/internal/merkle"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// cluster wires N servers and delivers messages in a configurable order.
type cluster struct {
	p       Params
	servers []*Server
	queue   []qmsg
	rng     *rand.Rand
	// retrievers capture ReturnChunk messages addressed to client ids
	// >= 1000 (so clients and servers do not collide). Client 1000+i runs
	// at server i, as a node's retriever does: servers serve only their
	// peers, so its requests reach them from i and their answers to i
	// come back to it.
	retrievers map[int]*Retriever
}

// clientBase is the id of the retrieval client at server 0.
const clientBase = 1000

type qmsg struct {
	from, to int
	msg      wire.Msg
}

func newCluster(t *testing.T, n, f int, seed int64) *cluster {
	t.Helper()
	p, err := NewParams(n, f)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{p: p, rng: rand.New(rand.NewSource(seed)), retrievers: map[int]*Retriever{}}
	for i := 0; i < n; i++ {
		c.servers = append(c.servers, NewServer(p, i))
	}
	return c
}

func (c *cluster) enqueueSends(from int, sends []Send) {
	for _, s := range sends {
		if s.To == wire.Broadcast {
			for to := range c.servers {
				c.queue = append(c.queue, qmsg{from, to, s.Msg})
			}
		} else if _, answer := s.Msg.(wire.ReturnChunk); answer {
			c.queue = append(c.queue, qmsg{from, clientBase + s.To, s.Msg})
		} else {
			c.queue = append(c.queue, qmsg{from, s.To, s.Msg})
		}
	}
}

// disperse injects the client chunk messages for servers in `recipients`
// (nil = all).
func (c *cluster) disperse(t *testing.T, clientID int, block []byte, recipients []int) merkle.Root {
	t.Helper()
	chunks, root, err := Disperse(c.p, block)
	if err != nil {
		t.Fatal(err)
	}
	if recipients == nil {
		for i := range c.servers {
			c.queue = append(c.queue, qmsg{clientID, i, chunks[i]})
		}
	} else {
		for _, i := range recipients {
			c.queue = append(c.queue, qmsg{clientID, i, chunks[i]})
		}
	}
	return root
}

// run delivers queued messages in random order. drop(from,to) can censor.
func (c *cluster) run(t *testing.T, drop func(from, to int) bool) {
	t.Helper()
	steps := 0
	for len(c.queue) > 0 {
		steps++
		if steps > 1_000_000 {
			t.Fatal("AVID cluster did not quiesce")
		}
		i := c.rng.Intn(len(c.queue))
		m := c.queue[i]
		c.queue[i] = c.queue[len(c.queue)-1]
		c.queue = c.queue[:len(c.queue)-1]
		if drop != nil && drop(m.from, m.to) {
			continue
		}
		if m.to >= clientBase {
			ret := c.retrievers[m.to]
			if ret == nil {
				continue
			}
			if rc, ok := m.msg.(wire.ReturnChunk); ok {
				outs, _ := ret.HandleReturnChunk(m.from, rc)
				c.enqueueSends(m.to, outs)
			}
			continue
		}
		from := m.from
		if c.retrievers[from] != nil {
			from -= clientBase
		}
		outs, _ := c.servers[m.to].Handle(from, m.msg)
		c.enqueueSends(m.to, outs)
	}
}

func (c *cluster) startRetriever(id int) *Retriever {
	r := NewRetriever(c.p)
	c.retrievers[id] = r
	c.enqueueSends(id, r.Start())
	return r
}

func TestDispersalTermination(t *testing.T) {
	// Correct client, no faults: all servers Complete with the same root.
	for seed := int64(0); seed < 10; seed++ {
		c := newCluster(t, 4, 1, seed)
		block := []byte("the quick brown fox jumps over the lazy dog")
		root := c.disperse(t, 2000, block, nil)
		c.run(t, nil)
		for i, s := range c.servers {
			done, r := s.Completed()
			if !done {
				t.Fatalf("seed %d: server %d did not Complete", seed, i)
			}
			if r != root {
				t.Fatalf("seed %d: server %d completed with wrong root", seed, i)
			}
		}
	}
}

func TestDispersalWithFCrashedServers(t *testing.T) {
	// Termination must hold when f servers never receive anything.
	c := newCluster(t, 7, 2, 1)
	block := make([]byte, 10_000)
	rand.New(rand.NewSource(2)).Read(block)
	c.disperse(t, 2000, block, nil)
	crashed := map[int]bool{5: true, 6: true}
	c.run(t, func(from, to int) bool { return crashed[to] || crashed[from] })
	for i := 0; i < 5; i++ {
		if done, _ := c.servers[i].Completed(); !done {
			t.Fatalf("server %d did not Complete with f crashed peers", i)
		}
	}
}

func TestAgreementPropagates(t *testing.T) {
	// If one correct server Completes, eventually all do — even when the
	// dispersing client only reaches a bare quorum of servers.
	c := newCluster(t, 4, 1, 3)
	block := []byte("partial dispersal")
	// Client sends chunks only to servers 0..2 (N-f = 3 of them).
	c.disperse(t, 2000, block, []int{0, 1, 2})
	c.run(t, nil)
	completedCount := 0
	for _, s := range c.servers {
		if done, _ := s.Completed(); done {
			completedCount++
		}
	}
	if completedCount != 4 {
		t.Fatalf("agreement violated: %d/4 servers completed", completedCount)
	}
}

func TestRetrieveRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := newCluster(t, 4, 1, seed)
		block := make([]byte, 5000)
		rand.New(rand.NewSource(seed)).Read(block)
		c.disperse(t, 2000, block, nil)
		c.run(t, nil)
		ret := c.startRetriever(1000)
		c.run(t, nil)
		if !ret.Done() {
			t.Fatal("retrieval did not finish")
		}
		got, bad := ret.Block()
		if bad || !bytes.Equal(got, block) {
			t.Fatalf("seed %d: retrieved wrong block (bad=%v)", seed, bad)
		}
	}
}

func TestRetrieveBeforeDispersalCompletes(t *testing.T) {
	// Requests that arrive before completion are deferred, then answered.
	c := newCluster(t, 4, 1, 5)
	block := []byte("deferred responses")
	ret := c.startRetriever(1000)
	c.run(t, nil) // requests hit servers that have nothing yet
	c.disperse(t, 2000, block, nil)
	c.run(t, nil)
	if !ret.Done() {
		t.Fatal("retrieval did not finish after late dispersal")
	}
	got, bad := ret.Block()
	if bad || !bytes.Equal(got, block) {
		t.Fatal("wrong block after deferred retrieval")
	}
}

func TestRetrieveWithByzantineWithholding(t *testing.T) {
	// f servers complete dispersal but refuse to answer retrieval.
	c := newCluster(t, 4, 1, 7)
	block := make([]byte, 2048)
	rand.New(rand.NewSource(7)).Read(block)
	c.disperse(t, 2000, block, nil)
	c.run(t, nil)
	ret := c.startRetriever(1000)
	c.run(t, func(from, to int) bool {
		return from == 3 && to >= 1000 // server 3 withholds chunks
	})
	if !ret.Done() {
		t.Fatal("retrieval must succeed with f withholding servers")
	}
	got, bad := ret.Block()
	if bad || !bytes.Equal(got, block) {
		t.Fatal("wrong block with withholding server")
	}
}

func TestCorrectnessTwoClientsSameBlock(t *testing.T) {
	// Two retrieval clients must reconstruct the same block even when they
	// use different chunk subsets (we bias which servers answer whom).
	c := newCluster(t, 7, 2, 11)
	block := make([]byte, 9000)
	rand.New(rand.NewSource(11)).Read(block)
	c.disperse(t, 2000, block, nil)
	c.run(t, nil)
	r1 := c.startRetriever(1000)
	r2 := c.startRetriever(1001)
	c.run(t, func(from, to int) bool {
		// Client 1000 never hears from servers 0,1; client 1001 never
		// from servers 5,6 — forcing different decode subsets.
		if to == 1000 && (from == 0 || from == 1) {
			return true
		}
		if to == 1001 && (from == 5 || from == 6) {
			return true
		}
		return false
	})
	if !r1.Done() || !r2.Done() {
		t.Fatal("both retrievals should finish")
	}
	b1, bad1 := r1.Block()
	b2, bad2 := r2.Block()
	if bad1 || bad2 || !bytes.Equal(b1, b2) || !bytes.Equal(b1, block) {
		t.Fatal("clients disagree on retrieved block")
	}
}

// byzantineDisperse builds chunk messages that are individually
// proof-valid under one Merkle root but are NOT a consistent erasure
// encoding: each chunk is random bytes, committed honestly.
func byzantineDisperse(t *testing.T, p Params, chunkSize int, seed int64) []wire.Chunk {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shards := make([][]byte, p.N)
	for i := range shards {
		shards[i] = make([]byte, chunkSize)
		rng.Read(shards[i])
	}
	tree := merkle.NewTree(shards)
	msgs := make([]wire.Chunk, p.N)
	for i := 0; i < p.N; i++ {
		proof, err := tree.Prove(i)
		if err != nil {
			t.Fatal(err)
		}
		msgs[i] = wire.Chunk{Root: tree.Root(), Data: shards[i], Proof: proof}
	}
	return msgs
}

func TestBadUploaderDetectedConsistently(t *testing.T) {
	// A Byzantine disperser commits to inconsistent chunks. Dispersal
	// still completes (servers cannot tell), but every retrieval client
	// must return the identical BAD_UPLOADER value.
	for seed := int64(0); seed < 10; seed++ {
		c := newCluster(t, 4, 1, seed)
		for i, m := range byzantineDisperse(t, c.p, 128, seed) {
			c.queue = append(c.queue, qmsg{2000, i, m})
		}
		c.run(t, nil)
		for i, s := range c.servers {
			if done, _ := s.Completed(); !done {
				t.Fatalf("server %d did not complete inconsistent dispersal", i)
			}
		}
		r1 := c.startRetriever(1000)
		r2 := c.startRetriever(1001)
		c.run(t, func(from, to int) bool {
			return to == 1000 && from == 0 || to == 1001 && from == 3
		})
		b1, bad1 := r1.Block()
		b2, bad2 := r2.Block()
		if !r1.Done() || !r2.Done() {
			t.Fatal("retrievals did not finish")
		}
		if !bad1 || !bad2 {
			t.Fatalf("seed %d: inconsistent encoding not flagged (bad1=%v bad2=%v)", seed, bad1, bad2)
		}
		if !bytes.Equal(b1, b2) || !bytes.Equal(b1, BadUploader) {
			t.Fatal("BAD_UPLOADER values differ between clients")
		}
	}
}

func TestChunkForWrongIndexRejected(t *testing.T) {
	c := newCluster(t, 4, 1, 0)
	chunks, _, err := Disperse(c.p, []byte("block"))
	if err != nil {
		t.Fatal(err)
	}
	// Deliver server 1's chunk to server 0: the proof index (1) does not
	// match the receiving server (0), so it must be ignored.
	outs, _ := c.servers[0].Handle(2000, chunks[1])
	if len(outs) != 0 {
		t.Fatal("server accepted a chunk for a different index")
	}
}

func TestTamperedChunkRejected(t *testing.T) {
	c := newCluster(t, 4, 1, 0)
	chunks, _, err := Disperse(c.p, []byte("tamper test block"))
	if err != nil {
		t.Fatal(err)
	}
	bad := chunks[0]
	bad.Data = append([]byte(nil), bad.Data...)
	bad.Data[0] ^= 1
	outs, _ := c.servers[0].Handle(2000, bad)
	if len(outs) != 0 {
		t.Fatal("server accepted a tampered chunk")
	}
}

func TestDuplicateMessagesIgnored(t *testing.T) {
	c := newCluster(t, 4, 1, 0)
	var root merkle.Root
	root[0] = 9
	// First GotChunk from node 1 counts; duplicates must not.
	c.servers[0].Handle(1, wire.GotChunk{Root: root})
	c.servers[0].Handle(1, wire.GotChunk{Root: root})
	c.servers[0].Handle(2, wire.GotChunk{Root: root})
	// With N-f = 3 needed, two distinct senders must not trigger Ready.
	if c.servers[0].sentReady {
		t.Fatal("duplicate GotChunk counted toward quorum")
	}
	outs, _ := c.servers[0].Handle(3, wire.GotChunk{Root: root})
	if len(outs) != 1 {
		t.Fatal("third distinct GotChunk should trigger Ready")
	}
}

func TestEquivocatingReadyDoesNotSplitCompletion(t *testing.T) {
	// Byzantine servers send Ready for a bogus root; correct servers must
	// not complete on it (needs 2f+1 = 3 > f = 1 forged Readies).
	c := newCluster(t, 4, 1, 0)
	var bogus merkle.Root
	bogus[0] = 0xAA
	c.servers[0].Handle(3, wire.Ready{Root: bogus})
	if done, _ := c.servers[0].Completed(); done {
		t.Fatal("completed from a single forged Ready")
	}
	// Even with the f+1 amplification, one Byzantine Ready (f=1) is below
	// the f+1 = 2 threshold, so no amplification happens either.
	if c.servers[0].sentReady {
		t.Fatal("amplified Ready from below-threshold evidence")
	}
}

func TestRetrieverRejectsBadProofs(t *testing.T) {
	p, _ := NewParams(4, 1)
	chunks, root, _ := Disperse(p, []byte("some block data"))
	r := NewRetriever(p)
	r.Start()
	// Response from server 2 carrying server 1's chunk: index mismatch.
	outs, done := r.HandleReturnChunk(2, wire.ReturnChunk{Root: root, Data: chunks[1].Data, Proof: chunks[1].Proof})
	if done || len(outs) != 0 {
		t.Fatal("retriever accepted chunk with mismatched index")
	}
}

func TestRetrieverDedupsPerServer(t *testing.T) {
	p, _ := NewParams(4, 1)
	chunks, root, _ := Disperse(p, []byte("dedup"))
	r := NewRetriever(p)
	r.Start()
	rc := wire.ReturnChunk{Root: root, Data: chunks[0].Data, Proof: chunks[0].Proof}
	r.HandleReturnChunk(0, rc)
	if _, done := r.HandleReturnChunk(0, rc); done {
		t.Fatal("duplicate from same server advanced retrieval")
	}
}

func TestCancelRequestSuppressesResponse(t *testing.T) {
	c := newCluster(t, 4, 1, 0)
	block := []byte("cancel me")
	c.disperse(t, 2000, block, nil)
	c.run(t, nil)
	s := c.servers[0]
	s.Handle(2, wire.CancelRequest{})
	outs, _ := s.Handle(2, wire.RequestChunk{})
	if len(outs) != 0 {
		t.Fatal("server answered a canceled requester")
	}
	if outs, _ := s.Handle(3, wire.RequestChunk{}); len(outs) != 1 || outs[0].To != 3 {
		t.Fatalf("server answered a live requester with %v", outs)
	}
}

func TestRequestsFromNonServersIgnored(t *testing.T) {
	c := newCluster(t, 4, 1, 0)
	c.disperse(t, 2000, []byte("served to peers only"), nil)
	c.run(t, nil)
	s := c.servers[0]
	for _, from := range []int{-1, 4, clientBase} {
		for _, m := range []wire.Msg{wire.CancelRequest{}, wire.RequestChunk{}, wire.RequestChunkAgain{}} {
			if outs, _ := s.Handle(from, m); len(outs) != 0 {
				t.Fatalf("server answered %T from non-server %d", m, from)
			}
		}
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := NewParams(3, 1); err == nil {
		t.Fatal("NewParams(3,1) should fail")
	}
	if _, err := NewParams(4, -1); err == nil {
		t.Fatal("negative f should fail")
	}
	p, err := NewParams(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 6 {
		t.Fatalf("K = %d, want 6", p.K())
	}
}

func TestLargeClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("large cluster test skipped in -short")
	}
	c := newCluster(t, 31, 10, 99)
	block := make([]byte, 64<<10)
	rand.New(rand.NewSource(99)).Read(block)
	c.disperse(t, 2000, block, nil)
	c.run(t, nil)
	ret := c.startRetriever(1000)
	c.run(t, nil)
	got, bad := ret.Block()
	if !ret.Done() || bad || !bytes.Equal(got, block) {
		t.Fatal("31-node end-to-end dispersal/retrieval failed")
	}
}

func BenchmarkDisperse16(b *testing.B) {
	p, _ := NewParams(16, 5)
	block := make([]byte, 500<<10)
	rand.New(rand.NewSource(1)).Read(block)
	b.SetBytes(int64(len(block)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Disperse(p, block); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRestoreReplaysJournal crashes a server at every point of a
// dispersal it takes part in — chunk accepted, Ready said, completed,
// chunk arriving after completion — and restores it from its journal:
// the restored server re-sends exactly what the live one said, holds the
// same chunk and completion, and says nothing for a second root.
func TestRestoreReplaysJournal(t *testing.T) {
	p, err := NewParams(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := Disperse(p, []byte("block A"))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Disperse(p, []byte("block B"))
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string][]func(s *Server) []Send{
		"accepted": {
			func(s *Server) []Send { out, _ := s.Handle(1, a[0]); return out },
		},
		"ready": {
			func(s *Server) []Send { out, _ := s.Handle(1, a[0]); return out },
			func(s *Server) []Send { out, _ := s.Handle(1, wire.GotChunk{Root: a[0].Root}); return out },
			func(s *Server) []Send { out, _ := s.Handle(2, wire.GotChunk{Root: a[0].Root}); return out },
			func(s *Server) []Send { out, _ := s.Handle(3, wire.GotChunk{Root: a[0].Root}); return out },
		},
		"late chunk": {
			func(s *Server) []Send { out, _ := s.Handle(1, wire.Ready{Root: a[0].Root}); return out },
			func(s *Server) []Send { out, _ := s.Handle(2, wire.Ready{Root: a[0].Root}); return out },
			func(s *Server) []Send { out, _ := s.Handle(3, wire.Ready{Root: a[0].Root}); return out },
			func(s *Server) []Send { out, _ := s.Handle(1, a[0]); return out },
		},
		"adopted": {
			func(s *Server) []Send { out, _ := s.Handle(1, b[0]); return out },
			func(s *Server) []Send { return s.AdoptComplete(a[0].Root, a[0].Data, a[0].Proof) },
		},
	}
	for name, run := range steps {
		live := NewServer(p, 0)
		var journal []store.ChunkRecord
		live.SetJournal(func(c store.ChunkRecord) { journal = append(journal, c) })
		var said []wire.Msg
		for _, step := range run {
			for _, out := range step(live) {
				switch out.Msg.(type) {
				case wire.GotChunk, wire.Ready:
					said = append(said, out.Msg)
				}
			}
		}
		r := Restore(p, 0, journal)
		var resent []wire.Msg
		for _, out := range r.Resend() {
			resent = append(resent, out.Msg)
		}
		if !reflect.DeepEqual(resent, said) {
			t.Errorf("%s: restored server re-sends %v, the live one said %v", name, resent, said)
		}
		ld, lroot := live.Completed()
		rd, rroot := r.Completed()
		if ld != rd || lroot != rroot || live.HasChunk() != r.HasChunk() {
			t.Errorf("%s: restored completion (%v, %x, chunk %v), live (%v, %x, chunk %v)",
				name, rd, rroot[:4], r.HasChunk(), ld, lroot[:4], live.HasChunk())
		}
		var after []Send
		out, _ := r.Handle(1, b[0])
		after = append(after, out...)
		for from := 1; from < 4; from++ {
			out, _ := r.Handle(from, wire.GotChunk{Root: b[0].Root})
			after = append(after, out...)
		}
		for _, out := range after {
			switch m := out.Msg.(type) {
			case wire.GotChunk:
				if len(said) > 0 {
					t.Errorf("%s: restored server said GotChunk(%x) after its journal", name, m.Root[:4])
				}
			case wire.Ready:
				for _, prev := range said {
					if r, ok := prev.(wire.Ready); ok && r.Root != m.Root {
						t.Errorf("%s: restored server said Ready(%x) after Ready(%x)", name, m.Root[:4], r.Root[:4])
					}
				}
			}
		}
	}
}
