package ba

import (
	"math/rand"
	"testing"

	"dledger/internal/coin"
	"dledger/internal/wire"
)

// harness runs n-f correct BA instances under a random delivery schedule,
// with hooks for Byzantine senders.
type harness struct {
	n, f  int
	nodes []*BA // index < n-byz are correct; Byzantine slots are nil
	queue []qmsg
	rng   *rand.Rand
}

type qmsg struct {
	from, to int
	msg      wire.Msg
}

func newHarness(t *testing.T, n, f int, seed int64, byz int) *harness {
	t.Helper()
	scheme := coin.NewScheme([]byte("test secret"))
	h := &harness{n: n, f: f, rng: rand.New(rand.NewSource(seed))}
	h.nodes = make([]*BA, n)
	for i := 0; i < n-byz; i++ {
		h.nodes[i] = New(n, f, scheme.ForInstance(1, 1))
	}
	return h
}

func (h *harness) enqueue(from int, sends []Send) {
	for _, s := range sends {
		if s.To == wire.Broadcast {
			for to := range h.nodes {
				h.queue = append(h.queue, qmsg{from, to, s.Msg})
			}
		} else {
			h.queue = append(h.queue, qmsg{from, s.To, s.Msg})
		}
	}
}

// run delivers messages in random order until the queue drains. It
// returns false if the queue drained before all correct nodes decided.
func (h *harness) run(t *testing.T) bool {
	t.Helper()
	steps := 0
	for len(h.queue) > 0 {
		steps++
		if steps > 2_000_000 {
			t.Fatal("BA did not quiesce within 2M message deliveries")
		}
		i := h.rng.Intn(len(h.queue))
		m := h.queue[i]
		h.queue[i] = h.queue[len(h.queue)-1]
		h.queue = h.queue[:len(h.queue)-1]
		node := h.nodes[m.to]
		if node == nil {
			continue // Byzantine or crashed node swallows the message
		}
		h.enqueue(m.to, node.Handle(m.from, m.msg))
	}
	for _, n := range h.nodes {
		if n == nil {
			continue
		}
		if d, _ := n.Decided(); !d {
			return false
		}
	}
	return true
}

func (h *harness) checkAgreement(t *testing.T) bool {
	t.Helper()
	var have bool
	var val bool
	for i, n := range h.nodes {
		if n == nil {
			continue
		}
		d, v := n.Decided()
		if !d {
			t.Fatalf("node %d undecided", i)
		}
		if !have {
			have, val = true, v
		} else if v != val {
			t.Fatalf("agreement violated: node %d decided %v, another decided %v", i, v, val)
		}
	}
	return val
}

func TestAllInputOne(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		h := newHarness(t, 4, 1, seed, 0)
		for i, n := range h.nodes {
			h.enqueue(i, n.Input(true))
		}
		if !h.run(t) {
			t.Fatal("not all nodes decided")
		}
		if v := h.checkAgreement(t); !v {
			t.Fatal("validity violated: all input 1 but decided 0")
		}
	}
}

func TestAllInputZero(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		h := newHarness(t, 4, 1, seed, 0)
		for i, n := range h.nodes {
			h.enqueue(i, n.Input(false))
		}
		if !h.run(t) {
			t.Fatal("not all nodes decided")
		}
		if v := h.checkAgreement(t); v {
			t.Fatal("validity violated: all input 0 but decided 1")
		}
	}
}

func TestMixedInputsAgree(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		h := newHarness(t, 4, 1, seed, 0)
		for i, n := range h.nodes {
			h.enqueue(i, n.Input(i%2 == 0))
		}
		if !h.run(t) {
			t.Fatal("not all nodes decided")
		}
		h.checkAgreement(t) // value may be either; agreement must hold
	}
}

func TestLargerClusterMixed(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h := newHarness(t, 10, 3, seed, 0)
		for i, n := range h.nodes {
			h.enqueue(i, n.Input(i%3 == 0))
		}
		if !h.run(t) {
			t.Fatal("not all nodes decided")
		}
		h.checkAgreement(t)
	}
}

func TestCrashFaultsStillTerminate(t *testing.T) {
	// f nodes crash from the start (send nothing, receive nothing). The
	// remaining n-f correct nodes must still decide.
	for seed := int64(0); seed < 20; seed++ {
		h := newHarness(t, 7, 2, seed, 2) // nodes 5,6 crashed
		for i := 0; i < 5; i++ {
			h.enqueue(i, h.nodes[i].Input(i%2 == 0))
		}
		if !h.run(t) {
			t.Fatal("correct nodes did not decide with f crashed")
		}
		h.checkAgreement(t)
	}
}

func TestByzantineEquivocation(t *testing.T) {
	// One Byzantine node (id 3) sends conflicting BVal and Aux values to
	// different nodes and junk Terms. Agreement among correct nodes must
	// hold for every schedule.
	for seed := int64(0); seed < 40; seed++ {
		h := newHarness(t, 4, 1, seed, 1)
		for i := 0; i < 3; i++ {
			h.enqueue(i, h.nodes[i].Input(i%2 == 0))
		}
		// Byzantine node 3: equivocate across rounds 0..3.
		for r := uint32(0); r < 4; r++ {
			for to := 0; to < 3; to++ {
				v := (int(r)+to)%2 == 0
				h.queue = append(h.queue,
					qmsg{3, to, wire.BVal{Round: r, Value: v}},
					qmsg{3, to, wire.Aux{Round: r, Value: !v}},
				)
			}
		}
		h.queue = append(h.queue, qmsg{3, 0, wire.Term{Value: true}}, qmsg{3, 1, wire.Term{Value: false}})
		if !h.run(t) {
			t.Fatal("correct nodes did not decide under equivocation")
		}
		h.checkAgreement(t)
	}
}

func TestValidityUnderByzantine(t *testing.T) {
	// All correct nodes input 1. Whatever the Byzantine node does, the
	// decision must be 1 (BA validity: decided value was input by some
	// correct node).
	for seed := int64(0); seed < 30; seed++ {
		h := newHarness(t, 4, 1, seed, 1)
		for i := 0; i < 3; i++ {
			h.enqueue(i, h.nodes[i].Input(true))
		}
		for r := uint32(0); r < 3; r++ {
			for to := 0; to < 3; to++ {
				h.queue = append(h.queue,
					qmsg{3, to, wire.BVal{Round: r, Value: false}},
					qmsg{3, to, wire.Aux{Round: r, Value: false}},
				)
			}
		}
		h.queue = append(h.queue, qmsg{3, 0, wire.Term{Value: false}})
		if !h.run(t) {
			t.Fatal("did not decide")
		}
		if v := h.checkAgreement(t); !v {
			t.Fatal("validity violated: Byzantine node flipped unanimous 1 to 0")
		}
	}
}

func TestLateInput(t *testing.T) {
	// Node 0 receives everyone else's round-0 traffic before its own Input
	// is invoked; it must catch up and decide.
	h := newHarness(t, 4, 1, 99, 0)
	for i := 1; i < 4; i++ {
		h.enqueue(i, h.nodes[i].Input(true))
	}
	// Drain partially: deliver only messages destined to nodes 1..3 first.
	var deferred []qmsg
	for len(h.queue) > 0 {
		m := h.queue[0]
		h.queue = h.queue[1:]
		if m.to == 0 {
			deferred = append(deferred, m)
			continue
		}
		h.enqueue(m.to, h.nodes[m.to].Handle(m.from, m.msg))
	}
	// Now node 0 inputs, then receives the backlog.
	h.enqueue(0, h.nodes[0].Input(true))
	h.queue = append(h.queue, deferred...)
	if !h.run(t) {
		t.Fatal("late-input node prevented termination")
	}
	if v := h.checkAgreement(t); !v {
		t.Fatal("wrong decision")
	}
}

func TestInputIdempotent(t *testing.T) {
	b := New(4, 1, coin.NewScheme([]byte("x")).ForInstance(0, 0))
	first := b.Input(true)
	if len(first) == 0 {
		t.Fatal("first Input should broadcast BVal")
	}
	if second := b.Input(false); second != nil {
		t.Fatal("second Input must be a no-op")
	}
	if !b.InputCalled() {
		t.Fatal("InputCalled should be true")
	}
}

func TestHaltedIgnoresMessages(t *testing.T) {
	h := newHarness(t, 4, 1, 5, 0)
	for i, n := range h.nodes {
		h.enqueue(i, n.Input(true))
	}
	h.run(t)
	for _, n := range h.nodes {
		if !n.Halted() {
			t.Fatal("instance should halt after 2f+1 Terms")
		}
		if out := n.Handle(2, wire.BVal{Round: 0, Value: true}); out != nil {
			t.Fatal("halted instance produced output")
		}
	}
}

func TestInvalidSenderIgnored(t *testing.T) {
	b := New(4, 1, coin.NewScheme([]byte("x")).ForInstance(0, 0))
	if out := b.Handle(-1, wire.BVal{Round: 0, Value: true}); out != nil {
		t.Fatal("negative sender accepted")
	}
	if out := b.Handle(4, wire.BVal{Round: 0, Value: true}); out != nil {
		t.Fatal("out-of-range sender accepted")
	}
}

func TestFarFutureRoundIgnored(t *testing.T) {
	b := New(4, 1, coin.NewScheme([]byte("x")).ForInstance(0, 0))
	b.Input(true)
	if out := b.Handle(1, wire.BVal{Round: maxRoundAhead + 10, Value: true}); out != nil {
		t.Fatal("absurd round number accepted")
	}
}

func TestBadParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(3, 1) should panic: n < 3f+1")
		}
	}()
	New(3, 1, coin.NewScheme([]byte("x")).ForInstance(0, 0))
}

// TestManySeedsQuick is a light fuzz over schedules and input patterns.
func TestManySeedsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("schedule fuzz skipped in -short")
	}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHarness(t, 4, 1, seed, 0)
		for i, n := range h.nodes {
			h.enqueue(i, n.Input(rng.Intn(2) == 0))
		}
		if !h.run(t) {
			t.Fatalf("seed %d: not all decided", seed)
		}
		h.checkAgreement(t)
	}
}

func BenchmarkBARoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scheme := coin.NewScheme([]byte("bench"))
		nodes := make([]*BA, 4)
		for j := range nodes {
			nodes[j] = New(4, 1, scheme.ForInstance(uint64(i), 0))
		}
		var queue []qmsg
		enq := func(from int, sends []Send) {
			for _, s := range sends {
				for to := range nodes {
					queue = append(queue, qmsg{from, to, s.Msg})
				}
			}
		}
		for j, n := range nodes {
			enq(j, n.Input(true))
		}
		for len(queue) > 0 {
			m := queue[0]
			queue = queue[1:]
			enq(m.to, nodes[m.to].Handle(m.from, m.msg))
		}
	}
}

// TestJournalMatchesWire checks the vote journal records exactly the
// wire messages an instance sends (plus its round transitions), in
// order — the property vote persistence's "re-send exactly the
// pre-crash votes" rests on.
func TestJournalMatchesWire(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		type sent struct {
			kind  VoteKind
			round uint32
			value bool
		}
		wires := make([][]sent, 4)
		h := newHarness(t, 4, 1, seed, 0)
		journals := make([][]Vote, 4)
		for i, n := range h.nodes {
			n.SetJournal(func(v Vote) { journals[i] = append(journals[i], v) })
		}
		capture := func(i int, sends []Send) []Send {
			for _, s := range sends {
				switch m := s.Msg.(type) {
				case wire.BVal:
					wires[i] = append(wires[i], sent{VoteBVal, m.Round, m.Value})
				case wire.Aux:
					wires[i] = append(wires[i], sent{VoteAux, m.Round, m.Value})
				case wire.Term:
					wires[i] = append(wires[i], sent{VoteTerm, 0, m.Value})
				}
			}
			return sends
		}
		for i, n := range h.nodes {
			h.enqueue(i, capture(i, n.Input(seed%2 == 0 || i%2 == 0)))
		}
		steps := 0
		for len(h.queue) > 0 {
			steps++
			if steps > 2_000_000 {
				t.Fatal("no quiescence")
			}
			k := h.rng.Intn(len(h.queue))
			m := h.queue[k]
			h.queue[k] = h.queue[len(h.queue)-1]
			h.queue = h.queue[:len(h.queue)-1]
			h.enqueue(m.to, capture(m.to, h.nodes[m.to].Handle(m.from, m.msg)))
		}
		for i := range h.nodes {
			var jw []sent
			for _, v := range journals[i] {
				if v.Kind == VoteRound || v.Kind == VoteHalt {
					continue // journal-only entries, never on the wire
				}
				jw = append(jw, sent{v.Kind, v.Round, v.Value})
			}
			if len(jw) != len(wires[i]) {
				t.Fatalf("seed %d node %d: journal has %d wire votes, wire saw %d", seed, i, len(jw), len(wires[i]))
			}
			for k := range jw {
				if jw[k] != wires[i][k] {
					t.Fatalf("seed %d node %d: journal[%d]=%+v, wire[%d]=%+v", seed, i, k, jw[k], k, wires[i][k])
				}
			}
		}
	}
}

// TestRestoreNeverContradicts restores an instance from a mid-run
// journal and feeds it an adversarial message schedule: whatever
// arrives, the restored instance must never send an Aux for a round it
// already voted in with a different value, never a second Term, and
// never a BVal contradicting its recorded initial estimate.
func TestRestoreNeverContradicts(t *testing.T) {
	scheme := coin.NewScheme([]byte("test secret"))
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := New(4, 1, scheme.ForInstance(1, 1))
		var journal []Vote
		b.SetJournal(func(v Vote) { journal = append(journal, v) })
		sent := map[[2]interface{}]bool{} // {kind+round} -> value for aux/term uniqueness
		note := func(sends []Send) {
			for _, s := range sends {
				switch m := s.Msg.(type) {
				case wire.Aux:
					sent[[2]interface{}{"aux", m.Round}] = m.Value
				case wire.Term:
					sent[[2]interface{}{"term", 0}] = m.Value
				}
			}
		}
		note(b.Input(rng.Intn(2) == 0))
		// Random pre-crash traffic.
		for i := 0; i < 40; i++ {
			from := 1 + rng.Intn(3)
			var m wire.Msg
			switch rng.Intn(3) {
			case 0:
				m = wire.BVal{Round: uint32(rng.Intn(3)), Value: rng.Intn(2) == 0}
			case 1:
				m = wire.Aux{Round: uint32(rng.Intn(3)), Value: rng.Intn(2) == 0}
			default:
				m = wire.Term{Value: rng.Intn(2) == 0}
			}
			note(b.Handle(from, m))
		}
		// Crash and restore from the journal.
		r := Restore(4, 1, scheme.ForInstance(1, 1), b.Halted(), journal)
		note(r.ResendVotes()) // re-sends must agree with sent by construction
		// Adversarial post-restart traffic.
		check := func(sends []Send) {
			for _, s := range sends {
				switch m := s.Msg.(type) {
				case wire.Aux:
					key := [2]interface{}{"aux", m.Round}
					if v, ok := sent[key]; ok && v != m.Value {
						t.Fatalf("seed %d: restored instance sent Aux(%d,%v) after pre-crash Aux(%d,%v)",
							seed, m.Round, m.Value, m.Round, v)
					}
					sent[key] = m.Value
				case wire.Term:
					key := [2]interface{}{"term", 0}
					if v, ok := sent[key]; ok && v != m.Value {
						t.Fatalf("seed %d: restored instance sent Term(%v) after Term(%v)", seed, m.Value, v)
					}
					sent[key] = m.Value
				}
			}
		}
		for i := 0; i < 60; i++ {
			from := 1 + rng.Intn(3)
			var m wire.Msg
			switch rng.Intn(3) {
			case 0:
				m = wire.BVal{Round: uint32(rng.Intn(4)), Value: rng.Intn(2) == 0}
			case 1:
				m = wire.Aux{Round: uint32(rng.Intn(4)), Value: rng.Intn(2) == 0}
			default:
				m = wire.Term{Value: rng.Intn(2) == 0}
			}
			check(r.Handle(from, m))
		}
	}
}

// TestRestoreHalted checks a halted instance restores as halted and
// input-proof; with an empty journal it has nothing to re-send.
func TestRestoreHalted(t *testing.T) {
	scheme := coin.NewScheme([]byte("test secret"))
	r := Restore(4, 1, scheme.ForInstance(1, 1), true, nil)
	if !r.Halted() {
		t.Fatal("not halted")
	}
	if outs := r.Handle(1, wire.BVal{Round: 0, Value: true}); outs != nil {
		t.Fatalf("halted instance replied: %v", outs)
	}
	if outs := r.Input(true); outs != nil {
		t.Fatalf("halted instance accepted input: %v", outs)
	}
	if outs := r.ResendVotes(); outs != nil {
		t.Fatalf("halted instance with no journal re-sent votes: %v", outs)
	}
}

// requireTermResend fails unless sends is exactly one broadcast Term
// carrying want: what a restored halted instance re-sends.
func requireTermResend(t *testing.T, sends []Send, want bool) {
	t.Helper()
	if len(sends) != 1 || sends[0].To != wire.Broadcast || sends[0].Msg != (wire.Term{Value: want}) {
		t.Fatalf("restored halted instance re-sent %v, want one broadcast Term(%v)", sends, want)
	}
}

// TestHaltSurvivesWALOnlyRestore drives a live instance to the halt
// condition (2f+1 Terms) and restores it from its journal alone, the way
// a WAL-only replay does — no snapshot, so the caller passes
// halted=false. The journaled VoteHalt must bring the instance back
// halted: decided, deaf to round traffic, and re-sending exactly its
// Term.
func TestHaltSurvivesWALOnlyRestore(t *testing.T) {
	scheme := coin.NewScheme([]byte("test secret"))
	b := New(4, 1, scheme.ForInstance(1, 1))
	var journal []Vote
	b.SetJournal(func(v Vote) { journal = append(journal, v) })
	b.Input(true)
	for from := 1; from <= 3; from++ {
		b.Handle(from, wire.Term{Value: true})
	}
	if !b.Halted() {
		t.Fatal("instance did not halt after 2f+1 Terms")
	}
	var halts int
	for _, v := range journal {
		if v.Kind == VoteHalt {
			halts++
			if !v.Value {
				t.Fatalf("VoteHalt carries value %v, want the decision true", v.Value)
			}
		}
	}
	if halts != 1 {
		t.Fatalf("journal has %d VoteHalt entries, want 1", halts)
	}
	// The in-memory journal keeps only the Term (the snapshot carrier);
	// VoteHalt lives in the observer stream — i.e. the WAL.
	if votes := b.Votes(); len(votes) != 1 || votes[0].Kind != VoteTerm {
		t.Fatalf("post-halt journal = %+v, want the Term only", votes)
	}

	r := Restore(4, 1, scheme.ForInstance(1, 1), false, journal)
	if !r.Halted() {
		t.Fatal("WAL-only restore lost the halt: instance came back decided-but-live")
	}
	if d, v := r.Decided(); !d || !v {
		t.Fatalf("restored halted instance lost the decision: %v %v", d, v)
	}
	requireTermResend(t, r.ResendVotes(), true)
	if outs := r.Handle(1, wire.BVal{Round: 0, Value: false}); outs != nil {
		t.Fatalf("restored halted instance replied: %v", outs)
	}
}

// TestRestoreHaltedKeepsDecision checks the snapshot's halted restore
// path carries the decision (the engine propagates it into epoch
// bookkeeping) and re-sends exactly its Term.
func TestRestoreHaltedKeepsDecision(t *testing.T) {
	scheme := coin.NewScheme([]byte("test secret"))
	r := Restore(4, 1, scheme.ForInstance(1, 1), true, []Vote{{Kind: VoteTerm, Value: true}})
	if d, v := r.Decided(); !d || !v {
		t.Fatalf("halted restore lost the decision: %v %v", d, v)
	}
	if !r.Halted() {
		t.Fatal("halted restore came back live")
	}
	requireTermResend(t, r.ResendVotes(), true)
	// The Term survives the journal for the NEXT snapshot too.
	votes := r.Votes()
	if len(votes) != 1 || votes[0].Kind != VoteTerm || !votes[0].Value {
		t.Fatalf("halted journal = %+v, want the Term only", votes)
	}
}

// TestWholeClusterRestartAfterHalt: nodes 1–3 decide and halt while
// every message to node 0 is lost, then all four restart from their
// journals (the WAL's observer stream) and exchange their re-sends. The
// Terms that halted nodes 1–3 reached only node 0's dead incarnation, so
// unless a halted instance re-sends its Term, nothing the restarted
// cluster says can move node 0.
func TestWholeClusterRestartAfterHalt(t *testing.T) {
	scheme := coin.NewScheme([]byte("test secret"))
	for seed := int64(0); seed < 10; seed++ {
		h := newHarness(t, 4, 1, seed, 0)
		journals := make([][]Vote, len(h.nodes))
		for i, n := range h.nodes {
			n.SetJournal(func(v Vote) { journals[i] = append(journals[i], v) })
			h.enqueue(i, n.Input(true))
		}
		h.nodes[0] = nil // every message to node 0 is lost
		h.run(t)
		for i := 1; i < len(h.nodes); i++ {
			if !h.nodes[i].Halted() {
				t.Fatalf("seed %d: node %d did not halt before the restart", seed, i)
			}
		}
		for i := range h.nodes {
			h.nodes[i] = Restore(4, 1, scheme.ForInstance(1, 1), false, journals[i])
		}
		if d, _ := h.nodes[0].Decided(); d {
			t.Fatalf("seed %d: node 0 decided before the restart", seed)
		}
		for i, n := range h.nodes {
			h.enqueue(i, n.ResendVotes())
		}
		if !h.run(t) {
			t.Fatalf("seed %d: node 0 never decided after the whole-cluster restart", seed)
		}
		if !h.checkAgreement(t) {
			t.Fatalf("seed %d: validity violated: all input 1 but decided 0", seed)
		}
		if !h.nodes[0].Halted() {
			t.Fatalf("seed %d: node 0 decided but did not halt on 2f+1 re-sent Terms", seed)
		}
	}
}
