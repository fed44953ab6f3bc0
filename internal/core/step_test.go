package core

import (
	"fmt"
	"testing"

	"dledger/internal/wire"
)

// TestStepActionsOutliveLaterSteps runs a 4-node cluster whose caller
// holds each step's slice across later engine calls — it answers a due
// proposal with Propose from inside the loop over the step's actions, as
// a TCP turn holds its first Handle's slice while the next envelopes are
// handled — and checks that no step's returned slice changes afterwards:
// the engine must not reuse an action array its caller still holds.
func TestStepActionsOutliveLaterSteps(t *testing.T) {
	const n, epochs = 4, 3
	cfg := Config{N: n, F: 1, Mode: ModeDL, CoinSecret: []byte("core test secret")}
	engines := make([]*Engine, n)
	for i := range engines {
		eng, err := NewEngine(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	type held struct {
		acts []Action
		was  string
	}
	var steps []held
	var inFlight []routed
	proposed := make([]int, n)
	var apply func(node int, acts []Action)
	propose := func(node int) {
		if due, _ := engines[node].ProposalDue(); !due || proposed[node] == epochs {
			return
		}
		proposed[node]++
		out, err := engines[node].Propose([][]byte{[]byte(fmt.Sprintf("tx-%d-%d", node, proposed[node]))})
		if err != nil {
			t.Fatal(err)
		}
		apply(node, out)
	}
	apply = func(node int, acts []Action) {
		steps = append(steps, held{acts, fmt.Sprintf("%#v", acts)})
		for _, a := range acts {
			if act, ok := a.(SendAction); ok {
				for _, u := range Unicast([]Action{act}, n, node) {
					s := u.(SendAction)
					inFlight = append(inFlight, routed{to: s.To, env: s.Env})
				}
			}
			propose(node)
		}
		propose(node)
	}
	for i, eng := range engines {
		apply(i, eng.Start())
	}
	for len(inFlight) > 0 {
		m := inFlight[0]
		inFlight = inFlight[1:]
		apply(m.to, engines[m.to].Handle(m.env))
	}
	for i, eng := range engines {
		if eng.DeliveredEpoch() != epochs {
			t.Fatalf("node %d delivered through epoch %d, want %d", i, eng.DeliveredEpoch(), epochs)
		}
	}
	for k, s := range steps {
		if now := fmt.Sprintf("%#v", s.acts); now != s.was {
			t.Fatalf("step %d of %d: its actions changed after it returned:\nwas %.300s\nnow %.300s", k, len(steps), s.was, now)
		}
	}
}

// TestVoteEchoStepAllocations pins the allocation cost of one N=16 step
// that receives a BA vote and broadcasts the reply: the f+1-th BVal for a
// value makes the node echo it. A broadcast is one SendAction, and the
// self-delivery queue keeps its array across steps. The step makes 8
// allocations; with one SendAction per peer it made 27.
func TestVoteEchoStepAllocations(t *testing.T) {
	const n, f, runs = 16, 5, 10
	eng, err := NewEngine(Config{N: n, F: f, Mode: ModeDL, CoinSecret: []byte("core test secret")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	vote := func(from, proposer int) []Action {
		return eng.Handle(wire.Envelope{From: from, Epoch: 1, Proposer: proposer, Payload: wire.BVal{Round: 0, Value: true}})
	}
	// f votes each for the instances of proposers 1..runs+1 (one per
	// measured call, plus AllocsPerRun's warm-up call).
	for p := 1; p <= runs+1; p++ {
		for from := 1; from <= f; from++ {
			vote(from, p)
		}
	}
	proposer := 0
	var echoes int
	allocs := testing.AllocsPerRun(runs, func() {
		proposer++
		for _, a := range vote(f+1, proposer) {
			if s, ok := a.(SendAction); ok && s.To == wire.Broadcast {
				echoes++
			}
		}
	})
	if echoes != runs+1 {
		t.Fatalf("%d of %d steps broadcast their echo", echoes, runs+1)
	}
	if allocs > 8 {
		t.Fatalf("a vote-echo step made %v allocations, want at most 8", allocs)
	}
}
