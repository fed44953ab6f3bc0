// Package ba implements asynchronous binary Byzantine agreement.
//
// The protocol is the signature-free construction of Mostéfaoui, Moumen
// and Raynal (PODC 2014), the same one the DispersedLedger paper cites as
// [32]: each round runs a binary-value broadcast (BVAL messages with an
// f+1 echo rule and a 2f+1 admission rule into bin_values), then an AUX
// vote, then a common coin flip decides whether the round concludes.
// Safety holds for any coin; liveness needs the coin to be common and
// (eventually) random, which package coin provides.
//
// On top of MMR we add the standard Bracha-style termination gadget: a
// node broadcasts Term(v) when it decides v; f+1 matching Term messages
// let a lagging node decide immediately, and 2f+1 let it halt the
// instance, so every instance quiesces even though MMR itself never
// stops.
//
// The implementation is a deterministic, single-threaded automaton: the
// caller feeds messages in via Handle and sends out whatever comes back.
// This is what makes the protocol property-testable under adversarial
// schedules and runnable unchanged in the network emulator.
package ba

import (
	"dledger/internal/coin"
	"dledger/internal/wire"
)

// maxRoundAhead bounds how far beyond our current round we keep state for
// early messages. A Byzantine sender could otherwise exhaust memory with
// messages for absurd round numbers. Correct nodes are never this far
// apart: a node can only advance a round with n−f AUX messages, f+1 of
// which are echoed by correct nodes that are themselves in that round.
const maxRoundAhead = 1 << 16

// Send is an outgoing message. To is a node id or wire.Broadcast;
// broadcasts include self-delivery (the caller must loop the message back).
type Send struct {
	To  wire.NodeID
	Msg wire.Msg
}

// VoteKind distinguishes vote-journal entries.
type VoteKind uint8

// Journal entry kinds. The first three mirror wire messages; VoteRound
// is journal-only — it records the estimate the instance entered a round
// with, which no wire message carries when the matching BVal was already
// sent by the echo rule.
const (
	// VoteBVal records a broadcast of wire.BVal{Round, Value}.
	VoteBVal VoteKind = iota + 1
	// VoteAux records a broadcast of wire.Aux{Round, Value}.
	VoteAux
	// VoteTerm records a broadcast of wire.Term{Value}.
	VoteTerm
	// VoteRound records entering Round with estimate Value (no wire
	// message; needed so a restore resumes from the right round/estimate
	// instead of re-running round 0 with a possibly-different input).
	VoteRound
	// VoteHalt records reaching the halt condition (2f+1 Terms for one
	// value; Value is the decision). Journal-only, like VoteRound. It
	// exists so a WAL-only replay — no snapshot taken since the halt —
	// restores a halted instance as halted: without it, the restore came
	// back decided-but-live and answered round traffic it had no further
	// need to take part in.
	VoteHalt
)

// Vote is one vote-journal entry: everything this instance has committed
// itself to on the wire (or, for VoteRound, in its round progression).
// The journal is what vote persistence stores in the WAL: replaying it
// into Restore rebuilds an instance that re-sends exactly its pre-crash
// votes and can never contradict them.
type Vote struct {
	Kind  VoteKind
	Round uint32
	Value bool
}

// BA is one binary agreement instance.
type BA struct {
	n, f int
	coin coin.Func

	started bool
	est     bool
	round   uint32
	rounds  map[uint32]*roundState

	decided  bool
	decision bool
	halted   bool

	termSent bool
	termFrom map[int]bool // senders of any Term (first one counts)
	termCnt  [2]int

	// votes is the journal of everything this instance has sent (plus
	// round transitions); journal, when set, observes each new entry as
	// it is appended — the seam the engine uses to persist votes before
	// they reach the wire. At halt the round entries are released (a
	// halted instance never votes again, so there is nothing left to
	// contradict) but the Term survives: it is the decision's only
	// carrier once checkpoints subsume the WAL's vote records.
	votes   []Vote
	journal func(Vote)
}

type roundState struct {
	bvalFrom  [2]map[int]bool // senders of BVal per value
	bvalSent  [2]bool
	binValues [2]bool
	auxSent   bool
	auxFrom   map[int]bool // senders of Aux (dedup)
	auxCnt    [2]int       // Aux count per value
	advanced  bool
}

func newRoundState() *roundState {
	return &roundState{
		bvalFrom: [2]map[int]bool{{}, {}},
		auxFrom:  map[int]bool{},
	}
}

// New creates a BA instance for a cluster of n nodes tolerating f faults.
// The coin function must be common to all nodes of the instance.
func New(n, f int, c coin.Func) *BA {
	if n < 3*f+1 || f < 0 {
		panic("ba: requires n >= 3f+1")
	}
	return &BA{
		n: n, f: f, coin: c,
		rounds:   map[uint32]*roundState{},
		termFrom: map[int]bool{},
	}
}

// SetJournal installs an observer for new vote-journal entries. The
// callback fires synchronously, before the corresponding Send is
// returned to the caller, so a caller that persists journal entries and
// syncs before transmitting Sends gets record-before-wire for free.
// Passing nil removes the observer. Entries appended before SetJournal
// (none, in normal use) are not replayed.
func (b *BA) SetJournal(fn func(Vote)) { b.journal = fn }

// Votes returns a copy of the vote journal (only the Term after halt).
func (b *BA) Votes() []Vote { return append([]Vote(nil), b.votes...) }

// record appends one journal entry and notifies the observer.
func (b *BA) record(v Vote) {
	b.votes = append(b.votes, v)
	if b.journal != nil {
		b.journal(v)
	}
}

// Restore rebuilds an instance from a recovered vote journal: sent-state
// guards (bvalSent, auxSent, termSent) are re-armed for every recorded
// vote, and the round/estimate position resumes where the journal left
// off, so the restored instance can never send a message inconsistent
// with one its previous incarnation put on the wire. Received state
// (bvalFrom, bin_values, aux counts) is NOT restored — it is rebuilt
// from live traffic and from every node's own re-sent votes; losing it
// affects only this node's progress, never safety. A halted instance
// restores as halted: it ignores all input, and its journal is its Term.
func Restore(n, f int, c coin.Func, halted bool, votes []Vote) *BA {
	b := New(n, f, c)
	// A journaled VoteHalt is the WAL's carrier of the halt condition:
	// honor it even when the caller's snapshot (if any) predates the
	// halt and says halted=false.
	if !halted {
		for _, v := range votes {
			if v.Kind == VoteHalt {
				halted = true
				break
			}
		}
	}
	if halted {
		// Only the decision matters for a halted instance (it ignores
		// all input, and its Term is all it re-sends), but it matters a
		// lot: the engine's restore propagates it into the epoch's
		// outcome bookkeeping, without which the slot could wedge the
		// epoch.
		b.halted = true
		b.rounds = nil
		for _, v := range votes {
			if v.Kind == VoteTerm {
				b.decided = true
				b.decision = v.Value
				b.termSent = true
			}
		}
		b.votes = termVotes(votes)
		return b
	}
	for _, v := range votes {
		switch v.Kind {
		case VoteRound:
			b.started = true
			if v.Round >= b.round {
				b.round = v.Round
				b.est = v.Value
			}
		case VoteBVal:
			b.roundState(v.Round).bvalSent[vi(v.Value)] = true
		case VoteAux:
			b.roundState(v.Round).auxSent = true
		case VoteTerm:
			b.decided = true
			b.decision = v.Value
			b.termSent = true
		}
	}
	// Guards for rounds behind the restored position are moot (round
	// messages below b.round are rejected outright); shed their state.
	for old := range b.rounds {
		if old < b.round {
			delete(b.rounds, old)
		}
	}
	b.votes = append([]Vote(nil), votes...)
	return b
}

// ResendVotes returns the wire messages of every journaled vote, in
// journal order, for broadcast after a restart. Re-sending is safe by
// construction — receivers deduplicate per (sender, round, type) — and
// necessary for two reasons: a vote recorded just before the crash may
// never have reached the wire, and after a whole-cluster restart every
// node's received-state is gone, so the union of all journals is the
// only surviving copy of the in-flight rounds. A halted instance's
// journal is its Term alone: the 2f+1 Terms that halted it may have
// reached only a peer's dead incarnation, and the halted nodes' re-sent
// Terms are what lets that peer decide and halt in turn.
func (b *BA) ResendVotes() []Send {
	var outs []Send
	for _, v := range b.votes {
		switch v.Kind {
		case VoteBVal:
			outs = append(outs, Send{To: wire.Broadcast, Msg: wire.BVal{Round: v.Round, Value: v.Value}})
		case VoteAux:
			outs = append(outs, Send{To: wire.Broadcast, Msg: wire.Aux{Round: v.Round, Value: v.Value}})
		case VoteTerm:
			outs = append(outs, Send{To: wire.Broadcast, Msg: wire.Term{Value: v.Value}})
		}
	}
	return outs
}

// Decided reports whether the instance has decided, and the value.
func (b *BA) Decided() (bool, bool) { return b.decided, b.decision }

// Halted reports whether the instance has fully quiesced (it will produce
// no further output and ignores further input).
func (b *BA) Halted() bool { return b.halted }

// Input provides this node's initial estimate and starts round 0. Calling
// Input more than once is a no-op, matching the paper's "if we have not
// invoked Input" guards.
func (b *BA) Input(v bool) []Send {
	if b.started || b.halted {
		return nil
	}
	b.started = true
	b.est = v
	outs := b.enterRound(0)
	return append(outs, b.tryAdvance(0)...)
}

// InputCalled reports whether Input has been invoked on this instance.
func (b *BA) InputCalled() bool { return b.started }

// Handle processes a message from peer `from` and returns the messages to
// send in response. It returns decided == true on the step where the
// instance first decides.
func (b *BA) Handle(from int, msg wire.Msg) (outs []Send) {
	if b.halted || from < 0 || from >= b.n {
		return nil
	}
	switch m := msg.(type) {
	case wire.BVal:
		outs = b.onBVal(from, m)
	case wire.Aux:
		outs = b.onAux(from, m)
	case wire.Term:
		outs = b.onTerm(from, m)
	}
	return outs
}

func (b *BA) roundState(r uint32) *roundState {
	rs, ok := b.rounds[r]
	if !ok {
		rs = newRoundState()
		b.rounds[r] = rs
	}
	return rs
}

func vi(v bool) int {
	if v {
		return 1
	}
	return 0
}

func (b *BA) onBVal(from int, m wire.BVal) []Send {
	if m.Round < b.round || m.Round > b.round+maxRoundAhead {
		return nil
	}
	rs := b.roundState(m.Round)
	v := vi(m.Value)
	if rs.bvalFrom[v][from] {
		return nil // duplicate (same sender, same type, same value)
	}
	rs.bvalFrom[v][from] = true
	var outs []Send

	// f+1 rule: echo the value if enough peers vouch for it.
	if len(rs.bvalFrom[v]) >= b.f+1 && !rs.bvalSent[v] {
		rs.bvalSent[v] = true
		b.record(Vote{Kind: VoteBVal, Round: m.Round, Value: m.Value})
		outs = append(outs, Send{To: wire.Broadcast, Msg: wire.BVal{Round: m.Round, Value: m.Value}})
	}
	// 2f+1 rule: admit the value into bin_values.
	if len(rs.bvalFrom[v]) >= 2*b.f+1 && !rs.binValues[v] {
		rs.binValues[v] = true
		// First value entering bin_values triggers our AUX vote.
		if !rs.auxSent {
			rs.auxSent = true
			b.record(Vote{Kind: VoteAux, Round: m.Round, Value: m.Value})
			outs = append(outs, Send{To: wire.Broadcast, Msg: wire.Aux{Round: m.Round, Value: m.Value}})
		}
		outs = append(outs, b.tryAdvance(m.Round)...)
	}
	return outs
}

func (b *BA) onAux(from int, m wire.Aux) []Send {
	if m.Round < b.round || m.Round > b.round+maxRoundAhead {
		return nil
	}
	rs := b.roundState(m.Round)
	if rs.auxFrom[from] {
		return nil
	}
	rs.auxFrom[from] = true
	rs.auxCnt[vi(m.Value)]++
	return b.tryAdvance(m.Round)
}

func (b *BA) onTerm(from int, m wire.Term) []Send {
	if b.termFrom[from] {
		return nil
	}
	b.termFrom[from] = true
	v := vi(m.Value)
	b.termCnt[v]++
	var outs []Send
	if b.termCnt[v] >= b.f+1 {
		// At least one correct node decided m.Value; adopt it.
		outs = append(outs, b.decide(m.Value)...)
	}
	if b.termCnt[v] >= 2*b.f+1 {
		b.halted = true
		b.rounds = nil // release round state
		// Journal the halt itself so the WAL carries it: Restore treats a
		// replayed VoteHalt exactly like a snapshot's halted flag. It is
		// recorded before the journal is filtered below — the observer
		// (and through it the WAL) sees it; the in-memory journal does
		// not need it (b.halted is already set).
		b.record(Vote{Kind: VoteHalt, Value: m.Value})
		// A halted instance never votes again, so the round journal is
		// dead weight — but its Term must survive: a snapshot taken
		// after the halt is the only carrier of the decision once the
		// WAL's vote records compact away, and a restore without it
		// would silently swallow the instance's outcome (the epoch
		// could then never decide at the restored node).
		b.votes = termVotes(b.votes)
	}
	return outs
}

// termVotes filters a journal down to its Term entries.
func termVotes(votes []Vote) []Vote {
	var out []Vote
	for _, v := range votes {
		if v.Kind == VoteTerm {
			out = append(out, v)
		}
	}
	return out
}

// decide records the decision (once) and broadcasts Term.
func (b *BA) decide(v bool) []Send {
	var outs []Send
	if !b.decided {
		b.decided = true
		b.decision = v
	}
	if !b.termSent {
		b.termSent = true
		b.record(Vote{Kind: VoteTerm, Value: v})
		outs = append(outs, Send{To: wire.Broadcast, Msg: wire.Term{Value: v}})
	}
	return outs
}

// enterRound broadcasts our BVal for the round (if we have not already
// echoed the same value) and prunes state of finished rounds. The round
// transition itself is journaled even when no BVal goes out (the echo
// rule may have sent it already), so a restore knows the estimate this
// round was entered with.
func (b *BA) enterRound(r uint32) []Send {
	b.round = r
	for old := range b.rounds {
		if old < r {
			delete(b.rounds, old)
		}
	}
	b.record(Vote{Kind: VoteRound, Round: r, Value: b.est})
	rs := b.roundState(r)
	v := vi(b.est)
	if rs.bvalSent[v] {
		return nil
	}
	rs.bvalSent[v] = true
	b.record(Vote{Kind: VoteBVal, Round: r, Value: b.est})
	return []Send{{To: wire.Broadcast, Msg: wire.BVal{Round: r, Value: b.est}}}
}

// tryAdvance checks the round-conclusion condition: n−f AUX messages whose
// values all lie in bin_values. It only fires for the current round of a
// started instance, and at most once per round.
func (b *BA) tryAdvance(r uint32) []Send {
	if !b.started || b.halted || r != b.round {
		return nil
	}
	rs := b.roundState(r)
	if rs.advanced {
		return nil
	}
	// Count AUX senders whose value is admissible. We track counts per
	// value; only values in bin_values count toward the quorum.
	quorum := 0
	var vals [2]bool
	for v := 0; v < 2; v++ {
		if rs.binValues[v] && rs.auxCnt[v] > 0 {
			quorum += rs.auxCnt[v]
			vals[v] = true
		}
	}
	if quorum < b.n-b.f || (!vals[0] && !vals[1]) {
		return nil
	}
	rs.advanced = true

	s := b.coin(r)
	var outs []Send
	if vals[0] != vals[1] {
		// vals is a singleton {v}.
		v := vals[1]
		b.est = v
		if v == s {
			outs = append(outs, b.decide(v)...)
		}
	} else {
		b.est = s
	}
	outs = append(outs, b.enterRound(r+1)...)
	outs = append(outs, b.tryAdvance(r+1)...)
	return outs
}
