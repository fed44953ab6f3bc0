package chaos

// Byzantine node behaviors, implemented as action taps: the node runs
// the ordinary engine automaton, but a hook at the Action boundary
// rewrites what it puts on the wire. This mirrors how a real adversary
// is modeled in the paper's proofs — arbitrary network behavior, not
// arbitrary local computation — and it means every behavior composes
// with crash recovery, retrieval, and the transport without forking the
// engine.
//
// Each behavior targets a specific defense layer:
//
//   - Equivocate attacks VID consistency: one instance, two Merkle
//     roots. AVID-M's GotChunk/Ready quorum intersection must keep all
//     honest servers on one root (or complete neither).
//   - WithholdChunks attacks availability: the node acknowledges
//     dispersals but never serves retrieval, forcing retrievers onto
//     the other >= N-2f holders.
//   - BadShares attacks the verification paths: every chunk it ships is
//     corrupted, so Merkle proof checks at servers and retrievers must
//     reject them without stalling.
//   - FlipVotes attacks agreement: inconsistent BA votes to different
//     peers. MMR's f+1/2f+1 quorum rules must still converge.

import (
	"fmt"

	"dledger/internal/avid"
	"dledger/internal/core"
	"dledger/internal/wire"
)

// installByzantine wraps eng with behavior b. honest marks the nodes
// without a Byzantine assignment (forgery targets must come from it).
func installByzantine(eng *core.Engine, cfg core.Config, self int, b Behavior, honest []bool) error {
	switch b {
	case BehaviorNone:
		return nil
	case Equivocate:
		params, err := avid.NewParams(cfg.N, cfg.F)
		if err != nil {
			return err
		}
		eng.SetActionTap(equivocateTap(cfg, self, params, honest))
		return nil
	case WithholdChunks:
		eng.SetActionTap(withholdTap(cfg))
		return nil
	case BadShares:
		eng.SetActionTap(badSharesTap())
		return nil
	case FlipVotes:
		eng.SetActionTap(flipVotesTap(cfg.N, self))
		return nil
	default:
		return fmt.Errorf("chaos: unknown behavior %v", b)
	}
}

// equivocateTap forges a second block on every proposal and sends its
// chunks to up to F peers: those servers hold chunks under a forged
// root while the rest hold the real one. The real root can still
// gather its N−F GotChunk quorum, so the epoch usually commits — and
// honest retrievers must then decode correctly even though some
// servers answer with proof-valid chunks of the wrong root. Targets
// are the F lowest-indexed HONEST peers: forging to a fellow
// conspirator would test nothing, and generated plans assign Byzantine
// ids randomly.
func equivocateTap(cfg core.Config, self int, params avid.Params, honest []bool) func([]core.Action) []core.Action {
	forgedTarget := make([]bool, cfg.N)
	marked := 0
	for i := 0; i < cfg.N && marked < cfg.F; i++ {
		if i == self || i >= len(honest) || !honest[i] {
			continue
		}
		forgedTarget[i] = true
		marked++
	}
	return func(actions []core.Action) []core.Action {
		// Find this batch's proposal (Propose emits ProposalMadeAction
		// before the dispersal SendActions).
		var forged []wire.Chunk
		var epoch uint64
		for _, a := range actions {
			pm, ok := a.(core.ProposalMadeAction)
			if !ok {
				continue
			}
			blk, err := wire.DecodeBlock(pm.Block)
			if err != nil {
				continue
			}
			fork := &wire.Block{
				Proposer: blk.Proposer,
				Epoch:    blk.Epoch,
				V:        blk.V,
				Txs:      [][]byte{[]byte("equivocation fork")},
			}
			if chunks, _, err := avid.Disperse(params, fork.Encode()); err == nil {
				forged, epoch = chunks, pm.Epoch
			}
		}
		if forged == nil {
			return actions
		}
		// The tap never rewrites the self-chunk (it loops back inside the
		// engine), so the equivocator itself serves the real root.
		for k, a := range actions {
			sa, ok := a.(core.SendAction)
			if !ok || sa.Env.Epoch != epoch || sa.Env.Proposer != self {
				continue
			}
			if _, isChunk := sa.Env.Payload.(wire.Chunk); !isChunk {
				continue
			}
			if forgedTarget[sa.To] {
				sa.Env.Payload = forged[sa.To]
				actions[k] = sa
			}
		}
		return actions
	}
}

// withholdTap drops every ReturnChunk (the node promises availability
// and never delivers) and withholds dispersal chunks from F+1 peers per
// batch, so at most N−F−1 servers can acknowledge its own proposals —
// the cluster must decide 0 for its slot without stalling the epoch.
// (The self-chunk loops back inside the engine and is not a SendAction,
// hence counting sends rather than peer ids.)
func withholdTap(cfg core.Config) func([]core.Action) []core.Action {
	return func(actions []core.Action) []core.Action {
		out := actions[:0]
		withheld := 0
		for _, a := range actions {
			if sa, ok := a.(core.SendAction); ok {
				switch sa.Env.Payload.(type) {
				case wire.ReturnChunk:
					continue
				case wire.Chunk:
					if withheld < cfg.F+1 {
						withheld++
						continue
					}
				}
			}
			out = append(out, a)
		}
		return out
	}
}

// badSharesTap flips a byte in every outgoing chunk payload, leaving
// the Merkle proof intact: every receiver's Verify must reject the
// share and carry on as if it never arrived.
func badSharesTap() func([]core.Action) []core.Action {
	return func(actions []core.Action) []core.Action {
		for k, a := range actions {
			sa, ok := a.(core.SendAction)
			if !ok {
				continue
			}
			switch m := sa.Env.Payload.(type) {
			case wire.Chunk:
				m.Data = corrupt(m.Data)
				sa.Env.Payload = m
			case wire.ReturnChunk:
				m.Data = corrupt(m.Data)
				sa.Env.Payload = m
			default:
				continue
			}
			actions[k] = sa
		}
		return actions
	}
}

func corrupt(data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	out[0] ^= 0xFF
	return out
}

// flipVotesTap inverts BA votes sent to odd-numbered peers: different
// peers observe contradictory votes from this node in the same round.
// Votes are broadcasts, so it first expands them into per-peer sends.
func flipVotesTap(n, self int) func([]core.Action) []core.Action {
	return func(actions []core.Action) []core.Action {
		actions = core.Unicast(actions, n, self)
		for k, a := range actions {
			sa, ok := a.(core.SendAction)
			if !ok || sa.To%2 == 0 {
				continue
			}
			switch m := sa.Env.Payload.(type) {
			case wire.BVal:
				m.Value = !m.Value
				sa.Env.Payload = m
			case wire.Aux:
				m.Value = !m.Value
				sa.Env.Payload = m
			case wire.Term:
				m.Value = !m.Value
				sa.Env.Payload = m
			default:
				continue
			}
			actions[k] = sa
		}
		return actions
	}
}
