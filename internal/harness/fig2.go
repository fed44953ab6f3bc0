package harness

import (
	"fmt"
	"math/rand"

	"dledger/internal/avid"
	"dledger/internal/wire"
)

// Fig2Point is one point of Fig 2: the mean per-node dispersal download,
// normalized by block size, for both protocols.
type Fig2Point struct {
	N          int
	BlockSize  int
	AVIDM      float64 // per-node bytes / block size
	AVIDFP     float64
	LowerBound float64 // 1/(N-2f): each node must hold its share
}

// avidmDispersalCost runs one AVID-M dispersal in-process and returns the
// bytes all servers download in total. Self-addressed broadcast copies
// do not cross the network and are not counted.
func avidmDispersalCost(p avid.Params, block []byte) (int64, error) {
	servers := make([]*avid.Server, p.N)
	for i := range servers {
		servers[i] = avid.NewServer(p, i)
	}
	var total int64

	type qmsg struct {
		from, to int
		msg      wire.Msg
	}
	var queue []qmsg
	chunks, _, err := avid.Disperse(p, block)
	if err != nil {
		return 0, err
	}
	// The dispersing client is external (the AVID model), so every server
	// pays for its chunk download, as in avidfpDispersalCost.
	const clientID = -2
	for i, c := range chunks {
		queue = append(queue, qmsg{clientID, i, c})
	}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		if m.from != m.to {
			env := wire.Envelope{From: m.from, Epoch: 1, Proposer: clientID, Payload: m.msg}
			total += int64(env.WireSize())
		}
		outs, _ := servers[m.to].Handle(m.from, m.msg)
		for _, s := range outs {
			if s.To == wire.Broadcast {
				for to := range servers {
					queue = append(queue, qmsg{m.to, to, s.Msg})
				}
			} else {
				queue = append(queue, qmsg{m.to, s.To, s.Msg})
			}
		}
	}
	for i, s := range servers {
		if done, _ := s.Completed(); !done {
			return 0, fmt.Errorf("harness: server %d did not complete", i)
		}
	}
	return total, nil
}

// avidfpDispersalCost is the bytes every server downloads in a fault-free
// AVID-FP dispersal (Hendricks, Ganger, Reiter, PODC 2007). Its cost is
// fixed by message sizes: each message carries the N-entry
// cross-checksum, C = Nλ + (N−2f)γ bytes with λ = 32 (hash) and γ = 16
// (fingerprint). A server downloads its fragment (13-byte envelope
// header, 2-byte index, 4-byte length, shard, C) and an Echo and a Ready
// (header + C) from each of the N−1 other servers.
func avidfpDispersalCost(p avid.Params, blockLen int) int64 {
	const header = 13
	c := avidfpCrossChecksumSize(p)
	return int64(header+2+4+p.Coder.ShardSize(blockLen)+c) + 2*int64(p.N-1)*int64(header+c)
}

// avidfpCrossChecksumSize is the AVID-FP cross-checksum length
// Nλ + (N−2f)γ with λ = 32 and γ = 16.
func avidfpCrossChecksumSize(p avid.Params) int {
	return 32*p.N + 16*(p.N-2*p.F)
}

// RunFig2 measures per-node dispersal communication cost for AVID-M and
// AVID-FP across cluster sizes and block sizes (Fig 2 of the paper).
// AVID-M is a real run of package avid's servers; AVID-FP is the
// baseline's message-size arithmetic. Cluster sizes use N = 3f+1 with
// the largest f fitting N.
func RunFig2(clusterSizes []int, blockSizes []int) ([]Fig2Point, error) {
	var out []Fig2Point
	rng := rand.New(rand.NewSource(2))
	for _, bs := range blockSizes {
		block := make([]byte, bs)
		rng.Read(block)
		for _, n := range clusterSizes {
			f := (n - 1) / 3
			p, err := avid.NewParams(n, f)
			if err != nil {
				return nil, err
			}
			mcost, err := avidmDispersalCost(p, block)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig2Point{
				N:          n,
				BlockSize:  bs,
				AVIDM:      float64(mcost) / float64(n) / float64(bs),
				AVIDFP:     float64(avidfpDispersalCost(p, bs)) / float64(bs),
				LowerBound: 1 / float64(n-2*f),
			})
		}
	}
	return out, nil
}
