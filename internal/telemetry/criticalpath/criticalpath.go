// Package criticalpath joins per-node epoch timelines into cluster-level
// delivery critical paths.
//
// Each node's telemetry.Tracer records when that node crossed each
// lifecycle boundary of an epoch (disperse start/done, BA input/decide,
// retrieve start, deliver) plus per-peer sub-spans (chunk sends, echo
// receipts, BA vote arrivals, retrieval round-trips). Timestamps are
// node-local Context-clock readings — time since that node started — so
// absolute times are NOT comparable across nodes. The joiner therefore
// merges timelines on (epoch, stage, node) keys and compares durations:
// for every pipeline stage it finds the node whose segment took longest,
// and within that segment the peer whose message gated completion. The
// result names the delivery critical path of the epoch — proposer
// disperse → (n−2f)-th echo → BA decide → retrieval → deliver — and its
// single slowest edge, which is the measurement the latency roadmap item
// (proactive sync, epoch pipelining) is driven by.
package criticalpath

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dledger/internal/telemetry"
)

// NodeTimelines is one node's contribution to a join: its id and the
// delivered timelines scraped from its tracer (or /statusz).
type NodeTimelines struct {
	// Node is the node id.
	Node int
	// Timelines are the node's delivered epoch timelines.
	Timelines []telemetry.Timeline
}

// Edge is one stage of an epoch's critical path: the slowest node's
// segment for that stage, with the peer that gated its completion.
type Edge struct {
	// Stage names the pipeline segment (disperse, ba, retrieve).
	Stage string
	// Node is the node whose segment was the cluster's slowest.
	Node int
	// Peer is the peer whose message gated the segment's completion on
	// that node (-1 when no per-peer sub-span attributes it).
	Peer int
	// Dur is the segment duration on that node.
	Dur time.Duration
}

// Path is one epoch's joined critical path.
type Path struct {
	// Epoch is the epoch number.
	Epoch uint64
	// Nodes counts the timelines joined for the epoch.
	Nodes int
	// Edges holds the per-stage slowest segments, in pipeline order;
	// stages no node observed both endpoints of are absent.
	Edges []Edge
	// Slowest is the longest edge — the epoch's critical-path
	// bottleneck, naming stage, node and gating peer.
	Slowest Edge
	// E2E is the slowest end-to-end duration across the joined nodes,
	// and E2ENode the node that measured it.
	E2E     time.Duration
	E2ENode int
}

// String renders the path as one line:
//
//	epoch 17 e2e 1.2s @node2: disperse 80ms @node0 (echo peer 3) | ba 400ms @node2 (vote peer 1) | retrieve 700ms @node2 (chunk peer 3) <- slowest
func (p Path) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d e2e %s @node%d:", p.Epoch, p.E2E.Round(time.Millisecond), p.E2ENode)
	for i, e := range p.Edges {
		if i > 0 {
			b.WriteString(" |")
		}
		fmt.Fprintf(&b, " %s %s @node%d", e.Stage, e.Dur.Round(time.Millisecond), e.Node)
		if e.Peer >= 0 {
			fmt.Fprintf(&b, " (%s peer %d)", gateName(e.Stage), e.Peer)
		}
		if e == p.Slowest {
			b.WriteString(" <- slowest")
		}
	}
	return b.String()
}

// gateName maps a stage to the kind of peer message that gates it.
func gateName(stage string) string {
	switch stage {
	case "disperse":
		return "echo"
	case "ba":
		return "vote"
	case "retrieve":
		return "chunk"
	}
	return "peer"
}

// Join merges the nodes' timelines per epoch into critical paths,
// sorted by epoch. Epochs carried by at least one timeline appear; an
// edge appears when at least one node observed both of its endpoints.
func Join(nodes []NodeTimelines) []Path {
	byEpoch := map[uint64]map[int]*telemetry.Timeline{}
	for ni := range nodes {
		n := &nodes[ni]
		for ti := range n.Timelines {
			tl := &n.Timelines[ti]
			m := byEpoch[tl.Epoch]
			if m == nil {
				m = map[int]*telemetry.Timeline{}
				byEpoch[tl.Epoch] = m
			}
			// (epoch, stage, node) keys: one timeline per node per epoch;
			// a duplicate (same node scraped twice) keeps the first.
			if _, dup := m[n.Node]; !dup {
				m[n.Node] = tl
			}
		}
	}
	out := make([]Path, 0, len(byEpoch))
	for epoch, m := range byEpoch {
		out = append(out, joinEpoch(epoch, m))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// joinEpoch builds one epoch's path from its per-node timelines.
func joinEpoch(epoch uint64, m map[int]*telemetry.Timeline) Path {
	p := Path{Epoch: epoch, Nodes: len(m), E2ENode: -1, Slowest: Edge{Peer: -1}}
	// Deterministic iteration: ties go to the lowest node id.
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, seg := range telemetry.Segments {
		edge := Edge{Stage: seg.Name, Node: -1, Peer: -1}
		for _, id := range ids {
			tl := m[id]
			if !tl.Has(seg.Start) || !tl.Has(seg.End) {
				continue
			}
			d := tl.At(seg.End) - tl.At(seg.Start)
			if edge.Node < 0 || d > edge.Dur {
				edge.Node, edge.Dur = id, d
				edge.Peer = gatingPeer(tl, seg.Gate, tl.At(seg.End))
			}
		}
		if edge.Node >= 0 {
			p.Edges = append(p.Edges, edge)
			if len(p.Edges) == 1 || edge.Dur > p.Slowest.Dur {
				p.Slowest = edge
			}
		}
	}
	for _, id := range ids {
		if e := m[id].E2E(); e > p.E2E {
			p.E2E, p.E2ENode = e, id
		}
	}
	return p
}

// gatingPeer names the peer whose `ev` sub-span arrived last at or
// before the segment's completion — the message the node was waiting
// on. Falls back to the last arrival overall (a span stamped in the
// same step as completion can read equal or later), or -1 when the
// timeline has no such sub-spans.
func gatingPeer(tl *telemetry.Timeline, ev telemetry.Kind, end time.Duration) int {
	peer, at := -1, time.Duration(-1)
	lastPeer, lastAt := -1, time.Duration(-1)
	for _, s := range tl.PeerSpans(ev) {
		if s.At >= lastAt {
			lastPeer, lastAt = s.Peer, s.At
		}
		if s.At <= end && s.At >= at {
			peer, at = s.Peer, s.At
		}
	}
	if peer < 0 {
		return lastPeer
	}
	return peer
}

// SlowestFirst returns up to k paths ordered by end-to-end duration,
// slowest first (ties by epoch ascending). k <= 0 keeps all.
func SlowestFirst(paths []Path, k int) []Path {
	out := append([]Path(nil), paths...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].E2E != out[j].E2E {
			return out[i].E2E > out[j].E2E
		}
		return out[i].Epoch < out[j].Epoch
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
