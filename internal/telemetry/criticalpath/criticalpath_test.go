package criticalpath

import (
	"strings"
	"testing"
	"time"

	"dledger/internal/telemetry"
)

// tl builds one node-local timeline from stage -> timestamp pairs.
func tl(epoch uint64, stages map[telemetry.Kind]time.Duration, peers []telemetry.PeerSpan) telemetry.Timeline {
	out := telemetry.Timeline{Epoch: epoch, Peers: peers}
	for s, at := range stages {
		out.T[s] = at
		out.Have |= 1 << s
	}
	return out
}

func TestJoinNamesSlowestEdgeAndPeer(t *testing.T) {
	ms := time.Millisecond
	// Node 0 (started long ago, big clock offsets): proposer view. Its
	// dispersal took 80ms, gated by peer 3's echo.
	n0 := tl(17, map[telemetry.Kind]time.Duration{
		telemetry.StageDisperseStart: 1000 * ms,
		telemetry.StageDisperseDone:  1080 * ms,
		telemetry.StageBAInput:       1010 * ms,
		telemetry.StageBADecide:      1100 * ms,
		telemetry.StageRetrieveStart: 1100 * ms,
		telemetry.StageDeliver:       1200 * ms,
	}, []telemetry.PeerSpan{
		{Peer: 1, Event: telemetry.PeerEcho, At: 1020 * ms},
		{Peer: 3, Event: telemetry.PeerEcho, At: 1079 * ms},
	})
	// Node 2 (clock counts from ~0: NOT comparable with node 0's stamps):
	// slowest BA (400ms, gated by peer 1's vote) and slowest retrieval
	// (700ms, gated by peer 3's chunk) — and the slowest e2e.
	n2 := tl(17, map[telemetry.Kind]time.Duration{
		telemetry.StageDisperseStart: 10 * ms,
		telemetry.StageDisperseDone:  40 * ms,
		telemetry.StageBAInput:       20 * ms,
		telemetry.StageBADecide:      420 * ms,
		telemetry.StageRetrieveStart: 500 * ms,
		telemetry.StageDeliver:       1210 * ms,
	}, []telemetry.PeerSpan{
		{Peer: 0, Event: telemetry.PeerVote, At: 30 * ms},
		{Peer: 1, Event: telemetry.PeerVote, At: 415 * ms},
		{Peer: 3, Event: telemetry.PeerRetrieveResp, At: 1205 * ms},
		{Peer: 0, Event: telemetry.PeerRetrieveResp, At: 600 * ms},
	})

	paths := Join([]NodeTimelines{
		{Node: 0, Timelines: []telemetry.Timeline{n0}},
		{Node: 2, Timelines: []telemetry.Timeline{n2}},
	})
	if len(paths) != 1 {
		t.Fatalf("joined %d paths, want 1", len(paths))
	}
	p := paths[0]
	if p.Epoch != 17 || p.Nodes != 2 {
		t.Fatalf("path = %+v", p)
	}
	if len(p.Edges) != 3 {
		t.Fatalf("edges = %+v, want disperse/ba/retrieve", p.Edges)
	}
	check := func(e Edge, stage string, node, peer int, dur time.Duration) {
		t.Helper()
		if e.Stage != stage || e.Node != node || e.Peer != peer || e.Dur != dur {
			t.Fatalf("edge = %+v, want {%s node%d peer%d %v}", e, stage, node, peer, dur)
		}
	}
	check(p.Edges[0], "disperse", 0, 3, 80*ms)
	check(p.Edges[1], "ba", 2, 1, 400*ms)
	check(p.Edges[2], "retrieve", 2, 3, 710*ms)
	if p.Slowest != p.Edges[2] {
		t.Fatalf("slowest = %+v, want the retrieve edge", p.Slowest)
	}
	if p.E2E != 1200*ms || p.E2ENode != 2 {
		t.Fatalf("e2e = %v @node%d, want 1.2s @node2", p.E2E, p.E2ENode)
	}

	line := p.String()
	for _, want := range []string{
		"epoch 17", "@node2",
		"disperse 80ms @node0 (echo peer 3)",
		"ba 400ms @node2 (vote peer 1)",
		"retrieve 710ms @node2 (chunk peer 3) <- slowest",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("Path.String() = %q, missing %q", line, want)
		}
	}
}

func TestJoinPartialTimelinesAndDuplicates(t *testing.T) {
	ms := time.Millisecond
	// Only BA endpoints observed; disperse and retrieve edges must be
	// absent, not zero-length.
	partial := tl(4, map[telemetry.Kind]time.Duration{
		telemetry.StageBAInput:  10 * ms,
		telemetry.StageBADecide: 60 * ms,
		telemetry.StageDeliver:  90 * ms,
	}, nil)
	// The same node contributed twice (scraped twice): first wins.
	other := tl(4, map[telemetry.Kind]time.Duration{
		telemetry.StageBAInput:  0,
		telemetry.StageBADecide: 500 * ms,
	}, nil)
	paths := Join([]NodeTimelines{
		{Node: 1, Timelines: []telemetry.Timeline{partial, other}},
	})
	if len(paths) != 1 {
		t.Fatalf("paths = %+v", paths)
	}
	p := paths[0]
	if len(p.Edges) != 1 || p.Edges[0].Stage != "ba" || p.Edges[0].Dur != 50*ms {
		t.Fatalf("edges = %+v, want only the first timeline's ba edge", p.Edges)
	}
	if p.Edges[0].Peer != -1 {
		t.Fatalf("peer = %d, want -1 without sub-spans", p.Edges[0].Peer)
	}
	// E2E falls back to ba_input -> deliver when the node never proposed.
	if p.E2E != 80*ms {
		t.Fatalf("e2e = %v", p.E2E)
	}
}

func TestSlowestFirst(t *testing.T) {
	paths := []Path{
		{Epoch: 1, E2E: 10 * time.Millisecond},
		{Epoch: 5, E2E: 30 * time.Millisecond},
		{Epoch: 2, E2E: 30 * time.Millisecond}, // ties with 5: epoch asc
		{Epoch: 9, E2E: 20 * time.Millisecond},
	}
	got := SlowestFirst(paths, 3)
	want := []uint64{2, 5, 9}
	if len(got) != 3 {
		t.Fatalf("got %d paths", len(got))
	}
	for i := range want {
		if got[i].Epoch != want[i] {
			t.Fatalf("order = [%d %d %d], want %v", got[0].Epoch, got[1].Epoch, got[2].Epoch, want)
		}
	}
	if all := SlowestFirst(paths, 0); len(all) != 4 {
		t.Fatalf("k<=0 must keep all, got %d", len(all))
	}
	// The input slice order is untouched.
	if paths[0].Epoch != 1 {
		t.Fatal("SlowestFirst mutated its input")
	}
}
