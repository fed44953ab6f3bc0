// Package dlctl implements the cluster-observability aggregator behind
// cmd/dlctl: it scrapes every node's /statusz, verifies the payload
// schema version, joins the nodes' epoch timelines into cluster-level
// delivery critical paths (internal/telemetry/criticalpath), and renders
// one operator-facing cluster report — per-node positions, per-peer link
// health, laggards approaching the RetainEpochs pruning horizon, and the
// top-K slowest epochs each named with its bottleneck stage and peer.
// The latency view (dlctl ... latency) instead renders the sampled
// transaction-journey phase decomposition next to the queue gauges and
// critical paths: which phase of admit → mempool → disperse → BA →
// retrieve → deliver → proof the commit latency actually lives in.
//
// The library half is separate from the flag wrapper so tests (and the
// 4-node admin-endpoint smoke test) can drive a scrape-and-render pass
// against live listeners in-process.
package dlctl

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"dledger/internal/telemetry"
	"dledger/internal/telemetry/criticalpath"
)

// Status is one node's parsed /statusz payload.
type Status struct {
	// Addr is the admin address the payload was scraped from.
	Addr string
	// SchemaVersion echoes the payload's schema_version field.
	SchemaVersion int `json:"schema_version"`
	// Node is the node's id.
	Node int `json:"node"`
	// Config is the node's resolved protocol configuration.
	Config struct {
		N            int    `json:"n"`
		F            int    `json:"f"`
		Mode         string `json:"mode"`
		RetainEpochs uint64 `json:"retain_epochs"`
		StateSync    bool   `json:"state_sync"`
	} `json:"config"`
	// Position is the node's log position.
	Position struct {
		DeliveredEpoch uint64 `json:"delivered_epoch"`
		DecidedThrough uint64 `json:"decided_through"`
		DispersalEpoch uint64 `json:"dispersal_epoch"`
		PrunedThrough  uint64 `json:"pruned_through"`
	} `json:"position"`
	// Sync is the node's state-sync digest (present when enabled).
	Sync struct {
		// Points lists the checkpoint epochs this node can serve, oldest
		// first.
		Points []uint64 `json:"points"`
	} `json:"sync"`
	// Metrics is the raw metrics snapshot keyed by series name; counters
	// and gauges decode as numbers, histograms as objects.
	Metrics map[string]json.RawMessage `json:"metrics"`
	// Timelines are the node's recent delivered epoch timelines.
	Timelines []telemetry.Timeline `json:"timelines"`
}

// Scrape fetches and parses one node's /statusz. It fails loudly on a
// schema_version mismatch: silently mis-reading a drifted payload is
// exactly the aggregator failure mode the field exists to prevent.
func Scrape(client *http.Client, addr string) (*Status, error) {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := client.Get(url + "/statusz?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dlctl: %s: HTTP %d", addr, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		return nil, fmt.Errorf("dlctl: %s: unexpected Content-Type %q", addr, ct)
	}
	return decodeStatus(addr, resp.Body)
}

// decodeStatus parses the /statusz body scraped from addr.
func decodeStatus(addr string, body io.Reader) (*Status, error) {
	st := &Status{Addr: addr}
	if err := json.NewDecoder(body).Decode(st); err != nil {
		return nil, fmt.Errorf("dlctl: %s: %v", addr, err)
	}
	if st.SchemaVersion != telemetry.StatusSchemaVersion {
		return nil, fmt.Errorf("dlctl: %s: statusz schema version %d, this dlctl speaks %d — upgrade the older side",
			addr, st.SchemaVersion, telemetry.StatusSchemaVersion)
	}
	return st, nil
}

// ScrapeAll scrapes every address, collecting reachable nodes and
// per-address errors (both may be non-empty: a partial cluster view is
// still renderable, and the errors name who is missing from it).
func ScrapeAll(client *http.Client, addrs []string) ([]*Status, []error) {
	var sts []*Status
	var errs []error
	for _, a := range addrs {
		st, err := Scrape(client, a)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		sts = append(sts, st)
	}
	return sts, errs
}

// histogram extracts a histogram snapshot from the metrics map; ok is
// false when the series is absent or not a histogram.
func (s *Status) histogram(series string) (telemetry.HistogramSnapshot, bool) {
	raw, ok := s.Metrics[series]
	if !ok {
		return telemetry.HistogramSnapshot{}, false
	}
	var hs telemetry.HistogramSnapshot
	if json.Unmarshal(raw, &hs) != nil || hs.Count == 0 {
		return telemetry.HistogramSnapshot{}, false
	}
	return hs, true
}

// number extracts a numeric metric (counter or gauge) from a snapshot;
// ok is false when absent or non-numeric (e.g. a histogram).
func (s *Status) number(series string) (float64, bool) {
	raw, ok := s.Metrics[series]
	if !ok {
		return 0, false
	}
	var v float64
	if json.Unmarshal(raw, &v) != nil {
		return 0, false
	}
	return v, true
}

// peerSeries matches the per-peer transport series dlctl renders.
var peerSeries = regexp.MustCompile(`^(dl_transport_peer_(?:acks_total|replayed_frames_total|rtt_us))\{peer="(\d+)"\}$`)

// linkHealth is one (node, peer) link's transport counters.
type linkHealth struct {
	peer     int
	acks     float64
	replayed float64
	rttUs    float64
	hasRTT   bool
}

// links extracts the node's per-peer link-health series, sorted by peer.
func (s *Status) links() []linkHealth {
	byPeer := map[int]*linkHealth{}
	for series := range s.Metrics {
		m := peerSeries.FindStringSubmatch(series)
		if m == nil {
			continue
		}
		peer, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		lh := byPeer[peer]
		if lh == nil {
			lh = &linkHealth{peer: peer}
			byPeer[peer] = lh
		}
		v, ok := s.number(series)
		if !ok {
			continue
		}
		switch m[1] {
		case "dl_transport_peer_acks_total":
			lh.acks = v
		case "dl_transport_peer_replayed_frames_total":
			lh.replayed = v
		case "dl_transport_peer_rtt_us":
			lh.rttUs = v
			lh.hasRTT = true
		}
	}
	out := make([]linkHealth, 0, len(byPeer))
	for _, lh := range byPeer {
		out = append(out, *lh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].peer < out[j].peer })
	return out
}

// Report renders the cluster view: positions, laggards, link health and
// the top-K slowest epochs with their joined critical paths.
func Report(w io.Writer, sts []*Status, errs []error, topK int) {
	for _, err := range errs {
		fmt.Fprintf(w, "UNREACHABLE %v\n", err)
	}
	if len(sts) == 0 {
		fmt.Fprintln(w, "no reachable nodes")
		return
	}
	sort.Slice(sts, func(i, j int) bool { return sts[i].Node < sts[j].Node })

	c := sts[0].Config
	fmt.Fprintf(w, "cluster: mode=%s n=%d f=%d retain_epochs=%d state_sync=%v (%d/%d nodes reporting)\n",
		c.Mode, c.N, c.F, c.RetainEpochs, c.StateSync, len(sts), c.N)

	maxDelivered := uint64(0)
	for _, s := range sts {
		if s.Position.DeliveredEpoch > maxDelivered {
			maxDelivered = s.Position.DeliveredEpoch
		}
	}
	fmt.Fprintln(w, "\npositions:")
	for _, s := range sts {
		p := s.Position
		fmt.Fprintf(w, "  node %d (%s): delivered=%d decided=%d dispersal=%d pruned=%d",
			s.Node, s.Addr, p.DeliveredEpoch, p.DecidedThrough, p.DispersalEpoch, p.PrunedThrough)
		if behind := maxDelivered - p.DeliveredEpoch; c.RetainEpochs > 0 && behind > 0 {
			// The laggard's margin is measured against the cluster's
			// pruning horizon: once it is RetainEpochs behind, peers may
			// have garbage-collected the chunks it still needs.
			fmt.Fprintf(w, "  [%d behind", behind)
			if behind >= c.RetainEpochs {
				fmt.Fprintf(w, ", PAST the retain horizon (%d)", c.RetainEpochs)
			} else if 2*behind >= c.RetainEpochs {
				fmt.Fprintf(w, ", nearing the retain horizon (%d)", c.RetainEpochs)
			}
			fmt.Fprint(w, "]")
		}
		fmt.Fprintln(w)
	}

	if c.StateSync {
		fmt.Fprintln(w, "\nstate-sync checkpoints (servable to joiners, oldest first):")
		for _, s := range sts {
			if len(s.Sync.Points) == 0 {
				fmt.Fprintf(w, "  node %d: none yet\n", s.Node)
				continue
			}
			fmt.Fprintf(w, "  node %d: %v\n", s.Node, s.Sync.Points)
		}
	}

	fmt.Fprintln(w, "\nlink health (per sender link: acks, replayed frames, last RTT):")
	for _, s := range sts {
		links := s.links()
		if len(links) == 0 {
			fmt.Fprintf(w, "  node %d: no per-peer transport series\n", s.Node)
			continue
		}
		for _, lh := range links {
			fmt.Fprintf(w, "  node %d -> peer %d: acks=%.0f replayed=%.0f", s.Node, lh.peer, lh.acks, lh.replayed)
			if lh.hasRTT && lh.rttUs > 0 {
				fmt.Fprintf(w, " rtt=%s", (time.Duration(lh.rttUs) * time.Microsecond).Round(10*time.Microsecond))
			}
			if lh.replayed > 0 {
				fmt.Fprint(w, "  [reconnected: frames were replayed]")
			}
			fmt.Fprintln(w)
		}
	}

	criticalSection(w, sts, topK)
}

// criticalSection renders the top-K slowest epochs with their joined
// cross-node critical paths (shared by the default and latency views).
func criticalSection(w io.Writer, sts []*Status, topK int) {
	nodes := make([]criticalpath.NodeTimelines, 0, len(sts))
	for _, s := range sts {
		nodes = append(nodes, criticalpath.NodeTimelines{Node: s.Node, Timelines: s.Timelines})
	}
	paths := criticalpath.SlowestFirst(criticalpath.Join(nodes), topK)
	fmt.Fprintf(w, "\nslowest epochs (top %d, cross-node critical path):\n", topK)
	if len(paths) == 0 {
		fmt.Fprintln(w, "  no delivered timelines yet")
		return
	}
	for _, p := range paths {
		fmt.Fprintf(w, "  %s\n", p.String())
	}
}

// transportWriteSeries matches the per-peer write-queue depth gauges.
var transportWriteSeries = regexp.MustCompile(`^dl_queue_transport_write\{peer="(\d+)"\}$`)

// fmtSec renders a histogram quantile (exposition unit: seconds) as a
// rounded duration.
func fmtSec(s float64) string {
	d := time.Duration(s * float64(time.Second))
	if d >= time.Second {
		return d.Round(10 * time.Millisecond).String()
	}
	return d.Round(time.Millisecond).String()
}

// LatencyReport renders the "where is my latency" view: the cluster's
// sampled transaction-journey phase decomposition (per-phase quantiles
// averaged over the nodes that observed the phase, counts summed), its
// reconciliation sum — which approximates the client-observed commit
// latency — the per-node queue/backpressure gauges that explain any
// waiting phase, and the slowest-epoch critical paths for cross-node
// context.
func LatencyReport(w io.Writer, sts []*Status, errs []error, topK int) {
	for _, err := range errs {
		fmt.Fprintf(w, "UNREACHABLE %v\n", err)
	}
	if len(sts) == 0 {
		fmt.Fprintln(w, "no reachable nodes")
		return
	}
	sort.Slice(sts, func(i, j int) bool { return sts[i].Node < sts[j].Node })
	c := sts[0].Config
	fmt.Fprintf(w, "cluster: mode=%s n=%d f=%d (%d/%d nodes reporting)\n",
		c.Mode, c.N, c.F, len(sts), c.N)

	fmt.Fprintln(w, "\ntx phase decomposition (sampled journeys; quantile = mean over reporting nodes):")
	var sum50, sum95 float64
	var total uint64
	seen := 0
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		series := telemetry.PhaseMetric + `{phase="` + p.String() + `"}`
		var s50, s95 float64
		var count uint64
		nodes := 0
		for _, st := range sts {
			if hs, ok := st.histogram(series); ok {
				count += hs.Count
				s50 += hs.P50
				s95 += hs.P95
				nodes++
			}
		}
		if nodes == 0 {
			continue
		}
		seen++
		p50, p95 := s50/float64(nodes), s95/float64(nodes)
		sum50 += p50
		sum95 += p95
		if count > total {
			total = count
		}
		fmt.Fprintf(w, "  %-12s  count=%-8d p50=%-10s p95=%s\n", p.String(), count, fmtSec(p50), fmtSec(p95))
	}
	if seen == 0 {
		fmt.Fprintln(w, "  no sampled journeys finalized yet")
	} else {
		fmt.Fprintf(w, "  %-12s  %-14s p50=%-10s p95=%s  (≈ client-observed commit latency)\n",
			"phase sum", "", fmtSec(sum50), fmtSec(sum95))
	}

	fmt.Fprintln(w, "\nqueues (backpressure gauges, per node):")
	for _, s := range sts {
		front, _ := s.number(`dl_queue_mempool_txs{shard="front"}`)
		clients, _ := s.number(`dl_queue_mempool_txs{shard="clients"}`)
		age, _ := s.number("dl_queue_mempool_oldest_age_ms")
		fill, _ := s.number("dl_queue_proposal_fill_pct")
		retr, _ := s.number("dl_queue_retrieval_inflight")
		ba, _ := s.number("dl_queue_ba_inflight")
		fmt.Fprintf(w, "  node %d: mempool front=%.0f clients=%.0f oldest=%s proposal_fill=%.0f%% retrieval=%.0f ba=%.0f",
			s.Node, front, clients, (time.Duration(age) * time.Millisecond).String(), fill, retr, ba)
		// Transport backpressure: name the deepest write queue, the
		// usual culprit when a phase waits on a specific peer.
		maxDepth, maxPeer := 0.0, -1
		for series := range s.Metrics {
			m := transportWriteSeries.FindStringSubmatch(series)
			if m == nil {
				continue
			}
			if v, ok := s.number(series); ok && v >= maxDepth {
				maxDepth = v
				maxPeer, _ = strconv.Atoi(m[1])
			}
		}
		if maxPeer >= 0 {
			fmt.Fprintf(w, " write_q_max=%.0f@peer%d", maxDepth, maxPeer)
		}
		fmt.Fprintln(w)
	}

	criticalSection(w, sts, topK)
}
