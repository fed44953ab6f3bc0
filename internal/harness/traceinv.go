package harness

// Trace-completeness invariant: with telemetry on, the epoch-lifecycle
// tracer of an honest node that never crashed, joined, or state-synced
// must hold a well-formed disperse → BA → retrieve → deliver timeline
// for every epoch its delivery log covers, and the telemetry counters
// must reconcile exactly with what the LogRecorder observed. Chaos
// sweeps (internal/chaos) run this next to the agreement checks, so a
// span dropped, double-stamped, or stamped out of order under faults is
// a red seed, not a dashboard curiosity.

import (
	"fmt"

	"dledger/internal/telemetry"
)

// traceStageOrder lists the pairwise orderings a delivered timeline must
// respect when both endpoints were observed.
var traceStageOrder = [][2]telemetry.Kind{
	{telemetry.StageDisperseStart, telemetry.StageDisperseDone},
	{telemetry.StageDisperseStart, telemetry.StageDeliver},
	{telemetry.StageBAInput, telemetry.StageBADecide},
	{telemetry.StageBADecide, telemetry.StageDeliver},
	{telemetry.StageRetrieveStart, telemetry.StageDeliver},
}

// CheckTraceCompleteness verifies node `node`'s telemetry against its
// recorded delivery log. It assumes the node's current incarnation
// observed the whole run (never crashed, joined, or synced): every
// distinct epoch in the log must have a delivered timeline whose stage
// timestamps are present and ordered, and the delivered-epoch, block
// and transaction counters must equal the log's totals. The sampled
// transaction journeys are held to the same standard: every finalized journey must be well-formed (checkpoint
// order, non-negative phases) and belong to an epoch this node's log
// shows it proposing in, and no sampled transaction may remain live in
// an epoch the log already covers (a stuck journey under faults is a
// telemetry bug, not a dashboard curiosity).
func CheckTraceCompleteness(node int, tel *telemetry.Metrics, log []LogEntry) []string {
	var out []string
	if tel == nil {
		return []string{fmt.Sprintf("trace: node %d has no telemetry bundle", node)}
	}

	// The delivery log records one entry per block; collapse to the
	// distinct epochs and per-epoch totals the tracer and counters see.
	// Two shapes keep the sets from matching exactly: the horizon can
	// cut the highest logged epoch mid-delivery (blocks in the log, no
	// epoch-complete span yet), and an epoch whose every BA decided
	// zero completes with no blocks at all (a span, no log entries).
	epochs := map[uint64]bool{}
	blocks, txs := 0, 0
	maxEpoch := uint64(0)
	for _, e := range log {
		epochs[e.Epoch] = true
		blocks++
		txs += e.TxCount
		if e.Epoch > maxEpoch {
			maxEpoch = e.Epoch
		}
	}

	delivered := tel.Trace().Delivered()
	byEpoch := map[uint64]telemetry.Timeline{}
	for _, tl := range delivered {
		if _, dup := byEpoch[tl.Epoch]; dup {
			out = append(out, fmt.Sprintf("trace: node %d delivered epoch %d twice", node, tl.Epoch))
		}
		byEpoch[tl.Epoch] = tl
	}

	// Completeness: every fully delivered epoch's timeline is retained.
	for e := range epochs {
		if _, ok := byEpoch[e]; !ok && e != maxEpoch {
			out = append(out, fmt.Sprintf("trace: node %d delivered epoch %d with no timeline", node, e))
		}
	}
	// Well-formedness of every completed timeline (logged or empty).
	for _, tl := range byEpoch {
		e := tl.Epoch
		// An epoch cannot deliver without deciding, and a decided epoch
		// had at least one BA instance fed: those two stages (plus the
		// deliver stamp that completed the timeline) are unconditional.
		for _, s := range []telemetry.Kind{telemetry.StageBAInput, telemetry.StageBADecide, telemetry.StageDeliver} {
			if !tl.Has(s) {
				out = append(out, fmt.Sprintf("trace: node %d epoch %d delivered without a %s span", node, e, s))
			}
		}
		for _, ord := range traceStageOrder {
			a, b := ord[0], ord[1]
			if tl.Has(a) && tl.Has(b) && tl.At(a) > tl.At(b) {
				out = append(out, fmt.Sprintf("trace: node %d epoch %d has %s at %s after %s at %s",
					node, e, a, tl.At(a), b, tl.At(b)))
			}
		}
		if tl.Has(telemetry.StageBAInput) && tl.E2E() <= 0 {
			out = append(out, fmt.Sprintf("trace: node %d epoch %d delivered with non-positive e2e %s",
				node, e, tl.E2E()))
		}
	}

	// Counter reconciliation: re-registering a family returns the live
	// handle, so these are the very counters the replica incremented.
	// The epoch counter and the tracer observe the same epoch-complete
	// event, so they must agree exactly; blocks and transactions are
	// counted per delivery and must match the log to the unit.
	reg := tel.Registry()
	if got := reg.Counter("dl_epochs_delivered_total", "", "").Value(); got != uint64(len(byEpoch)) {
		out = append(out, fmt.Sprintf("trace: node %d counted %d delivered epochs, tracer holds %d timelines",
			node, got, len(byEpoch)))
	}
	linked := reg.Counter("dl_blocks_delivered_total", `kind="linked"`, "").Value()
	ba := reg.Counter("dl_blocks_delivered_total", `kind="ba"`, "").Value()
	if linked+ba != uint64(blocks) {
		out = append(out, fmt.Sprintf("trace: node %d counted %d+%d delivered blocks, log has %d",
			node, linked, ba, blocks))
	}
	if got := reg.Counter("dl_txs_delivered_total", "", "").Value(); got != uint64(txs) {
		out = append(out, fmt.Sprintf("trace: node %d counted %d delivered txs, log has %d",
			node, got, txs))
	}
	out = append(out, checkJourneys(node, tel.Journeys(), maxEpoch, log)...)
	return out
}

// checkJourneys validates the sampled transaction journeys against the
// delivery log: finalized journeys are well-formed and reconcile with
// the epochs this node proposed in; live journeys are not stuck in an
// epoch the log already delivered.
func checkJourneys(node int, jour *telemetry.Journeys, maxEpoch uint64, log []LogEntry) []string {
	var out []string
	// The journeys layer only tracks transactions this node submitted
	// and proposed itself, so a finalized journey's epoch must appear
	// in the log with this node as proposer. selfEpochs maps each such
	// epoch to the epoch whose delivery carried the block: its own, or
	// for a block that lost its agreement instance the later one that
	// linked it in (an epoch's BA-committed blocks precede its linked
	// ones in the log).
	selfEpochs := map[uint64]uint64{}
	delivering := uint64(0)
	for _, e := range log {
		if !e.Linked {
			delivering = e.Epoch
		}
		if e.Proposer == node {
			selfEpochs[e.Epoch] = delivering
		}
	}
	for _, j := range jour.Completed() {
		if !j.Complete {
			out = append(out, fmt.Sprintf("trace: node %d journey %x finalized without Complete", node, j.Hash[:4]))
		}
		for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
			if j.Phases[p] < 0 {
				out = append(out, fmt.Sprintf("trace: node %d journey %x has negative %s phase %s",
					node, j.Hash[:4], p, j.Phases[p]))
			}
		}
		if j.Proposals > 0 && j.Proposed < j.Enqueued {
			out = append(out, fmt.Sprintf("trace: node %d journey %x proposed at %s before enqueue at %s",
				node, j.Hash[:4], j.Proposed, j.Enqueued))
		}
		if j.HasDelivered && (j.Delivered < j.Enqueued || j.Done < j.Delivered) {
			out = append(out, fmt.Sprintf("trace: node %d journey %x checkpoints out of order (enq %s, deliver %s, done %s)",
				node, j.Hash[:4], j.Enqueued, j.Delivered, j.Done))
		}
		// The journey finalizes when its block delivers; an epoch this
		// node never proposed in (per its own log) cannot carry one of
		// its transactions. An empty-block epoch leaves no log entry,
		// but an empty block also carries no transactions, so every
		// journey-bearing epoch must be logged.
		if _, ok := selfEpochs[j.Epoch]; !ok {
			out = append(out, fmt.Sprintf("trace: node %d journey %x finalized in epoch %d, which its log never shows it proposing",
				node, j.Hash[:4], j.Epoch))
		}
	}
	// Stuck detection: a live journey whose block the log already
	// delivered, in an epoch that went on to complete (horizon cut
	// aside), means EpochDelivered never finalized it — exactly the
	// stall the flight-recorder checkpoints exist to expose. A block
	// that lost its agreement instance and still awaits linking keeps
	// its journeys live, rightly.
	for _, j := range jour.Live() {
		if in, ok := selfEpochs[j.Epoch]; ok && j.Proposals > 0 && in != maxEpoch {
			out = append(out, fmt.Sprintf("trace: node %d journey %x stuck live in delivered epoch %d",
				node, j.Hash[:4], j.Epoch))
		}
	}
	return out
}
