package harness

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"dledger/internal/telemetry"
)

// epochRef extracts "epoch N" references from invariant-violation text.
var epochRef = regexp.MustCompile(`epoch (\d+)`)

// ViolationEpochs parses the epoch numbers named by a batch of invariant
// violations, deduplicated and sorted. Violations that name no epoch
// contribute nothing; callers should dump unfiltered when the result is
// empty.
func ViolationEpochs(violations []string) []uint64 {
	seen := map[uint64]bool{}
	for _, v := range violations {
		for _, m := range epochRef.FindAllStringSubmatch(v, -1) {
			if e, err := strconv.ParseUint(m[1], 10, 64); err == nil {
				seen[e] = true
			}
		}
	}
	out := make([]uint64, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// flightDumpCap bounds the per-node event count a dump renders, keeping
// failure reports readable when a violation implicates a busy epoch.
const flightDumpCap = 256

// FlightDump renders every node's flight-recorder journal as one
// cross-node text report, filtered to the given epochs (nil/empty =
// everything). Events with epoch 0 and no epoch affinity (fsync,
// sync-page) always pass the filter — they are the ambient I/O context a
// violation post-mortem wants alongside the protocol events. Nodes
// without telemetry render as absent.
func FlightDump(tels []*telemetry.Metrics, epochs []uint64) string {
	want := map[uint64]bool{}
	for _, e := range epochs {
		want[e] = true
	}
	var b strings.Builder
	for i, tel := range tels {
		fr := tel.Flight()
		if fr == nil {
			fmt.Fprintf(&b, "node %d: no flight recorder\n", i)
			continue
		}
		evs := fr.Events()
		var kept []telemetry.Event
		for _, ev := range evs {
			if len(want) == 0 || want[ev.Epoch] || ev.Epoch == 0 {
				kept = append(kept, ev)
			}
		}
		dropped := 0
		if len(kept) > flightDumpCap {
			dropped = len(kept) - flightDumpCap
			kept = kept[len(kept)-flightDumpCap:]
		}
		fmt.Fprintf(&b, "node %d: %d/%d events match (%d recorded total", i, len(kept)+dropped, len(evs), fr.Total())
		if dropped > 0 {
			fmt.Fprintf(&b, "; oldest %d matching elided", dropped)
		}
		b.WriteString(")\n")
		for _, ev := range kept {
			fmt.Fprintf(&b, "  %s\n", ev.String())
		}
	}
	return b.String()
}
