package harness

import (
	"strings"
	"testing"
	"time"

	"dledger/internal/telemetry"
)

func TestViolationEpochs(t *testing.T) {
	got := ViolationEpochs([]string{
		"agreement: node 1 and node 2 diverge at epoch 17 (position 4)",
		"liveness: epoch 3 and epoch 17 undelivered",
		"gateway: client 0@1 has 2 accepted txs uncommitted at the horizon",
	})
	want := []uint64{3, 17}
	if len(got) != len(want) {
		t.Fatalf("epochs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epochs = %v, want %v (dedup + sorted)", got, want)
		}
	}
	if out := ViolationEpochs([]string{"no epoch named here"}); len(out) != 0 {
		t.Fatalf("epochs = %v, want none", out)
	}
}

func TestFlightDumpFiltersAndCaps(t *testing.T) {
	tels := []*telemetry.Metrics{
		telemetry.New(telemetry.Options{FlightRing: 64}),
		nil, // a node without telemetry renders as absent, not a panic
	}
	tels[0].Emit(telemetry.Event{At: time.Millisecond, Kind: telemetry.StageBADecide, Epoch: 5})
	tels[0].Emit(telemetry.Event{At: 2 * time.Millisecond, Kind: telemetry.StageDeliver, Epoch: 6})
	tels[0].Emit(telemetry.Event{At: 3 * time.Millisecond, Kind: telemetry.Fsync, Arg: 1000})

	dump := FlightDump(tels, []uint64{5})
	if !strings.Contains(dump, "epoch=5") {
		t.Fatalf("dump missing the filtered epoch:\n%s", dump)
	}
	if strings.Contains(dump, "epoch=6") {
		t.Fatalf("dump leaked an unrelated epoch:\n%s", dump)
	}
	// Ambient epoch-0 I/O events (fsync) always pass the filter.
	if !strings.Contains(dump, "fsync") {
		t.Fatalf("dump dropped ambient fsync event:\n%s", dump)
	}
	if !strings.Contains(dump, "node 1: no flight recorder") {
		t.Fatalf("dump missing the telemetry-less node marker:\n%s", dump)
	}

	// Unfiltered dump keeps everything, capped per node.
	all := FlightDump(tels[:1], nil)
	for _, want := range []string{"epoch=5", "epoch=6", "fsync"} {
		if !strings.Contains(all, want) {
			t.Fatalf("unfiltered dump missing %q:\n%s", want, all)
		}
	}
}
