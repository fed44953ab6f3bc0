package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/replica"
	"dledger/internal/telemetry"
	"dledger/internal/trace"
)

// updateGolden rewrites testdata/observable from the current run:
//
//	go test ./internal/harness -run TestObservableOutputGolden -update
//
// Only do that for a change that is meant to move an operator-visible
// output; a telemetry refactor must pass against the committed files.
var updateGolden = flag.Bool("update", false, "rewrite the observable-output golden files")

// TestObservableOutputGolden pins everything an operator can read off
// one node's telemetry after a seeded emulated run with both in-process
// and gateway-client traffic: the /metrics exposition (sorted, so
// registration order is not part of the contract), the flight-recorder
// journal as text and as JSON, the whole /statusz payload, the
// slowest-epochs query and the finalized transaction journeys. The
// emulator is deterministic, so any byte that moves is a behaviour
// change in the observation path.
func TestObservableOutputGolden(t *testing.T) {
	const n = 4
	traces := make([]trace.Trace, n)
	for i := range traces {
		traces[i] = trace.Constant(2 * trace.MB)
	}
	c, err := NewCluster(ClusterOptions{
		Core:        core.Config{N: n, F: 1, Mode: core.ModeDL, CoinSecret: []byte("observable golden")},
		Replica:     replica.Params{BatchDelay: 100 * time.Millisecond},
		Egress:      traces,
		TxSize:      250,
		LoadPerNode: 40 << 10,
		Clients:     1,
		Telemetry:   true,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(8 * time.Second)

	tel := c.Tels[0]
	mux := telemetry.NewAdminMux(tel, nil)
	get := func(path string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	indent := func(v any) string {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	lines := strings.Split(strings.TrimSuffix(get("/metrics"), "\n"), "\n")
	sort.Strings(lines)

	journeys := tel.Journeys().Completed()
	admitted := 0
	for _, j := range journeys {
		if j.HasAdmit && j.HasProof {
			admitted++
		}
	}
	if len(journeys) == 0 || admitted == 0 || admitted == len(journeys) {
		t.Fatalf("run must finalize both in-process and gateway journeys: %d completed, %d through the gateway",
			len(journeys), admitted)
	}

	for name, got := range map[string]string{
		"metrics.txt":         strings.Join(lines, "\n") + "\n",
		"flightrecorder.txt":  get("/debug/flightrecorder"),
		"flightrecorder.json": get("/debug/flightrecorder?format=json"),
		"statusz.json":        get("/statusz"),
		"slowest_epochs.json": indent(tel.Trace().SlowestEpochs(10)),
		"journeys.json":       indent(journeys),
	} {
		path := filepath.Join("testdata", "observable", name)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (generate with -update)", err)
		}
		if got != string(want) {
			t.Errorf("%s differs from the committed golden (first difference at %s)", name, firstDiff(got, string(want)))
		}
	}
}

// firstDiff names the first line where two texts differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d (one side ends)", min(len(g), len(w))+1)
}
