package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// updateGolden rewrites testdata/fingerprints.golden from this run:
//
//	go test ./internal/chaos -run TestGoldenFingerprints -update
//
// A fingerprint digests the fault schedule and every honest delivery
// log, so refresh it only for a change that is meant to alter protocol
// behaviour or the plan generator — never for a telemetry, storage or
// refactoring change, which must reproduce the committed values.
var updateGolden = flag.Bool("update", false, "rewrite the chaos fingerprint golden file")

// TestGoldenFingerprints replays the four chaos configurations CI
// sweeps (`dlsim -chaos`, `-clients 2`, `-sync`, `-votecrash`, at
// dlsim's default 30 s horizon) for seeds 1-3 and compares each run's
// fingerprint with the committed value: "byte-identical behaviour
// across this change" as a tier-1 assertion instead of a manual
// comparison against a second checkout.
func TestGoldenFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve 30 s emulated chaos runs")
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"clients2", Config{Clients: 2}},
		{"sync", Config{StateSync: true}},
		{"votecrash", Config{VoteCrash: true}},
	}
	var got strings.Builder
	for _, c := range configs {
		c.cfg.Horizon = 30 * time.Second
		for seed := int64(1); seed <= 3; seed++ {
			r, err := Explore(seed, c.cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			if r.Failed() {
				t.Errorf("%s seed %d violated invariants:\n%s", c.name, seed, r.Report())
			}
			fmt.Fprintf(&got, "%s %d %016x\n", c.name, seed, r.Fingerprint)
		}
	}
	path := filepath.Join("testdata", "fingerprints.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got.String() != string(want) {
		t.Errorf("chaos fingerprints moved:\n got:\n%s want:\n%s", got.String(), want)
	}
}
