package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func snap(records ...benchRecord) *benchFile {
	return &benchFile{Records: records}
}

func rec(exp, mode string, params map[string]float64, metrics map[string]float64) benchRecord {
	return benchRecord{Experiment: exp, Mode: mode, Params: params, Metrics: metrics}
}

func TestDiffFlagsThroughputRegression(t *testing.T) {
	oldF := snap(rec("fig8", "DL", nil, map[string]float64{"mean_throughput_mbps": 10}))
	newF := snap(rec("fig8", "DL", nil, map[string]float64{"mean_throughput_mbps": 8}))
	lines, _, _ := diffSnapshots(oldF, newF, 0.10)
	if len(lines) != 1 || !lines[0].Regression {
		t.Fatalf("20%% throughput drop not flagged: %+v", lines)
	}
	// An improvement of the same size is reported but not a regression.
	newF = snap(rec("fig8", "DL", nil, map[string]float64{"mean_throughput_mbps": 12}))
	lines, _, _ = diffSnapshots(oldF, newF, 0.10)
	if len(lines) != 1 || lines[0].Regression {
		t.Fatalf("improvement misclassified: %+v", lines)
	}
}

func TestDiffDirectionPerMetric(t *testing.T) {
	oldF := snap(rec("fig10", "DL", map[string]float64{"system_load_mbps": 6},
		map[string]float64{"local_p50_ms": 400}))
	newF := snap(rec("fig10", "DL", map[string]float64{"system_load_mbps": 6},
		map[string]float64{"local_p50_ms": 500}))
	lines, _, _ := diffSnapshots(oldF, newF, 0.10)
	if len(lines) != 1 || !lines[0].Regression {
		t.Fatalf("25%% latency increase not flagged: %+v", lines)
	}
	// Latency down is an improvement.
	newF = snap(rec("fig10", "DL", map[string]float64{"system_load_mbps": 6},
		map[string]float64{"local_p50_ms": 300}))
	lines, _, _ = diffSnapshots(oldF, newF, 0.10)
	if len(lines) != 1 || lines[0].Regression {
		t.Fatalf("latency improvement misclassified: %+v", lines)
	}
}

// Downloading more per byte delivered is a regression, less an improvement.
func TestDiffAmplificationIsLowerBetter(t *testing.T) {
	oldF := snap(rec("fig8", "DL", nil, map[string]float64{"retrieve_amplification": 1.0}))
	newF := snap(rec("fig8", "DL", nil, map[string]float64{"retrieve_amplification": 1.3}))
	if lines, _, _ := diffSnapshots(oldF, newF, 0.10); len(lines) != 1 || !lines[0].Regression {
		t.Fatalf("30%% more download per delivered byte not flagged: %+v", lines)
	}
	if lines, _, _ := diffSnapshots(newF, oldF, 0.10); len(lines) != 1 || lines[0].Regression {
		t.Fatalf("less download per delivered byte misclassified: %+v", lines)
	}
}

func TestDiffNoiseThresholdAndKeys(t *testing.T) {
	oldF := snap(
		rec("fig8", "DL", nil, map[string]float64{"mean_throughput_mbps": 10}),
		rec("fig12", "", map[string]float64{"n": 16, "block_bytes": 512000},
			map[string]float64{"dispersal_fraction": 0.5}),
	)
	// A 5% wobble under a 10% threshold is silent; params distinguish
	// records, so a missing baseline point is counted, not compared.
	newF := snap(
		rec("fig8", "DL", nil, map[string]float64{"mean_throughput_mbps": 9.6}),
		rec("fig12", "", map[string]float64{"n": 31, "block_bytes": 512000},
			map[string]float64{"dispersal_fraction": 0.9}),
	)
	lines, missing, added := diffSnapshots(oldF, newF, 0.10)
	if len(lines) != 0 {
		t.Fatalf("noise flagged: %+v", lines)
	}
	if missing != 1 || added != 1 {
		t.Fatalf("missing=%d added=%d, want 1 and 1", missing, added)
	}
	// Neutral metrics (structure, not performance) never regress.
	newF = snap(rec("fig12", "", map[string]float64{"n": 16, "block_bytes": 512000},
		map[string]float64{"dispersal_fraction": 0.9}))
	lines, _, _ = diffSnapshots(oldF, newF, 0.10)
	if len(lines) != 1 || lines[0].Regression {
		t.Fatalf("neutral metric misclassified: %+v", lines)
	}
}

// A record present in both snapshots that drops a baseline metric fails
// the diff; a whole record absent from a -exp subset is only counted.
func TestDiffFlagsMissingMetric(t *testing.T) {
	params := map[string]float64{"n": 16, "block_bytes": 102400}
	oldF := snap(rec("fig2", "", params, map[string]float64{"avidm_frac": 0.18, "avidfp_frac": 0.35}))
	newF := snap(rec("fig2", "", params, map[string]float64{"avidm_frac": 0.18}))
	lines, _, _ := diffSnapshots(oldF, newF, 0.10)
	if len(lines) != 1 || !lines[0].Missing || lines[0].Metric != "avidfp_frac" {
		t.Fatalf("dropped baseline metric not flagged: %+v", lines)
	}
	dir := t.TempDir()
	write := func(name string, f *benchFile) string {
		path := filepath.Join(dir, name)
		blob, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath, newPath := write("old.json", oldF), write("new.json", newF)
	if code := runDiff(io.Discard, io.Discard, oldPath, newPath, 0.10); code != 1 {
		t.Fatalf("runDiff exit %d with a missing metric, want 1", code)
	}
	if code := runDiff(io.Discard, io.Discard, oldPath, write("none.json", snap()), 0.10); code != 0 {
		t.Fatalf("runDiff exit %d with a whole record missing, want 0", code)
	}
}
