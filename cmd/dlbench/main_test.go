package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownExperimentRejected: a typo in -exp must fail loudly, not run
// nothing and write an empty snapshot that -diff then passes.
func TestUnknownExperimentRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig2,fig99", "-jsonpath", path}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stdout:\n%s", code, stdout.String())
	}
	for _, want := range []string{`"fig99"`, "valid ids: fig2, fig8, fig9,", "abl-lag"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr does not name %s:\n%s", want, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("ran something before rejecting the list:\n%s", stdout.String())
	}
}

// TestFig9AndFig11aMatchBaseline pins the fig9 and fig11a records, run
// the way -exp runs them, to the committed BENCH_20261004.json bit for
// bit: fig9 reads the progress series at Fig 9's 100 ms resolution and
// fig11a runs on the spatial link profile, and a seeded emulator run
// repeats exactly.
func TestFig9AndFig11aMatchBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("five 30-second 16-node emulator runs")
	}
	path := filepath.Join(t.TempDir(), "out.json")
	if code := run([]string{"-exp", "fig9,fig11a", "-telemetry", "-jsonpath", path}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	got, err := loadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	base, err := loadBench("../../BENCH_20261004.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]benchRecord{}
	for _, r := range base.Records {
		want[recordKey(r)] = r
	}
	count := map[string]int{}
	for _, r := range got.Records {
		count[r.Experiment]++
		w, ok := want[recordKey(r)]
		if !ok {
			t.Errorf("%s: no baseline record", recordKey(r))
			continue
		}
		if len(r.Metrics) != len(w.Metrics) {
			t.Errorf("%s: metrics %v, baseline %v", recordKey(r), r.Metrics, w.Metrics)
		}
		for name, v := range w.Metrics {
			if r.Metrics[name] != v {
				t.Errorf("%s %s = %v, baseline %v", recordKey(r), name, r.Metrics[name], v)
			}
		}
	}
	if count["fig9"] != 2 || count["fig11a"] != 3 || len(got.Records) != 5 {
		t.Errorf("records per experiment %v, want fig9: 2, fig11a: 3", count)
	}
}
