package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dledger/internal/ba"
	"dledger/internal/store"
)

// Format fixture, hostile-length table and fuzz target for the engine
// snapshot. The helpers are the ones of internal/wire/formats_test.go,
// repeated because test files cannot be imported across packages.

var update = flag.Bool("update", false, "rewrite the testdata/golden fixtures")

// golden returns the committed fixture testdata/golden/<name>.hex. A
// non-nil enc must equal it; under -update enc replaces it instead.
func golden(t testing.TB, name string, enc []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".hex")
	if *update && enc != nil {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(enc)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if enc != nil && !bytes.Equal(enc, want) {
		t.Fatalf("%s: encoding differs from the committed fixture\n got %x\nwant %x", name, enc, want)
	}
	return want
}

// goldenSeeds returns every committed fixture whose name starts with
// prefix: the seed corpus of the fuzz targets.
func goldenSeeds(t testing.TB, prefix string) (seeds [][]byte) {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join("testdata", "golden", prefix+"*.hex"))
	for _, p := range paths {
		seeds = append(seeds, golden(t, strings.TrimSuffix(filepath.Base(p), ".hex"), nil))
	}
	if len(seeds) == 0 {
		t.Fatalf("no golden fixture matches %q", prefix)
	}
	return seeds
}

// lenField locates one length or count field of a valid encoding: width
// bytes big-endian at off, counting elements of at least elem bytes.
type lenField struct {
	name             string
	off, width, elem int
}

// rejectHostileLengths forges every field of a valid encoding to its
// maximum, to 0xFFFFFFF0 (u32 fields: negative as an int32, and any
// header size added to it wraps a uint32) and to one element more than
// the bytes after the field can hold. Each forgery must be rejected —
// without panicking, without allocating in proportion to the forged
// count, and without looping on it.
func rejectHostileLengths(t *testing.T, enc []byte, decode func([]byte) error, fields []lenField) {
	t.Helper()
	if err := decode(append([]byte(nil), enc...)); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
	for _, f := range fields {
		forged := []uint64{1<<(8*f.width) - 1, uint64((len(enc)-f.off-f.width)/f.elem + 1)}
		if f.width == 4 {
			forged = append(forged, 0xFFFFFFF0)
		}
		for _, v := range forged {
			if v >= 1<<(8*f.width) {
				continue // one more than fits is more than the field can say
			}
			bad := append([]byte(nil), enc...)
			var be [8]byte
			binary.BigEndian.PutUint64(be[:], v)
			copy(bad[f.off:], be[8-f.width:])
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			err := decode(bad)
			took := time.Since(start)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s forged to %#x: decoded without error", f.name, v)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64<<10+64*len(enc)) {
				t.Errorf("%s forged to %#x: decoder allocated %d bytes for a %d-byte input", f.name, v, grew, len(enc))
			}
			if took > time.Second {
				t.Errorf("%s forged to %#x: decoder spun for %v", f.name, v, took)
			}
		}
	}
}

// goldenSnapshot is the canonical snapshot instance; votes selects
// whether it carries the vote section.
func goldenSnapshot(votes bool) *Snapshot {
	s := &Snapshot{
		LastProposed:   12,
		DecidedThrough: 11,
		DeliveredEpoch: 9,
		PrunedThrough:  2,
		Watermark:      []uint64{12, 11, 0, 13},
		LinkedFloor:    []uint64{9, 9, 8, 9},
		Decided: []SnapEpoch{
			{Epoch: 10, S: []int{0, 1, 3}},
			{Epoch: 11, S: []int{1, 2, 3}},
		},
		Blocks: []store.ManifestBlock{
			{Epoch: 9, Proposer: 2, V: []uint64{8, 8, 8, 8}},
			{Epoch: 10, Proposer: 0, Bad: true},
		},
		MyBlocks: []SnapMyBlock{{Epoch: 12, Block: []byte("my-block")}},
	}
	if votes {
		s.Votes = []SnapVotes{
			{Epoch: 12, Proposer: 1, Votes: []ba.Vote{
				{Kind: ba.VoteBVal, Round: 0, Value: true},
				{Kind: ba.VoteBVal + 1, Round: 0, Value: true},
			}},
			{Epoch: 12, Proposer: 2, Halted: true},
		}
	}
	return s
}

func TestGoldenSnapshot(t *testing.T) {
	for name, votes := range map[string]bool{"snapshot-votes": true, "snapshot-prevote": false} {
		s := goldenSnapshot(votes)
		enc := s.Encode()
		if !votes {
			// Snapshots written before vote persistence end after the
			// own-block section; Encode now always appends the (empty)
			// vote section's count.
			enc = enc[:len(enc)-4]
		}
		got, err := DecodeSnapshot(golden(t, name, enc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: fixture decodes to %+v, want %+v", name, got, s)
		}
	}
}

func TestSnapshotHostileLengths(t *testing.T) {
	decode := func(b []byte) error { _, err := DecodeSnapshot(b); return err }
	const (
		nodes    = 4 * 8
		decided  = 34 + 16*4                // count of decided epochs
		blocks   = decided + 4 + 2*(10+2*3) // count of delivered blocks
		myBlocks = blocks + 4 + (11 + 2 + 8*4) + 11
		votes    = myBlocks + 4 + 12 + len("my-block")
	)
	rejectHostileLengths(t, goldenSnapshot(true).Encode(), decode, []lenField{
		{"node count", nodes, 2, 16},
		{"decided count", decided, 4, 10},
		{"first decided S count", decided + 4 + 8, 2, 2},
		{"block count", blocks, 4, 11},
		{"first block's V count", blocks + 4 + 11, 2, 8},
		{"own-block count", myBlocks, 4, 12},
		{"first own block's length", myBlocks + 4 + 8, 4, 1},
		{"vote instance count", votes, 4, 15},
		{"first instance's vote count", votes + 4 + 11, 4, 6},
	})
}

// FuzzDecodeSnapshot: checkpoint payloads are read back from disk, so
// the decoder must fail cleanly on anything and be stable on what it
// accepts.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, seed := range goldenSeeds(f, "snapshot-") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		enc := s.Encode()
		s2, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted snapshot failed: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("decode is not stable:\n%+v\n%+v", s, s2)
		}
		if !bytes.Equal(s2.Encode(), enc) {
			t.Fatal("encoding is not canonical across a round trip")
		}
	})
}
