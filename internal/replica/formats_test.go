package replica

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

	"dledger/internal/core"
	"dledger/internal/mempool"
)

// Format fixtures, hostile-length table and fuzz target for the replica
// checkpoint blob. The helpers are the ones of
// internal/wire/formats_test.go, repeated because test files cannot be
// imported across packages.

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

// checkpointState is everything a checkpoint blob carries.
type checkpointState struct {
	Snap     *core.Snapshot
	Counters [6]int64
	Hashes   []mempool.Hash
}

func checkpointReplica(t testing.TB, dedup bool) *Replica {
	t.Helper()
	r, err := New(core.Config{N: 4, F: 1, CoinSecret: []byte("replica test")}, 0,
		Params{ClientDedup: dedup}, nil, &fakeCtx{net: &fakeNet{}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// loadCheckpoint decodes blob into a fresh replica and reports what the
// replica took from it.
func loadCheckpoint(t testing.TB, dedup bool, blob []byte) (checkpointState, *Replica, error) {
	r := checkpointReplica(t, dedup)
	snap, err := r.decodeCheckpoint(blob)
	return checkpointState{
		Snap: snap,
		Counters: [6]int64{r.Stats.DeliveredTxs, r.Stats.DeliveredPayload, r.Stats.LinkedBlocks,
			r.Stats.BADeliveries, r.Stats.EpochsDecided, r.Stats.EpochsDelivered},
		Hashes: r.pool.CommittedSnapshot(),
	}, r, err
}

func goldenCheckpoint(t testing.TB, dedup bool) (checkpointState, []byte) {
	want := checkpointState{
		Snap: &core.Snapshot{LastProposed: 5, DecidedThrough: 4, DeliveredEpoch: 3, PrunedThrough: 1,
			Watermark: []uint64{5, 4, 4, 5}, LinkedFloor: []uint64{3, 3, 2, 3}},
		Counters: [6]int64{70, 17920, 9, 3, 4, 3},
	}
	r := checkpointReplica(t, dedup)
	r.Stats.DeliveredTxs, r.Stats.DeliveredPayload, r.Stats.LinkedBlocks = 70, 17920, 9
	r.Stats.BADeliveries, r.Stats.EpochsDecided, r.Stats.EpochsDelivered = 3, 4, 3
	if dedup {
		want.Hashes = []mempool.Hash{{1, 2}, {3, 4}, {5, 6}}
		for _, h := range want.Hashes {
			r.pool.Committed(h)
		}
	}
	return want, r.encodeCheckpoint(want.Snap)
}

func TestGoldenCheckpoint(t *testing.T) {
	for name, dedup := range map[string]bool{"checkpoint-hashes": true, "checkpoint": false} {
		want, blob := goldenCheckpoint(t, dedup)
		got, _, err := loadCheckpoint(t, dedup, golden(t, name, blob))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fixture decodes to %+v, want %+v", name, got, want)
		}
	}
}

func TestCheckpointHostileLengths(t *testing.T) {
	want, blob := goldenCheckpoint(t, true)
	decode := func(b []byte) error { _, _, err := loadCheckpoint(t, true, b); return err }
	rejectHostileLengths(t, blob, decode, []lenField{
		{"snapshot length", 0, 4, 1},
		{"hash count", 4 + len(want.Snap.Encode()) + 6*8, 4, 32},
	})
}

// FuzzDecodeCheckpoint: the checkpoint file is read back at every start.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, seed := range goldenSeeds(f, "checkpoint") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, r, err := loadCheckpoint(t, true, data)
		if err != nil {
			return
		}
		again, _, err := loadCheckpoint(t, true, r.encodeCheckpoint(got.Snap))
		if err != nil {
			t.Fatalf("re-decode of an accepted checkpoint failed: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("decode is not stable:\n%+v\n%+v", got, again)
		}
	})
}
