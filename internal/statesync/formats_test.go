package statesync

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dledger/internal/avid"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// Hostile-length table and fuzz target for the chunk-inventory page: a
// run of u32-length-prefixed chunk records, written by the donor's
// engine and read by parseChunkPage. rejectHostileLengths is the one of
// internal/wire/formats_test.go, repeated because test files cannot be
// imported across packages.

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

// chunkPhaseSyncer is a syncer that adopted target epoch 10 and is
// pulling chunk inventories.
func chunkPhaseSyncer() *Syncer {
	s := NewSyncer(4, 1, 0)
	s.target = wire.SyncPoint{Epoch: 10}
	s.phase = phaseChunks
	return s
}

// donorRecords are verifiable chunk records of donor 2 beyond the target.
func donorRecords(t testing.TB) []store.ChunkRecord {
	t.Helper()
	p, err := avid.NewParams(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var recs []store.ChunkRecord
	for epoch := uint64(20); epoch < 22; epoch++ {
		root, data, proof, err := avid.OwnChunk(p, 2, []byte(strings.Repeat("block payload ", int(epoch))))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, store.ChunkRecord{Epoch: epoch, Proposer: 1, Root: root, HasChunk: true, Data: data, Proof: proof})
	}
	return recs
}

func chunkPage(recs []store.ChunkRecord) []byte {
	var page []byte
	for _, rec := range recs {
		page = wire.AppendBytes(page, store.EncodeChunkRecord(rec))
	}
	return page
}

func TestChunkPageRoundTrip(t *testing.T) {
	recs := donorRecords(t)
	s := chunkPhaseSyncer()
	got := s.parseChunkPage(2, chunkPage(recs))
	if len(got) != len(recs) || s.Stats.ChunksImported != int64(len(recs)) {
		t.Fatalf("imported %d of %d records (counter %d)", len(got), len(recs), s.Stats.ChunksImported)
	}
	for i, c := range got {
		if c.From != 2 || !reflect.DeepEqual(c.Rec, recs[i]) {
			t.Fatalf("record %d: got %+v, want %+v", i, c, recs[i])
		}
	}
}

// TestChunkPageHostileLengths: the page parser reports no error — it
// imports what verifies and drops the rest — so a forged entry length
// must cost exactly the entries from the forgery on, and nothing else.
func TestChunkPageHostileLengths(t *testing.T) {
	recs := donorRecords(t)
	decode := func(b []byte) error {
		if got := chunkPhaseSyncer().parseChunkPage(2, b); len(got) != len(recs) {
			return errors.New("page cut short")
		}
		return nil
	}
	second := 4 + store.ChunkRecordSize(recs[0])
	const dataLen = 4 + 8 + 2 + 1 + 32 // inside an entry
	rejectHostileLengths(t, chunkPage(recs), decode, []lenField{
		{"first entry length", 0, 4, 1},
		{"second entry length", second, 4, 1},
		{"second entry's data length", second + dataLen, 4, 1},
		{"second entry's proof path count", second + dataLen + 4 + len(recs[1].Data) + 4, 1, 32},
	})
}

// FuzzChunkPage: inventory pages come from any peer that attested the
// sync point.
func FuzzChunkPage(f *testing.F) {
	raw, err := os.ReadFile("../store/testdata/golden/chunk.hex")
	if err != nil {
		f.Fatal(err)
	}
	rec, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire.AppendBytes(nil, rec))
	f.Add(chunkPage(donorRecords(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		got := chunkPhaseSyncer().parseChunkPage(2, data)
		recs := make([]store.ChunkRecord, len(got))
		for i, c := range got {
			recs[i] = c.Rec
		}
		again := chunkPhaseSyncer().parseChunkPage(2, chunkPage(recs))
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("parse is not stable:\n%+v\n%+v", got, again)
		}
	})
}
