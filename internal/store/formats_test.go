package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dledger/internal/merkle"
)

// Format fixtures and hostile-length tables for the three store formats
// (WAL record, chunk record, state-sync manifest). The helpers are the
// ones of internal/wire/formats_test.go, repeated because test files
// cannot be imported across packages.

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

// goldenRecords is one canonical instance of each WAL record type, the
// delivered-block record with and without its optional hash section.
func goldenRecords() map[string]Record {
	block := Record{Type: RecBlock, Epoch: 7, Proposer: 2, Linked: true, TxCount: 3, Payload: 600,
		V: []uint64{1, 2, 3, 4}}
	hashed := block
	hashed.TxHashes = [][32]byte{{1, 2}, {3, 4}, {5, 6}}
	return map[string]Record{
		"rec-proposed":     {Type: RecProposed, Epoch: 7, Block: []byte("encoded-block")},
		"rec-decided":      {Type: RecDecided, Epoch: 7, S: []int{0, 2, 3}},
		"rec-block":        block,
		"rec-block-hashes": hashed,
		"rec-epochdone":    {Type: RecEpochDone, Epoch: 7, Floor: []uint64{7, 6, 7, 5}},
		"rec-vote":         {Type: RecVote, Epoch: 7, Proposer: 3, VoteKind: 2, Round: 5, Value: true},
	}
}

func TestGoldenRecords(t *testing.T) {
	types := map[RecordType]bool{}
	for name, rec := range goldenRecords() {
		got, err := DecodeRecord(golden(t, name, AppendRecord(nil, rec)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("%s: fixture decodes to %+v, want %+v", name, got, rec)
		}
		types[rec.Type] = true
	}
	if len(types) != int(RecVote) {
		t.Fatalf("golden fixtures cover %d of %d record types", len(types), RecVote)
	}
}

// goldenChunks is one canonical chunk record of each kind: the
// completion with its chunk ("chunk", unchanged since before the kinds),
// an accepted chunk, and a Ready.
func goldenChunks() map[string]ChunkRecord {
	got := testChunk(9, 3)
	got.Kind, got.HasChunk = ChunkGot, false
	ready := ChunkRecord{Epoch: 9, Proposer: 3, Kind: ChunkReady, Root: got.Root}
	return map[string]ChunkRecord{"chunk": testChunk(9, 3), "chunk-got": got, "chunk-ready": ready}
}

func TestGoldenChunkRecord(t *testing.T) {
	for name, c := range goldenChunks() {
		got, err := DecodeChunkRecord(golden(t, name, EncodeChunkRecord(c)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("%s: fixture decodes to %+v, want %+v", name, got, c)
		}
	}
}

// TestChunkRecordRejectsUnknownKind: the kind byte takes four values; a
// record with any other is corrupt, not a completion.
func TestChunkRecordRejectsUnknownKind(t *testing.T) {
	enc := EncodeChunkRecord(testChunk(9, 3))
	for _, kind := range []byte{4, 0x80, 0xFF} {
		enc[8+2] = kind
		if _, err := DecodeChunkRecord(enc); err == nil {
			t.Errorf("kind byte %#x decoded without error", kind)
		}
	}
}

func TestGoldenManifest(t *testing.T) {
	m := testManifest()
	got, err := DecodeManifest(golden(t, "manifest", EncodeManifest(m)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("fixture decodes to %+v, want %+v", got, m)
	}
}

func TestRecordHostileLengths(t *testing.T) {
	decode := func(b []byte) error { _, err := DecodeRecord(b); return err }
	const body = 1 + 8 // type, epoch
	for name, fields := range map[string][]lenField{
		"rec-proposed":  {{"block length", body, 4, 1}},
		"rec-decided":   {{"S count", body, 2, 2}},
		"rec-epochdone": {{"floor count", body, 2, 8}},
		"rec-block":     {{"V count", body + 11, 2, 8}},
		"rec-block-hashes": {
			{"V count", body + 11, 2, 8},
			{"hash count", body + 11 + 2 + 8*4, 4, 32},
		},
	} {
		t.Run(name, func(t *testing.T) {
			rejectHostileLengths(t, AppendRecord(nil, goldenRecords()[name]), decode, fields)
		})
	}
}

func TestChunkRecordHostileLengths(t *testing.T) {
	decode := func(b []byte) error { _, err := DecodeChunkRecord(b); return err }
	const dataLen = 8 + 2 + 1 + merkle.RootSize
	for name, c := range goldenChunks() {
		t.Run(name, func(t *testing.T) {
			rejectHostileLengths(t, EncodeChunkRecord(c), decode, []lenField{
				{"data length", dataLen, 4, 1},
				{"proof path count", dataLen + 4 + len(c.Data) + 4, 1, merkle.RootSize},
			})
		})
	}
}

// TestManifestHostileLengths forges the three section lengths and the
// counts inside the sections. Every section is re-sealed with a valid
// CRC over its original extent before decoding, so a forged inner count
// reaches the structural check instead of dying at the checksum.
func TestManifestHostileLengths(t *testing.T) {
	enc := EncodeManifest(testManifest())
	var sections [3]int // offset of each section's id byte
	off := 7
	for i := range sections {
		sections[i] = off
		off += 5 + int(binary.BigEndian.Uint32(enc[off+1:])) + 4
	}
	extent := func(i int) int { return 5 + int(binary.BigEndian.Uint32(enc[sections[i]+1:])) }
	decode := func(b []byte) error {
		for i, s := range sections {
			binary.BigEndian.PutUint32(b[s+extent(i):], crc32.ChecksumIEEE(b[s:s+extent(i)]))
		}
		_, err := DecodeManifest(b)
		return err
	}
	blocks := sections[1] + 5
	rejectHostileLengths(t, enc, decode, []lenField{
		{"position section length", sections[0] + 1, 4, 1},
		{"blocks section length", sections[1] + 1, 4, 1},
		{"hashes section length", sections[2] + 1, 4, 1},
		{"block count", blocks, 4, 11},
		// Canonical order puts the V-less BAD entry (11 bytes) first.
		{"second block's V count", blocks + 4 + 11 + 11, 2, 8},
		{"hash count", sections[2] + 5, 4, 32},
	})
}

// The three store formats are read back from disk (WAL and chunk
// segments) or from a peer (manifest pages): each decoder must fail
// cleanly on anything and be stable on what it accepts.

func FuzzDecodeRecord(f *testing.F) {
	for _, seed := range goldenSeeds(f, "rec-") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		enc := AppendRecord(nil, rec)
		rec2, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted record failed: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("decode is not stable:\n%+v\n%+v", rec, rec2)
		}
		if !bytes.Equal(AppendRecord(nil, rec2), enc) {
			t.Fatal("encoding is not canonical across a round trip")
		}
	})
}

func FuzzDecodeChunkRecord(f *testing.F) {
	for _, seed := range goldenSeeds(f, "chunk") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeChunkRecord(data)
		if err != nil {
			return
		}
		enc := EncodeChunkRecord(c)
		if len(enc) != ChunkRecordSize(c) {
			t.Fatalf("ChunkRecordSize %d != encoded length %d", ChunkRecordSize(c), len(enc))
		}
		c2, err := DecodeChunkRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted chunk record failed: %v", err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("decode is not stable:\n%+v\n%+v", c, c2)
		}
	})
}

func FuzzDecodeManifest(f *testing.F) {
	f.Add(golden(f, "manifest", nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		enc := EncodeManifest(m) // sorts m.Blocks into canonical order
		m2, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted manifest failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode is not stable:\n%+v\n%+v", m, m2)
		}
		if !bytes.Equal(EncodeManifest(m2), enc) {
			t.Fatal("encoding is not canonical across a round trip")
		}
	})
}
