package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dledger/internal/merkle"
)

// The byte formats are pinned by committed fixtures: a peer built from an
// older commit, or a datadir written by one, must keep decoding. Each
// fixture is checked both ways — the canonical instance encodes to it,
// and it decodes to the canonical instance. The golden/hostile helpers
// below are repeated in every package that owns a format (test files
// cannot be imported across packages).

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

func goldenRoot(b byte) (r merkle.Root) {
	for i := range r {
		r[i] = b + byte(i)
	}
	return r
}

// goldenMessages is one canonical instance of each of the 16 bodies.
func goldenMessages() []Msg {
	proof := merkle.Proof{Index: 2, Leaves: 4, Path: []merkle.Root{goldenRoot(0x40), goldenRoot(0x80)}}
	return []Msg{
		Chunk{Root: goldenRoot(1), Data: []byte("chunk-data"), Proof: proof},
		GotChunk{Root: goldenRoot(2)},
		Ready{Root: goldenRoot(3)},
		RequestChunk{},
		ReturnChunk{Root: goldenRoot(4), Data: []byte("return-data"), Proof: proof},
		CancelRequest{},
		BVal{Round: 7, Value: true},
		Aux{Round: 8, Value: false},
		Term{Value: true},
		RequestChunkAgain{},
		StatusRequest{},
		StatusReply{Decided: true, Through: 41, S: SetBitmap([]int{0, 2, 3}, 4)},
		SyncHello{},
		SyncOffer{Points: []SyncPoint{{Epoch: 128, Hash: goldenRoot(5)}, {Epoch: 64, Hash: goldenRoot(6)}}},
		SyncPull{Section: SyncSectionChunks, Page: 3},
		SyncPage{Section: SyncSectionManifest, Page: 2, Last: true, Data: []byte("page")},
	}
}

func goldenEnvelope(m Msg) Envelope {
	return Envelope{From: 3, Epoch: 0x0102030405060708, Proposer: 2, Payload: m}
}

func goldenName(m Msg) string {
	return "env-" + strings.ToLower(strings.TrimPrefix(fmt.Sprintf("%T", m), "wire."))
}

func goldenBlock() *Block {
	return &Block{Proposer: 2, Epoch: 5, V: []uint64{1, 2, InfEpoch, 4},
		Txs: [][]byte{[]byte("one"), nil, []byte("three")}}
}

func TestGoldenEnvelopes(t *testing.T) {
	seen := map[byte]bool{}
	for _, m := range goldenMessages() {
		env := goldenEnvelope(m)
		fixture := golden(t, goldenName(m), env.Encode())
		got, err := Decode(fixture)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("%T: fixture decodes to %+v, want %+v", m, got, env)
		}
		seen[m.Type()] = true
	}
	for typ := TChunk; typ <= TSyncPage; typ++ {
		if !seen[typ] {
			t.Errorf("message type %d has no golden fixture", typ)
		}
	}
}

func TestGoldenBlock(t *testing.T) {
	fixture := golden(t, "block", goldenBlock().Encode())
	got, err := DecodeBlock(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenBlock()) {
		t.Fatalf("fixture decodes to %+v, want %+v", got, goldenBlock())
	}
}

func TestEnvelopeHostileLengths(t *testing.T) {
	decode := func(b []byte) error { _, err := Decode(b); return err }
	const body = envelopeHeader
	chunkFields := func(data int) []lenField {
		return []lenField{
			{"data length", body + merkle.RootSize, 4, 1},
			{"proof path count", body + merkle.RootSize + 4 + data + 4, 1, merkle.RootSize},
		}
	}
	for _, tc := range []struct {
		msg    Msg
		fields []lenField
	}{
		{goldenMessages()[0], chunkFields(len("chunk-data"))},
		{goldenMessages()[4], chunkFields(len("return-data"))},
		{goldenMessages()[11], []lenField{{"S length", body + 1 + 8, 2, 1}}},
		{goldenMessages()[13], []lenField{{"point count", body, 1, 40}}},
		{goldenMessages()[15], []lenField{{"data length", body + 6, 4, 1}}},
	} {
		t.Run(goldenName(tc.msg), func(t *testing.T) {
			rejectHostileLengths(t, goldenEnvelope(tc.msg).Encode(), decode, tc.fields)
		})
	}
}

func TestBlockHostileLengths(t *testing.T) {
	decode := func(b []byte) error { _, err := DecodeBlock(b); return err }
	rejectHostileLengths(t, goldenBlock().Encode(), decode, []lenField{
		{"V count", 10, 2, 8},
		{"tx count", 12 + 8*4, 4, 4},
		{"first tx length", 12 + 8*4 + 4, 4, 1},
	})
}
