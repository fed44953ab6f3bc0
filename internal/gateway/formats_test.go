package gateway

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

	"dledger/internal/merkle"
)

// Format fixtures, hostile-length table and fuzz target for the client
// protocol's seven frames. The helpers are the ones of
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

func goldenHash(b byte) (h [32]byte) {
	for i := range h {
		h[i] = b + byte(i)
	}
	return h
}

// goldenFrames is one canonical instance of each frame.
func goldenFrames() map[string]Message {
	ping := Ping{Nonce: 0x0102030405060708}
	return map[string]Message{
		"frame-hello":   {Type: MTHello, Hello: &Hello{Name: []byte("client-a"), Subscribe: true}},
		"frame-submit":  {Type: MTSubmit, Submit: &Submit{ReqID: 42, Tx: []byte("payload")}},
		"frame-ping":    {Type: MTPing, Ping: &ping},
		"frame-welcome": {Type: MTWelcome, Welcome: &Welcome{ClientID: 0xdeadbeef, N: 31, F: 10, MaxTxBytes: 1 << 20}},
		"frame-receipt": {Type: MTReceipt, Receipt: &Receipt{ReqID: 7, Status: StatusOverCapacity,
			RetryAfter: 250 * time.Millisecond, TxHash: goldenHash(1)}},
		"frame-commit": {Type: MTCommit, Commit: &Commit{TxHash: goldenHash(2), Epoch: 5, Proposer: 3,
			Index: 1, Count: 3, Root: goldenHash(3), Path: []merkle.Root{goldenHash(4), goldenHash(5)}}},
		"frame-pong": {Type: MTPong, Ping: &ping},
	}
}

// encodeMessage is DecodeMessage's inverse.
func encodeMessage(m Message) []byte {
	switch m.Type {
	case MTHello:
		return EncodeHello(*m.Hello)
	case MTSubmit:
		return EncodeSubmit(*m.Submit)
	case MTPing:
		return EncodePing(*m.Ping)
	case MTWelcome:
		return EncodeWelcome(*m.Welcome)
	case MTReceipt:
		return EncodeReceipt(*m.Receipt)
	case MTCommit:
		return EncodeCommit(*m.Commit)
	default:
		return EncodePong(*m.Ping)
	}
}

func TestGoldenFrames(t *testing.T) {
	frames := goldenFrames()
	if len(frames) != int(MTPong) {
		t.Fatalf("golden fixtures cover %d of %d frame types", len(frames), MTPong)
	}
	for name, m := range frames {
		got, err := DecodeMessage(golden(t, name, encodeMessage(m)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%s: fixture decodes to %+v, want %+v", name, got, m)
		}
	}
}

func TestFrameHostileLengths(t *testing.T) {
	decode := func(b []byte) error { _, err := DecodeMessage(b); return err }
	for name, fields := range map[string][]lenField{
		"frame-hello":  {{"name length", 1 + 4 + 1 + 1, 1, 1}},
		"frame-submit": {{"tx length", 1 + 8, 4, 1}},
		"frame-commit": {{"path count", 1 + 32 + 8 + 2 + 4 + 4 + 32, 1, merkle.RootSize}},
	} {
		t.Run(name, func(t *testing.T) {
			rejectHostileLengths(t, encodeMessage(goldenFrames()[name]), decode, fields)
		})
	}
}

// FuzzDecodeMessage: every byte after the TCP accept is the client's.
func FuzzDecodeMessage(f *testing.F) {
	for _, seed := range goldenSeeds(f, "frame-") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		enc := encodeMessage(m)
		m2, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted frame failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode is not stable:\n%+v\n%+v", m, m2)
		}
		if !bytes.Equal(encodeMessage(m2), enc) {
			t.Fatal("encoding is not canonical across a round trip")
		}
	})
}
