package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// The data directory's layout — directory and segment names, frame
// bytes, the checkpoint file — is a durability format like the record
// encodings: a node must reopen what an older binary wrote. The fixture
// testdata/golden/datadir was written by the commit before the WAL and
// the chunk log came to share one segmented-log implementation; the
// tests and fuzz seeds below all start from it.

const goldenDatadir = "testdata/golden/datadir"

func segName(n uint64) string { return fmt.Sprintf("%020d.seg", n) }

// frame is the tests' own statement of the disk framing, independent of
// the writer: len(4) crc32c(4) payload.
func frame(payload []byte) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(buf, payload...)
}

// walFrames is the expected content of a WAL segment holding recs from
// LSN first on: each frame's payload is lsn(8) then the record.
func walFrames(first uint64, recs ...Record) (seg []byte) {
	for i, rec := range recs {
		seg = append(seg, frame(AppendRecord(binary.BigEndian.AppendUint64(nil, first+uint64(i)), rec))...)
	}
	return seg
}

// checkpointFile is the expected content of CHECKPOINT: one frame whose
// payload is lsn(8) then the opaque state.
func checkpointFile(cp Checkpoint) []byte {
	return frame(append(binary.BigEndian.AppendUint64(nil, cp.LSN), cp.State...))
}

// goldenWAL is the fixture's WAL: the golden records in name order.
func goldenWAL() []Record {
	byName := goldenRecords()
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	recs := make([]Record, len(names))
	for i, name := range names {
		recs[i] = byName[name]
	}
	return recs
}

var goldenCheckpoint = Checkpoint{LSN: 2, State: []byte("golden engine snapshot")}

// writeGoldenDatadir regenerates the fixture (-update): the six golden
// records, which 256-byte segments split into LSN 1–3 and 4–6, one chunk
// segment, and a checkpoint at LSN 2 — inside the first segment, so
// writing it compacts nothing.
func writeGoldenDatadir(t *testing.T, dir string) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s := openFile(t, dir)
	if _, err := s.AppendBatch(goldenWAL()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutChunk(testChunk(9, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(goldenCheckpoint, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "LOCK")); err != nil {
		t.Fatal(err)
	}
}

// readTree returns every file under dir by slash-separated relative
// path, the advisory LOCK file excepted (it is not part of the format).
func readTree(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "LOCK" {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[filepath.ToSlash(rel)], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// copyGoldenDatadir copies the fixture into a fresh directory and
// returns it with the fixture's files.
func copyGoldenDatadir(t testing.TB) (string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	files := readTree(t, goldenDatadir)
	for rel, data := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, files
}

func requireTree(t *testing.T, dir string, want map[string][]byte) {
	t.Helper()
	got := readTree(t, dir)
	for rel, data := range want {
		if !bytes.Equal(got[rel], data) {
			t.Errorf("%s: content differs\n got %x\nwant %x", rel, got[rel], data)
		}
	}
	for rel := range got {
		if _, ok := want[rel]; !ok {
			t.Errorf("%s: unexpected file", rel)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

func allChunks(t *testing.T, s Store) []ChunkRecord {
	t.Helper()
	var cs []ChunkRecord
	if err := s.Chunks(func(c ChunkRecord) error { cs = append(cs, c); return nil }); err != nil {
		t.Fatal(err)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Epoch < cs[j].Epoch })
	return cs
}

// TestGoldenDatadir reopens a data directory written before the segment
// logs were unified and pins what a reader and a writer may assume about
// it: names, frame bytes, where appends after a reopen land, and which
// files a checkpoint unlinks.
func TestGoldenDatadir(t *testing.T) {
	if *update {
		writeGoldenDatadir(t, goldenDatadir)
	}
	recs := goldenWAL()
	wal1, wal4, chunk1 := "wal/"+segName(1), "wal/"+segName(4), "chunks/"+segName(1)
	dir, fixture := copyGoldenDatadir(t)
	requireTree(t, dir, map[string][]byte{
		wal1:         walFrames(1, recs[:3]...),
		wal4:         walFrames(4, recs[3:]...),
		chunk1:       frame(EncodeChunkRecord(testChunk(9, 3))),
		"CHECKPOINT": checkpointFile(goldenCheckpoint),
	})

	s := openFile(t, dir)
	cp, lsns, got := replayAll(t, s)
	if cp == nil || !reflect.DeepEqual(*cp, goldenCheckpoint) {
		t.Fatalf("checkpoint = %+v, want %+v", cp, goldenCheckpoint)
	}
	if !reflect.DeepEqual(lsns, []uint64{3, 4, 5, 6}) || !reflect.DeepEqual(got, recs[2:]) {
		t.Fatalf("replayed lsns %v records %+v, want 3..6 of %+v", lsns, got, recs)
	}
	if cs := allChunks(t, s); !reflect.DeepEqual(cs, []ChunkRecord{testChunk(9, 3)}) {
		t.Fatalf("chunks = %+v", cs)
	}

	// An empty batch is a no-op; the next records continue the LSN
	// sequence in a segment named after the first of them, and the next
	// chunk opens segment number two. Nothing already on disk is touched.
	if lsn, err := s.AppendBatch(nil); err != nil || lsn != 0 {
		t.Fatalf("empty AppendBatch = (%d, %v), want (0, nil)", lsn, err)
	}
	more := []Record{recs[5], recs[2]}
	if lsn, err := s.AppendBatch(more); err != nil || lsn != 8 {
		t.Fatalf("AppendBatch = (%d, %v), want lsn 8", lsn, err)
	}
	if err := s.PutChunk(testChunk(10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	wal7, chunk2 := "wal/"+segName(7), "chunks/"+segName(2)
	grown := map[string][]byte{
		wal7:   walFrames(7, more...),
		chunk2: frame(EncodeChunkRecord(testChunk(10, 1))),
	}
	for rel, data := range fixture {
		grown[rel] = data
	}
	requireTree(t, dir, grown)

	// A checkpoint at the last LSN, with every stored epoch pruned,
	// unlinks exactly the closed segments: the open ones stay.
	last := Checkpoint{LSN: 8, State: []byte("later snapshot")}
	if err := s.Checkpoint(last, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	requireTree(t, dir, map[string][]byte{
		wal7:         grown[wal7],
		chunk2:       grown[chunk2],
		"CHECKPOINT": checkpointFile(last),
	})
	s = openFile(t, dir)
	defer s.Close()
	if cp, lsns, _ := replayAll(t, s); cp == nil || !reflect.DeepEqual(*cp, last) || len(lsns) != 0 {
		t.Fatalf("after the last checkpoint: cp %+v, replayed %v", cp, lsns)
	}
	if cs := allChunks(t, s); !reflect.DeepEqual(cs, []ChunkRecord{testChunk(10, 1)}) {
		t.Fatalf("chunks after compaction = %+v", cs)
	}
}

// scanFrames scans data as one segment file in dir and returns the
// payloads replayed, what the scan left of the file, and the scan's
// error.
func scanFrames(t testing.TB, dir string, data []byte, last bool) (payloads [][]byte, left []byte, err error) {
	t.Helper()
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = scanSegment(path, last, func(p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	left, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return payloads, left, err
}

// readCheckpointBytes reads data as a data directory's CHECKPOINT file.
func readCheckpointBytes(t testing.TB, data []byte) (*FileStore, *Checkpoint, error) {
	t.Helper()
	s := &FileStore{opts: FileOptions{Dir: t.TempDir(), NoSync: true}}
	if err := os.WriteFile(filepath.Join(s.opts.Dir, "CHECKPOINT"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := s.readCheckpoint()
	return s, cp, err
}

// TestFrameHostileLengths forges the frame length of a segment's tail and
// of the checkpoint file (the two readers of the len-crc framing): as a
// tail the forged frame is cut off and the frames before it survive, in
// a non-final segment it is ErrCorrupt, and the checkpoint is refused.
func TestFrameHostileLengths(t *testing.T) {
	fixture, dir := readTree(t, goldenDatadir), t.TempDir()
	seg := fixture["wal/"+segName(4)]
	frames, _, err := scanFrames(t, dir, seg, false)
	if err != nil || len(frames) != 3 {
		t.Fatalf("fixture segment scans to %d frames (%v), want 3", len(frames), err)
	}
	tail := len(seg) - frameHeader - len(frames[2])
	t.Run("segment tail", func(t *testing.T) {
		rejectHostileLengths(t, seg, func(b []byte) error {
			got, left, err := scanFrames(t, dir, b, true)
			if err != nil {
				t.Fatalf("tail damage must truncate, not fail: %v", err)
			}
			if len(got) == len(frames) {
				return nil
			}
			if !reflect.DeepEqual(got, frames[:2]) || !bytes.Equal(left, seg[:tail]) {
				t.Fatalf("forged tail: %d frames replayed, %d of %d bytes left", len(got), len(left), tail)
			}
			return errors.New("tail frame cut off")
		}, []lenField{{"tail frame length", tail, 4, 1}})
	})
	t.Run("middle segment", func(t *testing.T) {
		rejectHostileLengths(t, seg, func(b []byte) error {
			_, left, err := scanFrames(t, dir, b, false)
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if !bytes.Equal(left, b) {
				t.Fatal("a non-final segment was modified")
			}
			return err
		}, []lenField{{"tail frame length", tail, 4, 1}})
	})
	t.Run("checkpoint", func(t *testing.T) {
		rejectHostileLengths(t, fixture["CHECKPOINT"], func(b []byte) error {
			_, _, err := readCheckpointBytes(t, b)
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			return err
		}, []lenField{{"frame length", 0, 4, 1}})
	})
}

// TestTornLogReplaysIntactPrefix is the crash model as a property: cut a
// valid segment at every length, and flip every byte of its last frame;
// a reopen replays exactly the records whose frames are wholly intact,
// in order, and a second reopen replays the same.
func TestTornLogReplaysIntactPrefix(t *testing.T) {
	recs := testRecords()
	seg := walFrames(1, recs...)
	var ends []int // ends[i]: offset just past frame i
	for i := range recs {
		ends = append(ends, len(walFrames(1, recs[:i+1]...)))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "wal", segName(1))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	check := func(what string, data []byte, intact int) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			s, err := OpenFile(FileOptions{Dir: dir})
			if err != nil {
				t.Fatalf("%s, open %d: %v", what, round, err)
			}
			_, lsns, got := replayAll(t, s)
			s.Close()
			if len(got) != intact {
				t.Fatalf("%s, open %d: replayed %d records, want %d", what, round, len(got), intact)
			}
			for i := range got {
				if lsns[i] != uint64(i+1) || !reflect.DeepEqual(normalize(got[i]), normalize(recs[i])) {
					t.Fatalf("%s, open %d: record %d is lsn %d %+v", what, round, i, lsns[i], got[i])
				}
			}
		}
	}
	for cut := 0; cut <= len(seg); cut++ {
		intact := sort.SearchInts(ends, cut+1) // frames ending at or before cut
		check(fmt.Sprintf("cut at %d", cut), seg[:cut], intact)
	}
	for off := ends[len(ends)-2]; off < len(seg); off++ {
		flipped := append([]byte(nil), seg...)
		flipped[off] ^= 0xff
		check(fmt.Sprintf("flip at %d", off), flipped, len(recs)-1)
	}
}

// FuzzScanSegment feeds arbitrary bytes to the segment scanner. As the
// last segment nothing is an error: the file is cut to a prefix that
// rescans, cleanly, to the same frames. Anywhere else the scan is clean
// or ErrCorrupt, and the file is left alone.
func FuzzScanSegment(f *testing.F) {
	fixture := readTree(f, goldenDatadir)
	for _, rel := range []string{"wal/" + segName(1), "wal/" + segName(4), "chunks/" + segName(1)} {
		f.Add(fixture[rel])
		f.Add(fixture[rel][:len(fixture[rel])-3]) // torn
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		frames, left, err := scanFrames(t, dir, data, true)
		if err != nil {
			t.Fatalf("scan of a last segment failed: %v", err)
		}
		if !bytes.HasPrefix(data, left) {
			t.Fatal("truncation left something other than a prefix")
		}
		again, left2, err := scanFrames(t, dir, left, false)
		if err != nil || !reflect.DeepEqual(again, frames) || !bytes.Equal(left2, left) {
			t.Fatalf("the kept prefix rescans to %d frames (%v), first scan %d", len(again), err, len(frames))
		}
		_, untouched, err := scanFrames(t, dir, data, false)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("scan of a middle segment: %v", err)
		}
		if (err == nil) != (len(left) == len(data)) || !bytes.Equal(untouched, data) {
			t.Fatalf("middle scan err %v, tail scan kept %d of %d bytes", err, len(left), len(data))
		}
	})
}

// FuzzReadCheckpoint feeds arbitrary bytes to the checkpoint reader. What
// it accepts re-saves to the same bytes (bytes after the frame, which a
// tmp+rename write never leaves, are ignored).
func FuzzReadCheckpoint(f *testing.F) {
	f.Add(readTree(f, goldenDatadir)["CHECKPOINT"])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, cp, err := readCheckpointBytes(t, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			return
		}
		if cp == nil {
			t.Fatal("no checkpoint and no error from a file that exists")
		}
		s.wal, s.chunks = &segLog{}, &segLog{}
		if err := s.Checkpoint(*cp, 0); err != nil {
			t.Fatal(err)
		}
		saved := readTree(t, s.opts.Dir)["CHECKPOINT"]
		if !bytes.HasPrefix(data, saved) {
			t.Fatalf("accepted checkpoint re-saves differently:\n got %x\nfrom %x", saved, data)
		}
	})
}
