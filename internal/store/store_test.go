package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dledger/internal/merkle"
)

func testRecords() []Record {
	return []Record{
		{Type: RecProposed, Epoch: 1},
		{Type: RecVote, Epoch: 1, Proposer: 0, VoteKind: 4, Round: 0, Value: true},
		{Type: RecVote, Epoch: 1, Proposer: 0, VoteKind: 1, Round: 0, Value: true},
		{Type: RecDecided, Epoch: 1, S: []int{0, 2, 3}},
		{Type: RecBlock, Epoch: 1, Proposer: 2, Linked: false, TxCount: 7, Payload: 1792,
			V: []uint64{0, 1, 0, 2}},
		{Type: RecBlock, Epoch: 1, Proposer: 3, Linked: true, TxCount: 1, Payload: 256,
			V: []uint64{1, 1, 1, 1}},
		{Type: RecEpochDone, Epoch: 1, Floor: []uint64{1, 0, 1, 1}},
		{Type: RecProposed, Epoch: 2},
		{Type: RecVote, Epoch: 2, Proposer: 3, VoteKind: 2, Round: 5, Value: false},
	}
}

func testChunk(epoch uint64, proposer int) ChunkRecord {
	var root merkle.Root
	root[0] = byte(epoch)
	return ChunkRecord{
		Epoch: epoch, Proposer: proposer, Root: root, HasChunk: true,
		Data: bytes.Repeat([]byte{byte(proposer)}, 64),
		Proof: merkle.Proof{
			Index: proposer, Leaves: 4,
			Path: []merkle.Root{root, root},
		},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range testRecords() {
		got, err := DecodeRecord(AppendRecord(nil, r))
		if err != nil {
			t.Fatalf("decode %v: %v", r.Type, err)
		}
		if !reflect.DeepEqual(normalize(r), normalize(got)) {
			t.Fatalf("round trip mismatch: %+v vs %+v", r, got)
		}
	}
	c := testChunk(9, 3)
	got, err := DecodeChunkRecord(EncodeChunkRecord(c))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("chunk round trip mismatch: %+v vs %+v", c, got)
	}
}

// TestRecordTxHashesOptional pins the hash section's compatibility
// contract: records without hashes encode byte-identically to the seed
// format (so pre-gateway datadirs replay), and records with hashes
// round-trip them in order.
func TestRecordTxHashesOptional(t *testing.T) {
	base := Record{Type: RecBlock, Epoch: 7, Proposer: 2, Linked: true,
		TxCount: 3, Payload: 600, V: []uint64{1, 2, 3, 4}}
	enc := AppendRecord(nil, base)
	withHashes := base
	withHashes.TxHashes = [][32]byte{{1, 2}, {3, 4}, {5, 6}}
	enc2 := AppendRecord(nil, withHashes)
	if len(enc2) != len(enc)+4+3*32 {
		t.Fatalf("hash section size wrong: %d vs %d", len(enc2), len(enc))
	}
	if !bytes.Equal(AppendRecord(nil, base), enc) {
		t.Fatal("hash-free encoding changed")
	}
	got, err := DecodeRecord(enc)
	if err != nil || got.TxHashes != nil {
		t.Fatalf("seed-format decode: %v %v", got.TxHashes, err)
	}
	got, err = DecodeRecord(enc2)
	if err != nil || !reflect.DeepEqual(got.TxHashes, withHashes.TxHashes) {
		t.Fatalf("hash round trip: %+v %v", got.TxHashes, err)
	}
	// A truncated hash section fails loudly instead of misparsing.
	if _, err := DecodeRecord(enc2[:len(enc2)-5]); err == nil {
		t.Fatal("truncated hash section decoded")
	}
}

// TestVoteRecordRoundTrip pins the vote record's exact wire shape (the
// format DESIGN.md documents) and its decode failure modes.
func TestVoteRecordRoundTrip(t *testing.T) {
	for _, r := range []Record{
		{Type: RecVote, Epoch: 1, Proposer: 0, VoteKind: 1, Round: 0, Value: false},
		{Type: RecVote, Epoch: 1 << 40, Proposer: 65535, VoteKind: 4, Round: 1 << 30, Value: true},
		{Type: RecVote, Epoch: 9, Proposer: 3, VoteKind: 3, Round: 0, Value: true},
	} {
		enc := AppendRecord(nil, r)
		// type(1) epoch(8) proposer(2) kind(1) round(4) value(1): compact
		// enough that per-vote logging is byte-noise next to block records.
		if len(enc) != 17 {
			t.Fatalf("vote record encodes to %d bytes, want 17", len(enc))
		}
		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalize(r), normalize(got)) {
			t.Fatalf("round trip mismatch: %+v vs %+v", r, got)
		}
		for cut := 1; cut < len(enc); cut++ {
			if _, err := DecodeRecord(enc[:cut]); err == nil {
				t.Fatalf("truncated vote record (%d bytes) decoded", cut)
			}
		}
		if _, err := DecodeRecord(append(enc, 0)); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	}
}

// TestFileTornVoteRecord crashes (truncates) the WAL mid-vote-record and
// checks recovery drops exactly the torn vote, keeps every record before
// it, and continues the LSN sequence — the group-commit contract: a vote
// whose record did not fully reach disk was never sent, so forgetting it
// is correct.
func TestFileTornVoteRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(FileOptions{Dir: dir, SegmentBytes: 1 << 20}) // one segment
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Type: RecProposed, Epoch: 1},
		{Type: RecVote, Epoch: 1, Proposer: 1, VoteKind: 4, Round: 0, Value: true},
		{Type: RecVote, Epoch: 1, Proposer: 1, VoteKind: 1, Round: 0, Value: true},
		{Type: RecVote, Epoch: 1, Proposer: 2, VoteKind: 2, Round: 1, Value: false},
	}
	for _, r := range want {
		if _, err := appendOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-record: the final vote record's frame loses its last 5
	// bytes (round tail + value), a torn write no CRC can save.
	if err := os.Truncate(segs[0], fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	s = openFile(t, dir)
	_, lsns, recs := replayAll(t, s)
	if len(lsns) != len(want)-1 {
		t.Fatalf("replayed %d records after torn vote, want %d", len(lsns), len(want)-1)
	}
	for i, r := range recs {
		if !reflect.DeepEqual(normalize(r), normalize(want[i])) {
			t.Fatalf("record %d mismatch after torn vote: %+v vs %+v", i, r, want[i])
		}
	}
	lsn, err := appendOne(s, Record{Type: RecVote, Epoch: 1, Proposer: 2, VoteKind: 2, Round: 1, Value: false})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(len(want)) {
		t.Fatalf("post-recovery lsn = %d, want %d", lsn, len(want))
	}
	s.Close()
}

// normalize maps empty and nil slices together for comparison.
func normalize(r Record) Record {
	if len(r.V) == 0 {
		r.V = nil
	}
	if len(r.S) == 0 {
		r.S = nil
	}
	if len(r.Floor) == 0 {
		r.Floor = nil
	}
	return r
}

// replayAll collects a store's recovery output.
func replayAll(t *testing.T, s Store) (*Checkpoint, []uint64, []Record) {
	t.Helper()
	var lsns []uint64
	var recs []Record
	cp, err := s.Recover(func(lsn uint64, rec Record) error {
		lsns = append(lsns, lsn)
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return cp, lsns, recs
}

// appendOne appends a single WAL record through the batch interface.
func appendOne(s Store, rec Record) (uint64, error) {
	return s.AppendBatch([]Record{rec})
}

func openFile(t *testing.T, dir string) *FileStore {
	t.Helper()
	s, err := OpenFile(FileOptions{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFileReplayDeterminism writes a record sequence across several
// segments, reopens the store twice, and checks both replays return the
// identical sequence in LSN order.
func TestFileReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	s := openFile(t, dir)
	want := testRecords()
	for i, r := range want {
		lsn, err := appendOne(s, r)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn %d, want %d", lsn, i+1)
		}
	}
	if err := s.PutChunk(testChunk(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var first []Record
	for round := 0; round < 2; round++ {
		s := openFile(t, dir)
		_, lsns, recs := replayAll(t, s)
		if len(recs) != len(want) {
			t.Fatalf("round %d: replayed %d records, want %d", round, len(recs), len(want))
		}
		for i := range lsns {
			if lsns[i] != uint64(i+1) {
				t.Fatalf("round %d: lsn order broken at %d: %v", round, i, lsns)
			}
			if !reflect.DeepEqual(normalize(recs[i]), normalize(want[i])) {
				t.Fatalf("round %d: record %d mismatch: %+v vs %+v", round, i, recs[i], want[i])
			}
		}
		if round == 0 {
			first = recs
		} else if !reflect.DeepEqual(first, recs) {
			t.Fatal("replays disagree")
		}
		var chunks []ChunkRecord
		if err := s.Chunks(func(c ChunkRecord) error { chunks = append(chunks, c); return nil }); err != nil {
			t.Fatal(err)
		}
		if len(chunks) != 1 || chunks[0].Epoch != 1 || chunks[0].Proposer != 2 {
			t.Fatalf("chunks = %+v", chunks)
		}
		s.Close()
	}
}

// TestFileTornWrite truncates the last WAL segment mid-record and checks
// recovery drops exactly the torn tail, keeps everything before it, and
// accepts new appends afterward.
func TestFileTornWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(FileOptions{Dir: dir, SegmentBytes: 1 << 20}) // one segment
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords()
	for _, r := range want {
		if _, err := appendOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear off the final 3 bytes: the last record's frame is now short.
	if err := os.Truncate(segs[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s = openFile(t, dir)
	_, lsns, _ := replayAll(t, s)
	if len(lsns) != len(want)-1 {
		t.Fatalf("replayed %d records after torn write, want %d", len(lsns), len(want)-1)
	}
	// The store must keep accepting appends, continuing the LSN sequence
	// from the surviving prefix.
	lsn, err := appendOne(s, Record{Type: RecProposed, Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(len(want)) {
		t.Fatalf("post-recovery lsn = %d, want %d", lsn, len(want))
	}
	s.Close()

	s = openFile(t, dir)
	_, lsns, _ = replayAll(t, s)
	if len(lsns) != len(want) {
		t.Fatalf("final replay %d records, want %d", len(lsns), len(want))
	}
	s.Close()
}

// TestChunksAppendOrder: the chunk log is a journal, read back in
// append order across segment rollovers with several instances'
// records interleaved, and a torn tail drops only the torn
// suffix.
func TestChunksAppendOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(FileOptions{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	var want []ChunkRecord
	put := func(epoch uint64, proposer int, kind ChunkKind) {
		t.Helper()
		c := testChunk(epoch, proposer)
		switch kind {
		case ChunkGot:
			c.Kind, c.HasChunk = ChunkGot, false
		case ChunkReady:
			c = ChunkRecord{Epoch: epoch, Proposer: proposer, Kind: ChunkReady, Root: c.Root}
		}
		if err := s.PutChunk(c); err != nil {
			t.Fatal(err)
		}
		want = append(want, c)
	}
	for epoch := uint64(1); epoch <= 4; epoch++ {
		put(epoch, 0, ChunkGot)
		put(epoch, 1, ChunkGot)
		put(epoch, 0, ChunkReady)
		put(epoch+1, 0, ChunkGot) // the next epoch's dispersal overlaps
		put(epoch, 1, ChunkReady)
		put(epoch, 0, ChunkDone)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	put(5, 1, ChunkReady)
	put(5, 0, ChunkReady) // the record the truncation below tears
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "chunks", "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("want several chunk segments, got %d", len(segs))
	}

	s = openFile(t, dir)
	if got := allChunks(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("chunk records out of append order:\n got %+v\nwant %+v", got, want)
	}
	s.Close()
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	s = openFile(t, dir)
	if got := allChunks(t, s); !reflect.DeepEqual(got, want[:len(want)-1]) {
		t.Fatalf("torn tail: got %d records, want the %d before it in order", len(got), len(want)-1)
	}
	s.Close()
}

// TestFileCRCRejection flips a byte in the middle of a non-final segment
// and checks recovery refuses the log instead of replaying garbage.
func TestFileCRCRejection(t *testing.T) {
	dir := t.TempDir()
	s := openFile(t, dir) // 256-byte segments force several files
	for i := 0; i < 40; i++ {
		if _, err := appendOne(s, Record{Type: RecEpochDone, Epoch: uint64(i + 1),
			Floor: []uint64{1, 2, 3, 4, 5, 6, 7, 8}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	victim := segs[0]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(FileOptions{Dir: dir, SegmentBytes: 256}); err == nil {
		t.Fatal("open accepted a corrupt non-final segment")
	}
}

// TestCheckpointAndCompaction checks that a checkpoint bounds replay and
// lets the store drop covered segments.
func TestCheckpointAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openFile(t, dir)
	var lastLSN uint64
	for i := 0; i < 30; i++ {
		lsn, err := appendOne(s, Record{Type: RecEpochDone, Epoch: uint64(i + 1),
			Floor: []uint64{9, 9, 9, 9, 9, 9}})
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = lsn
		if err := s.PutChunk(testChunk(uint64(i+1), i%4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(Checkpoint{LSN: lastLSN - 5, State: []byte("snapshot")}, 20); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s = openFile(t, dir)
	cp, lsns, _ := replayAll(t, s)
	if cp == nil || string(cp.State) != "snapshot" || cp.LSN != lastLSN-5 {
		t.Fatalf("checkpoint = %+v", cp)
	}
	for _, lsn := range lsns {
		if lsn <= cp.LSN {
			t.Fatalf("replayed record %d at or below checkpoint %d", lsn, cp.LSN)
		}
	}
	if lsns[len(lsns)-1] != lastLSN {
		t.Fatalf("replay missing tail: last %d want %d", lsns[len(lsns)-1], lastLSN)
	}
	// Chunk compaction is segment-granular: everything at or below epoch
	// 20 in a closed segment is gone; the newest epochs must survive.
	maxSeen := uint64(0)
	minSeen := uint64(1 << 62)
	if err := s.Chunks(func(c ChunkRecord) error {
		if c.Epoch > maxSeen {
			maxSeen = c.Epoch
		}
		if c.Epoch < minSeen {
			minSeen = c.Epoch
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if maxSeen != 30 {
		t.Fatalf("newest chunk lost: max epoch %d", maxSeen)
	}
	s.Close()
}

// TestFileStoreClosedHandleFenced pins the closed-handle contract an
// in-process crash-restart rests on: every write through the closed
// handle fails with ErrFenced and changes nothing, and a fresh open of
// the directory recovers every record appended before Close, synced or
// not.
func TestFileStoreClosedHandleFenced(t *testing.T) {
	dir := t.TempDir()
	s := openFile(t, dir)
	for _, r := range testRecords() {
		if _, err := appendOne(s, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutChunk(testChunk(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"AppendBatch": func() error { _, err := appendOne(s, Record{Type: RecProposed, Epoch: 99}); return err }(),
		"PutChunk":    s.PutChunk(testChunk(99, 0)),
		"Sync":        s.Sync(),
		"Checkpoint":  s.Checkpoint(Checkpoint{LSN: 1, State: []byte("x")}, 1),
		// A dead incarnation must not invalidate its successor's restart point.
		"MarkUnsafeRestart": s.MarkUnsafeRestart(),
	} {
		if err != ErrFenced {
			t.Errorf("closed %s err = %v, want ErrFenced", name, err)
		}
	}

	s2 := openFile(t, dir)
	defer s2.Close()
	cp, lsns, recs := replayAll(t, s2)
	if cp != nil {
		t.Fatalf("closed handle's Checkpoint landed: %+v", cp)
	}
	if len(recs) != len(testRecords()) || lsns[len(lsns)-1] != uint64(len(recs)) {
		t.Fatalf("recovered %d records at lsns %v, want %d", len(recs), lsns, len(testRecords()))
	}
	if got := allChunks(t, s2); len(got) != 1 || got[0].Epoch != 1 {
		t.Fatalf("recovered chunks %+v, want epoch 1 only", got)
	}
	if lsn, err := s2.AppendBatch(nil); err != nil || lsn != 0 {
		t.Fatalf("empty AppendBatch = (%d, %v), want (0, nil)", lsn, err)
	}
	if lsn, err := appendOne(s2, Record{Type: RecProposed, Epoch: 3}); err != nil || lsn != uint64(len(recs))+1 {
		t.Fatalf("new handle append = (%d, %v), want (%d, nil)", lsn, err, len(recs)+1)
	}
}

// TestFileLockExcludesSecondOpener checks the datadir advisory lock: a
// second live opener must be refused, and Close must release the lock.
func TestFileLockExcludesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	s := openFile(t, dir)
	if _, err := OpenFile(FileOptions{Dir: dir}); err == nil {
		t.Fatal("second opener acquired a locked datadir")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(FileOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	s2.Close()
}

// TestMarkUnsafeRestartRefusesReopen walks the invalid-restart-point
// contract end to end: MarkUnsafeRestart durably flags the datadir,
// OpenFile then refuses it with ErrUnsafeRestart, ForceRestart opens it
// anyway and clears the flag, and a subsequent plain open succeeds.
func TestMarkUnsafeRestartRefusesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openFile(t, dir)
	if _, err := appendOne(s, Record{Type: RecProposed, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkUnsafeRestart(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	if _, err := OpenFile(FileOptions{Dir: dir}); !errors.Is(err, ErrUnsafeRestart) {
		t.Fatalf("reopen of a flagged datadir: err = %v, want ErrUnsafeRestart", err)
	}

	s2, err := OpenFile(FileOptions{Dir: dir, ForceRestart: true})
	if err != nil {
		t.Fatalf("forced reopen: %v", err)
	}
	// The forced open cleared the marker and the log is intact.
	var n int
	if _, err := s2.Recover(func(uint64, Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d records after forced reopen, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, unsafeMarkerName)); !os.IsNotExist(err) {
		t.Fatalf("marker survived the forced open: %v", err)
	}
	s2.Close()

	s3, err := OpenFile(FileOptions{Dir: dir})
	if err != nil {
		t.Fatalf("plain reopen after forced open: %v", err)
	}
	s3.Close()
}

// TestChunkSeqResumesPastCompactionHoles checks segment numbering resumes
// after the highest surviving chunk segment, so rotations after a
// post-compaction restart never collide with surviving files.
func TestChunkSeqResumesPastCompactionHoles(t *testing.T) {
	dir := t.TempDir()
	s := openFile(t, dir) // 256-byte segments rotate quickly
	for i := 0; i < 20; i++ {
		if err := s.PutChunk(testChunk(uint64(i+1), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(Checkpoint{}, 15); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s = openFile(t, dir)
	for i := 0; i < 40; i++ {
		if err := s.PutChunk(testChunk(uint64(100+i), 0)); err != nil {
			t.Fatalf("post-compaction put %d: %v", i, err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s = openFile(t, dir)
	count := 0
	if err := s.Chunks(func(ChunkRecord) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count < 40 {
		t.Fatalf("lost chunks across compaction holes: %d", count)
	}
	s.Close()
}

// The WAL append path runs once per durable record per step; with the
// store's reused encode scratch it must not allocate in steady state
// (NoSync keeps fsyncs out of the measurement; bufio absorbs writes).
func TestFileAppendDoesNotAllocate(t *testing.T) {
	s, err := OpenFile(FileOptions{Dir: t.TempDir(), SegmentBytes: 64 << 20, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := Record{Type: RecVote, Epoch: 9, Proposer: 3, VoteKind: 2, Round: 1, Value: true}
	batch := []Record{rec, rec, rec}
	if _, err := s.AppendBatch(batch); err != nil { // warm the scratch
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if _, err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("warm AppendBatch allocates %v times per run, want 0", n)
	}
	// Chunk frames are built in the chunk log's scratch the same way.
	chunk := testChunk(9, 3)
	if err := s.PutChunk(chunk); err != nil {
		t.Fatal(err)
	}
	n = testing.AllocsPerRun(200, func() {
		if err := s.PutChunk(chunk); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("warm PutChunk allocates %v times per run, want 0", n)
	}
}
