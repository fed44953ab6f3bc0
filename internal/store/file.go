package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"dledger/internal/wire"
)

// FileOptions configures a FileStore.
type FileOptions struct {
	// Dir is the data directory; it is created if missing. Layout:
	//
	//	dir/wal/<first-lsn>.seg    CRC-framed WAL segments
	//	dir/chunks/<seq>.seg       CRC-framed chunk segments
	//	dir/CHECKPOINT             atomic (tmp+rename) checkpoint
	Dir string
	// SegmentBytes rotates log segments at roughly this size (default
	// 1 MiB). Smaller segments compact sooner; larger ones fsync less
	// metadata.
	SegmentBytes int
	// NoSync disables fsync entirely (benchmarks; a host crash may then
	// lose or tear the log tail, which recovery truncates away).
	NoSync bool
	// ForceRestart opens a directory flagged UNSAFE_RESTART anyway,
	// clearing the marker. The operator is accepting the documented risk:
	// the log stops short of what the node externalized, so the restart
	// behaves like a fresh-behind node and may re-send forgotten votes
	// (see ErrUnsafeRestart and docs/OPERATIONS.md).
	ForceRestart bool
}

func (o FileOptions) segmentBytes() int {
	if o.SegmentBytes <= 0 {
		return 1 << 20
	}
	return o.SegmentBytes
}

// FileStore is the durable filesystem backend: two segmented logs (the
// WAL and the chunk log) and a checkpoint file. Appends are buffered and
// made durable in batches by Sync (group commit): the replica syncs once
// per event-loop step that produced durable records, so one fsync per
// log covers every record of the step.
type FileStore struct {
	opts FileOptions

	nextLSN uint64
	wal     *segLog // a frame's mark is its LSN; a segment is named after its first
	chunks  *segLog // a frame's mark is its epoch; segments are numbered

	lock   *os.File
	closed bool
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frame layout: len(4) crc(4) payload(len).
const frameHeader = 8

// sealFrame back-fills the header over the frameHeader bytes reserved at
// the front of buf; everything behind them is the payload.
func sealFrame(buf []byte) {
	payload := buf[frameHeader:]
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
}

// readFrame reads one frame; the payload aliases the reader's input. It
// is the only code that interprets a frame header: a length running past
// the input — or negative, as 0xFFFFFFF0 is in a 32-bit int — fails in
// the reader, and ok is false for that and for a checksum mismatch.
func readFrame(r *wire.Reader) (payload []byte, ok bool) {
	n, crc := r.U32(), r.U32()
	payload = r.View(int(n))
	return payload, r.Err() == nil && crc32.Checksum(payload, crcTable) == crc
}

// OpenFile opens (or initializes) a FileStore at opts.Dir, scanning
// existing segments to validate their frames and truncate any torn tail
// left by a crash.
func OpenFile(opts FileOptions) (*FileStore, error) {
	s := &FileStore{opts: opts}
	walDir, chunkDir := filepath.Join(opts.Dir, "wal"), filepath.Join(opts.Dir, "chunks")
	for _, d := range []string{opts.Dir, walDir, chunkDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	// Take an exclusive advisory lock on the datadir for the life of the
	// process: two live nodes interleaving one WAL would silently corrupt
	// exactly the state durability exists to protect. The kernel releases
	// the lock when the process dies, so a crash never wedges a restart.
	lock, err := os.OpenFile(filepath.Join(opts.Dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: %s is locked by a live process: %w", opts.Dir, err)
	}
	s.lock = lock
	marker := filepath.Join(opts.Dir, unsafeMarkerName)
	if _, err := os.Stat(marker); err == nil {
		if !opts.ForceRestart {
			s.unlock()
			return nil, fmt.Errorf("%w: %s exists — a durable write failed mid-run, so this log stops short of the state the node externalized; recover from scratch or a peer checkpoint, or force the restart to accept the risk", ErrUnsafeRestart, marker)
		}
		if err := os.Remove(marker); err != nil {
			s.unlock()
			return nil, err
		}
	}
	s.wal, err = openLog(walDir, opts, func(payload []byte) (uint64, error) {
		r := wire.NewReader(payload)
		return r.U64(), r.Err()
	})
	if err == nil {
		s.chunks, err = openLog(chunkDir, opts, func(payload []byte) (uint64, error) {
			c, err := DecodeChunkRecord(payload)
			return c.Epoch, err
		})
	}
	if err != nil {
		s.unlock()
		return nil, err
	}
	for _, seg := range s.wal.segs {
		s.nextLSN = max(s.nextLSN, seg.mark)
	}
	return s, nil
}

// unsafeMarkerName flags a data directory whose log stopped short of the
// node's live state: a durable write failed mid-run and the node kept
// going without persisting. OpenFile refuses a flagged directory.
const unsafeMarkerName = "UNSAFE_RESTART"

// MarkUnsafeRestart implements UnsafeRestartMarker: it durably creates
// the UNSAFE_RESTART marker so future opens refuse this directory.
func (s *FileStore) MarkUnsafeRestart() error {
	path := filepath.Join(s.opts.Dir, unsafeMarkerName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.WriteString("a durable write failed while this node was live; the log stops short of the state the node externalized.\nThis directory is not a valid restart point — see docs/OPERATIONS.md (dlnode -force-restart overrides).\n")
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	// The marker's durability needs its directory entry synced too —
	// whatever NoSync says about the logs.
	return syncDir(s.opts.Dir, false)
}

func (s *FileStore) unlock() {
	if s.lock != nil {
		syscall.Flock(int(s.lock.Fd()), syscall.LOCK_UN)
		s.lock.Close()
		s.lock = nil
	}
}

func syncDir(dir string, noSync bool) error {
	if noSync {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// scanSegment walks one segment's frames, calling fn with each payload.
// Damage at the tail of the final segment is truncated away (the torn
// write a crash can leave); damage anywhere else is ErrCorrupt.
func scanSegment(path string, last bool, fn func(payload []byte) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for r := wire.NewReader(data); r.Len() > 0; {
		off := len(data) - r.Len()
		payload, ok := readFrame(r)
		if !ok {
			if last {
				return os.Truncate(path, int64(off))
			}
			return fmt.Errorf("%w: %s at offset %d", ErrCorrupt, path, off)
		}
		if err := fn(payload); err != nil {
			return fmt.Errorf("%s at offset %d: %w", path, off, err)
		}
	}
	return nil
}

// segLog is an append-only log kept as a directory of segment files of
// CRC-checked frames; the WAL and the chunk log are one each. All it
// knows of a frame's payload is the mark its writer gives it — the WAL's
// LSN, the chunk log's epoch. A segment remembers the highest mark it
// holds, which is what lets scan skip, and compact unlink, whole
// segments that a checkpoint has made redundant.
type segLog struct {
	dir      string
	segBytes int
	noSync   bool

	segs []segment
	// seq is the highest segment number the directory has held since
	// open; the chunk log names its next segment seq+1.
	seq uint64

	// The open segment is segs[len(segs)-1]. f is nil until the first
	// append after open: a segment recovered from disk is never reopened
	// for writing.
	f     *os.File
	bw    *bufio.Writer
	size  int
	dirty bool

	// enc is the reused frame scratch: every frame is built in it, so
	// steady-state appends allocate nothing.
	enc []byte
}

type segment struct {
	path   string
	mark   uint64
	closed bool // closed for appends; removable by compact
}

// openLog scans dir's segments in name order, checking every frame and
// cutting off the torn tail a crash can leave on the last segment.
// markOf extracts a frame's mark from its payload, or rejects it.
func openLog(dir string, opts FileOptions, markOf func(payload []byte) (uint64, error)) (*segLog, error) {
	l := &segLog{dir: dir, segBytes: opts.segmentBytes(), noSync: opts.NoSync, enc: make([]byte, 0, 256)}
	ents, err := os.ReadDir(dir) // sorted by name, and zero-padded names sort numerically
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".seg" {
			names = append(names, e.Name())
		}
	}
	for i, name := range names {
		seg := segment{path: filepath.Join(dir, name), closed: true}
		frames := 0
		err := scanSegment(seg.path, i == len(names)-1, func(payload []byte) error {
			mark, err := markOf(payload)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			frames++
			seg.mark = max(seg.mark, mark)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if frames > 0 {
			l.segs = append(l.segs, seg)
		} else {
			os.Remove(seg.path) // wholly torn
		}
		// Resume numbering after the highest name seen, not the count of
		// survivors — compaction leaves holes, and reusing a taken name
		// would fail the exclusive create forever after.
		if seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 10, 64); err == nil {
			l.seq = max(l.seq, seq)
		}
	}
	return l, nil
}

// append writes one frame whose payload build appends to the scratch it
// is handed. A full open segment is closed first, and when no segment is
// open one is created as <name>.seg: the only place segments rotate.
func (l *segLog) append(mark, name uint64, build func(buf []byte) []byte) error {
	if l.f != nil && l.size >= l.segBytes {
		if err := l.close(); err != nil {
			return err
		}
	}
	if l.f == nil {
		path := filepath.Join(l.dir, fmt.Sprintf("%020d.seg", name))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		if err := syncDir(l.dir, l.noSync); err != nil {
			f.Close()
			return err
		}
		l.f, l.bw, l.size, l.seq = f, bufio.NewWriterSize(f, 64<<10), 0, name
		l.segs = append(l.segs, segment{path: path})
	}
	// Build the frame in place: reserve the header, let the caller append
	// the payload behind it, then back-fill the header.
	buf := build(l.enc[:frameHeader])
	sealFrame(buf)
	l.enc = buf[:0]
	if _, err := l.bw.Write(buf); err != nil {
		return err
	}
	l.size += len(buf)
	l.dirty = true
	seg := &l.segs[len(l.segs)-1]
	seg.mark = max(seg.mark, mark)
	return nil
}

// sync flushes and fsyncs the open segment if it has unsynced frames.
func (l *segLog) sync() error {
	if !l.dirty {
		return nil
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if !l.noSync {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.dirty = false
	return nil
}

// close syncs and closes the open segment, if there is one.
func (l *segLog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f, l.bw, l.dirty = nil, nil, false
	l.segs[len(l.segs)-1].closed = true
	return err
}

// scan replays, in order, the frames of every segment that holds a mark
// of at least from.
func (l *segLog) scan(from uint64, fn func(payload []byte) error) error {
	for i, seg := range l.segs {
		if seg.mark < from {
			continue
		}
		if err := scanSegment(seg.path, i == len(l.segs)-1, fn); err != nil {
			return err
		}
	}
	return nil
}

// compact unlinks the closed segments whose every mark is at or below
// bound (best effort: a segment is the unit of removal, and the open one
// always stays).
func (l *segLog) compact(bound uint64) {
	kept := l.segs[:0]
	for _, seg := range l.segs {
		if seg.closed && seg.mark <= bound {
			os.Remove(seg.path)
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
}

// AppendBatch implements Store: every record is framed in the WAL's
// reused scratch and lands in the segment writer's buffer, made durable
// together by the step's Sync.
func (s *FileStore) AppendBatch(recs []Record) (uint64, error) {
	if s.closed {
		return 0, ErrFenced
	}
	var last uint64
	for i := range recs {
		lsn := s.nextLSN + 1
		err := s.wal.append(lsn, lsn, func(buf []byte) []byte {
			return AppendRecord(binary.BigEndian.AppendUint64(buf, lsn), recs[i])
		})
		if err != nil {
			return 0, err
		}
		s.nextLSN, last = lsn, lsn
	}
	return last, nil
}

// PutChunk implements Store.
func (s *FileStore) PutChunk(c ChunkRecord) error {
	if s.closed {
		return ErrFenced
	}
	return s.chunks.append(c.Epoch, s.chunks.seq+1, func(buf []byte) []byte {
		return AppendChunkRecord(buf, c)
	})
}

// Sync implements Store: one flush+fsync per dirty log.
func (s *FileStore) Sync() error {
	if s.closed {
		return ErrFenced
	}
	if err := s.wal.sync(); err != nil {
		return err
	}
	return s.chunks.sync()
}

// Checkpoint implements Store: write-temp, fsync, rename, fsync dir, and
// only with the new checkpoint durable unlink the segments it subsumes.
func (s *FileStore) Checkpoint(cp Checkpoint, prunedThrough uint64) error {
	if s.closed {
		return ErrFenced
	}
	buf := make([]byte, frameHeader, frameHeader+8+len(cp.State))
	buf = append(binary.BigEndian.AppendUint64(buf, cp.LSN), cp.State...)
	sealFrame(buf)
	tmp := filepath.Join(s.opts.Dir, "CHECKPOINT.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.opts.Dir, "CHECKPOINT")); err != nil {
		return err
	}
	if err := syncDir(s.opts.Dir, s.opts.NoSync); err != nil {
		return err
	}
	s.wal.compact(cp.LSN)
	s.chunks.compact(prunedThrough)
	return nil
}

func (s *FileStore) readCheckpoint() (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(s.opts.Dir, "CHECKPOINT"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	payload, ok := readFrame(wire.NewReader(data))
	r := wire.NewReader(payload)
	cp := &Checkpoint{LSN: r.U64()}
	if !ok || r.Err() != nil {
		return nil, fmt.Errorf("%w: checkpoint truncated or crc mismatch", ErrCorrupt)
	}
	cp.State = r.Bytes(r.Len())
	return cp, nil
}

// Recover implements Store.
func (s *FileStore) Recover(fn func(lsn uint64, rec Record) error) (*Checkpoint, error) {
	cp, err := s.readCheckpoint()
	if err != nil {
		return nil, err
	}
	var after uint64
	if cp != nil {
		after = cp.LSN
	}
	return cp, s.wal.scan(after+1, func(payload []byte) error {
		r := wire.NewReader(payload)
		lsn := r.U64()
		if lsn <= after {
			return nil
		}
		rec, err := DecodeRecord(r.View(r.Len()))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return fn(lsn, rec)
	})
}

// Chunks implements Store. Later records for the same instance supersede
// earlier ones (duplicates only arise from pre-compaction overlap).
func (s *FileStore) Chunks(fn func(ChunkRecord) error) error {
	seen := map[chunkKey]ChunkRecord{}
	err := s.chunks.scan(0, func(payload []byte) error {
		c, err := DecodeChunkRecord(payload)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		seen[chunkKey{c.Epoch, c.Proposer}] = c
		return nil
	})
	if err != nil {
		return err
	}
	for _, c := range seen {
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.wal.close()
	if err2 := s.chunks.close(); err == nil {
		err = err2
	}
	s.unlock()
	return err
}
