package store

import "sync"

// memData is the shared "disk" behind MemStore handles. It survives
// Close, so handing it to a fresh node models a process restart without
// touching the filesystem.
type memData struct {
	mu      sync.Mutex
	gen     uint64
	nextLSN uint64
	records []memRecord
	chunks  map[chunkKey]ChunkRecord
	cp      *Checkpoint
}

type memRecord struct {
	lsn uint64
	rec Record
}

type chunkKey struct {
	epoch    uint64
	proposer int
}

// MemStore is the in-memory Store backend. A handle is bound to the
// generation it was opened at: Reopen fences all older handles, so a
// zombie replica (a crashed node's leftover timers) can never corrupt
// the state its successor recovers from — the same guarantee a file lock
// gives FileStore deployments.
type MemStore struct {
	data *memData
	gen  uint64
}

// NewMem creates an empty in-memory store.
func NewMem() *MemStore {
	d := &memData{chunks: map[chunkKey]ChunkRecord{}}
	d.gen = 1
	return &MemStore{data: d, gen: 1}
}

// Reopen returns a fresh handle on the same backing state and fences the
// receiver (and any other prior handle): their subsequent writes fail
// with ErrFenced. Use it to simulate a crash-restart in process.
func (s *MemStore) Reopen() *MemStore {
	s.data.mu.Lock()
	defer s.data.mu.Unlock()
	s.data.gen++
	return &MemStore{data: s.data, gen: s.data.gen}
}

func (s *MemStore) fenced() bool { return s.gen != s.data.gen }

// AppendBatch implements Store.
func (s *MemStore) AppendBatch(recs []Record) (uint64, error) {
	s.data.mu.Lock()
	defer s.data.mu.Unlock()
	if s.fenced() {
		return 0, ErrFenced
	}
	var last uint64
	for _, rec := range recs {
		s.data.nextLSN++
		last = s.data.nextLSN
		s.data.records = append(s.data.records, memRecord{lsn: last, rec: rec})
	}
	return last, nil
}

// PutChunk implements Store.
func (s *MemStore) PutChunk(c ChunkRecord) error {
	s.data.mu.Lock()
	defer s.data.mu.Unlock()
	if s.fenced() {
		return ErrFenced
	}
	s.data.chunks[chunkKey{c.Epoch, c.Proposer}] = c
	return nil
}

// Sync implements Store (memory is always "durable").
func (s *MemStore) Sync() error {
	s.data.mu.Lock()
	defer s.data.mu.Unlock()
	if s.fenced() {
		return ErrFenced
	}
	return nil
}

// Checkpoint implements Store.
func (s *MemStore) Checkpoint(cp Checkpoint, prunedThrough uint64) error {
	s.data.mu.Lock()
	defer s.data.mu.Unlock()
	if s.fenced() {
		return ErrFenced
	}
	s.data.cp = &Checkpoint{LSN: cp.LSN, State: append([]byte(nil), cp.State...)}
	kept := s.data.records[:0]
	for _, m := range s.data.records {
		if m.lsn > cp.LSN {
			kept = append(kept, m)
		}
	}
	s.data.records = kept
	for k := range s.data.chunks {
		if k.epoch <= prunedThrough {
			delete(s.data.chunks, k)
		}
	}
	return nil
}

// Recover implements Store.
func (s *MemStore) Recover(fn func(lsn uint64, rec Record) error) (*Checkpoint, error) {
	s.data.mu.Lock()
	cp := s.data.cp
	recs := append([]memRecord(nil), s.data.records...)
	s.data.mu.Unlock()
	var after uint64
	if cp != nil {
		after = cp.LSN
	}
	for _, m := range recs {
		if m.lsn <= after {
			continue
		}
		if err := fn(m.lsn, m.rec); err != nil {
			return cp, err
		}
	}
	return cp, nil
}

// Chunks implements Store.
func (s *MemStore) Chunks(fn func(ChunkRecord) error) error {
	s.data.mu.Lock()
	cs := make([]ChunkRecord, 0, len(s.data.chunks))
	for _, c := range s.data.chunks {
		cs = append(cs, c)
	}
	s.data.mu.Unlock()
	for _, c := range cs {
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Store. The backing state survives, so a later Reopen
// recovers everything — that is the point of MemStore.
func (s *MemStore) Close() error { return nil }
