package store

// Checkpoint manifest: the self-describing unit of state-sync transfer
// (internal/statesync). A manifest captures the *objective* part of a
// node's durable state at one delivered-log position — the part every
// honest node that delivered through that position computes identically:
//
//   - the delivered-log position itself and the per-node linked-delivery
//     floors,
//   - the delivered blocks beyond those floors, with their linking
//     observations (V arrays) and BAD_UPLOADER marks, which is exactly
//     what a resuming engine needs so future linking computations and
//     exactly-once delivery still work,
//   - the committed transaction-hash memory, so client resubmission
//     stays idempotent across the synced-over gap.
//
// Node-local state (the node's own proposals, its VID completion
// watermark, in-flight retrievals) is deliberately excluded — it is not
// objective, and a joiner rebuilds it through live participation.
//
// The encoding is deterministic (sections in fixed order, blocks sorted)
// so that ManifestHash is attestable: f+1 identical (epoch, hash) claims
// prove the manifest content to a joiner that trusts no single peer.
// Each section carries its own CRC32 so a damaged transfer names the
// broken section instead of failing opaquely.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"dledger/internal/wire"
)

// Manifest section ids (fixed order on the wire).
const (
	manifestMagic   = 0x444C5353 // "DLSS"
	manifestVersion = 1

	sectionPosition uint8 = 1
	sectionBlocks   uint8 = 2
	sectionHashes   uint8 = 3
)

// ManifestBlock is one delivered block, in a manifest and in an engine
// snapshot (core.Snapshot): the slot, whether it retrieved as
// BAD_UPLOADER, and its observation array (nil when Bad or when the
// observation was never kept).
type ManifestBlock struct {
	Epoch    uint64
	Proposer int
	Bad      bool
	V        []uint64
}

// AppendTo appends the entry: epoch(8) proposer(2) flags(1), then the
// u16-counted V array when flag bit 1 says it is present (bit 0: Bad).
func (b ManifestBlock) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, b.Epoch)
	buf = binary.BigEndian.AppendUint16(buf, uint16(b.Proposer))
	flags := byte(0)
	if b.Bad {
		flags |= 1
	}
	if b.V != nil {
		flags |= 2
	}
	buf = append(buf, flags)
	if b.V != nil {
		buf = wire.AppendU64s(buf, b.V)
	}
	return buf
}

// manifestBlockMin is the smallest encoded entry (no V array).
const manifestBlockMin = 8 + 2 + 1

// ReadManifestBlocks reads a u32 count and that many entries
// (AppendTo's inverse); nil when the count is 0.
func ReadManifestBlocks(r *wire.Reader) []ManifestBlock {
	var blocks []ManifestBlock
	for n := r.Count(int(r.U32()), manifestBlockMin); n > 0 && r.Err() == nil; n-- {
		b := ManifestBlock{Epoch: r.U64(), Proposer: int(r.U16())}
		flags := r.U8()
		b.Bad = flags&1 != 0
		if flags&2 != 0 {
			b.V = r.U64s(int(r.U16()))
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// Manifest is the state-sync checkpoint at one delivered position.
type Manifest struct {
	// N is the cluster size the manifest was built for.
	N int
	// Epoch is the delivered-log position: epochs 1..Epoch are fully
	// delivered at this point.
	Epoch uint64
	// LinkedFloor is the per-node linked-delivery floor at Epoch.
	LinkedFloor []uint64
	// Blocks lists the delivered blocks beyond the floors (sorted by
	// epoch then proposer), the ones future engine steps may consult.
	Blocks []ManifestBlock
	// Committed is the committed transaction-hash memory at Epoch,
	// oldest first (empty on clusters without the client gateway).
	Committed [][32]byte
}

// ErrBadManifest reports a manifest that failed structural validation or
// a section CRC.
var ErrBadManifest = errors.New("store: malformed state-sync manifest")

// SortManifestBlocks puts entries into the canonical (epoch, proposer)
// order of a manifest and of a snapshot.
func SortManifestBlocks(blocks []ManifestBlock) {
	sort.Slice(blocks, func(a, b int) bool {
		if blocks[a].Epoch != blocks[b].Epoch {
			return blocks[a].Epoch < blocks[b].Epoch
		}
		return blocks[a].Proposer < blocks[b].Proposer
	})
}

// appendSection frames one section: id, length, payload, CRC32 over all
// three — a torn or bit-flipped transfer fails closed on decode.
func appendSection(buf []byte, id uint8, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, id)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[start:])
	return binary.BigEndian.AppendUint32(buf, crc)
}

// EncodeManifest serializes the manifest in its canonical byte form (the
// form ManifestHash attests).
func EncodeManifest(m *Manifest) []byte {
	SortManifestBlocks(m.Blocks)

	pos := make([]byte, 0, 8+8*len(m.LinkedFloor))
	pos = binary.BigEndian.AppendUint64(pos, m.Epoch)
	for _, v := range m.LinkedFloor {
		pos = binary.BigEndian.AppendUint64(pos, v)
	}

	blocks := make([]byte, 0, 4+16*len(m.Blocks))
	blocks = binary.BigEndian.AppendUint32(blocks, uint32(len(m.Blocks)))
	for _, b := range m.Blocks {
		blocks = b.AppendTo(blocks)
	}

	hashes := make([]byte, 0, 4+32*len(m.Committed))
	hashes = binary.BigEndian.AppendUint32(hashes, uint32(len(m.Committed)))
	for _, h := range m.Committed {
		hashes = append(hashes, h[:]...)
	}

	buf := make([]byte, 0, 7+len(pos)+len(blocks)+len(hashes)+27)
	buf = binary.BigEndian.AppendUint32(buf, manifestMagic)
	buf = append(buf, manifestVersion)
	buf = binary.BigEndian.AppendUint16(buf, uint16(m.N))
	buf = appendSection(buf, sectionPosition, pos)
	buf = appendSection(buf, sectionBlocks, blocks)
	buf = appendSection(buf, sectionHashes, hashes)
	return buf
}

// ManifestHash returns the attestation hash of a manifest's canonical
// encoding.
func ManifestHash(encoded []byte) [32]byte { return sha256.Sum256(encoded) }

// readSection consumes one framed section, checking its id and CRC, and
// returns a reader over its payload.
func readSection(r *wire.Reader, wantID uint8) (*wire.Reader, error) {
	header := r.View(5) // id, length: the CRC covers them too
	h := wire.NewReader(header)
	id, n := h.U8(), h.U32()
	payload := r.View(int(n))
	crc := r.U32()
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: truncated section %d", ErrBadManifest, wantID)
	}
	if id != wantID {
		return nil, fmt.Errorf("%w: expected section %d, found %d", ErrBadManifest, wantID, id)
	}
	if crc32.Update(crc32.ChecksumIEEE(header), crc32.IEEETable, payload) != crc {
		return nil, fmt.Errorf("%w: section %d CRC mismatch", ErrBadManifest, wantID)
	}
	return wire.NewReader(payload), nil
}

// DecodeManifest parses EncodeManifest output, verifying every section
// CRC and all structural invariants.
func DecodeManifest(data []byte) (*Manifest, error) {
	r := wire.NewReader(data)
	magic, version := r.U32(), r.U8()
	m := &Manifest{N: int(r.U16())}
	switch {
	case r.Err() != nil:
		return nil, ErrBadManifest
	case magic != manifestMagic:
		return nil, fmt.Errorf("%w: bad magic", ErrBadManifest)
	case version != manifestVersion:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadManifest, version)
	}

	pos, err := readSection(r, sectionPosition)
	if err != nil {
		return nil, err
	}
	m.Epoch, m.LinkedFloor = pos.U64(), pos.U64s(m.N)
	if pos.Done() != nil {
		return nil, fmt.Errorf("%w: position section size", ErrBadManifest)
	}

	blocks, err := readSection(r, sectionBlocks)
	if err != nil {
		return nil, err
	}
	m.Blocks = ReadManifestBlocks(blocks)
	if err := blocks.Done(); err != nil {
		return nil, fmt.Errorf("%w: blocks section: %v", ErrBadManifest, err)
	}
	for _, b := range m.Blocks {
		if b.Epoch == 0 || b.Proposer >= m.N {
			return nil, fmt.Errorf("%w: block entry out of range", ErrBadManifest)
		}
	}

	hashes, err := readSection(r, sectionHashes)
	if err != nil {
		return nil, err
	}
	m.Committed = wire.Hashes[[32]byte](hashes, int(hashes.U32()))
	if hashes.Done() != nil {
		return nil, fmt.Errorf("%w: hashes section size", ErrBadManifest)
	}
	if r.Done() != nil {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadManifest)
	}
	return m, nil
}
