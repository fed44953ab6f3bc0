// Package statesync implements checkpoint transfer: the peer-to-peer
// protocol that lets a node with an empty or hopelessly stale datadir
// fetch a verified snapshot of the cluster's state and resume as a
// first-class replica.
//
// DispersedLedger's design promise is that slow or disconnected nodes
// never stall the cluster and catch up at their own pace — but the
// catch-up machinery (WAL replay plus the status protocol) only works
// while peers still hold the epochs the laggard missed. Once a node
// sleeps past every peer's RetainEpochs garbage-collection horizon, or
// is brand new, replaying history is impossible by construction. State
// sync closes that gap:
//
//  1. Every node with state sync enabled records a sync point every
//     PointEvery delivered epochs: the canonical checkpoint manifest
//     (store.Manifest — delivered position, linked floors, delivered
//     blocks beyond the floors, committed-hash memory) and its SHA-256.
//     The manifest is objective — every honest node that delivered
//     through the same position computes the identical bytes — so its
//     hash is attestable.
//  2. A joiner broadcasts SyncHello and collects SyncOffer replies. It
//     adopts the newest point attested by f+1 identical (epoch, hash)
//     claims: at most f peers are Byzantine, so at least one honest
//     node vouches for the content — the same trust argument as the
//     status catch-up protocol. f+1 empty offers mean the cluster has
//     no checkpoint yet and the ordinary catch-up suffices.
//  3. The joiner pulls the manifest in pages from the attesters (one
//     request in flight per donor, donor rotation on timeout, re-pull
//     on reconnect — the transport's cumulative-ack replay makes pages
//     survive connection breaks), verifies the reassembled bytes
//     against the attested hash, and installs it: log position, floors
//     and dedup memory are seeded, then the existing status catch-up
//     takes over for the live tail.
//  4. Opportunistically, the joiner also pulls each attester's retained
//     chunk inventory. Every chunk is verified against its Merkle root
//     and bound to the donor's own leaf index (so no f-bounded group
//     can fabricate a block), then fed into the joiner's tail
//     retrievals — bulk transfer instead of per-instance request
//     round-trips.
//
// The Tracker (donor side) and Syncer (joiner side) here are
// deterministic single-threaded automata in the style of internal/avid,
// driven by the consensus engine's event loop; package core wires them
// to the message flow.
package statesync

import (
	"dledger/internal/merkle"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// Defaults.
const (
	// DefaultPointEvery is the sync-point cadence in delivered epochs.
	DefaultPointEvery = 16
	// DefaultKeepPoints is how many points a tracker retains; together
	// with the cadence it defines the window in which a joiner can find
	// a servable point (DefaultPointEvery*DefaultKeepPoints epochs).
	DefaultKeepPoints = 8
	// PageBytes is the target page size of the transfer stream.
	PageBytes = 56 << 10
	// MaxStagedChunks bounds how many verified-but-not-yet-consumed
	// chunks a joiner stages while its retrievals spin up.
	MaxStagedChunks = 8192
	// SyncCommittedCap bounds the committed-hash section of a manifest
	// to the newest this-many hashes (128 KB on the wire). The slice is
	// still objective — it is a suffix of the global commit sequence at
	// the sync point, for full and previously-synced donors alike — and
	// it mirrors the mempool's own bounded committed memory: dedup of
	// commits older than the window is already best-effort everywhere.
	// Without the cap a manifest under sustained client load carries
	// the full 2 MB memory and the transfer can outlast the very
	// outage windows it exists to heal.
	SyncCommittedCap = 4096
	// maxOfferPoints caps the points one SyncOffer carries.
	maxOfferPoints = 8
)

// Stats counts state-sync activity on one node (client and donor side).
type Stats struct {
	// Syncs counts completed bootstrap-from-snapshot installs.
	Syncs int64
	// Fallbacks counts syncs that concluded "no checkpoint available"
	// and handed off to the ordinary status catch-up.
	Fallbacks int64
	// BytesFetched is the total page payload the client side pulled.
	BytesFetched int64
	// ChunksImported counts verified chunk records adopted from donors.
	ChunksImported int64
	// PagesServed counts pages this node served to joiners.
	PagesServed int64
	// LastSyncEpoch is the checkpoint position of the most recent
	// bootstrap install (0 if never synced).
	LastSyncEpoch uint64
}

// Tracker is the donor side: a ring of recent sync points with their
// canonical manifest blobs, appended by the replica as epochs deliver.
// The cadence itself is the engine's call (core.Config.SyncPointEvery
// gates the SyncPointAction emissions the replica records here); the
// tracker only retains what it is handed.
type Tracker struct {
	keep int
	ring []trackedPoint
}

type trackedPoint struct {
	point wire.SyncPoint
	blob  []byte
}

// NewTracker builds a tracker retaining the last keep points (zero
// takes the default).
func NewTracker(keep int) *Tracker {
	if keep <= 0 {
		keep = DefaultKeepPoints
	}
	return &Tracker{keep: keep}
}

// Add records the canonical manifest blob for one delivered position,
// evicting the oldest point beyond the retention window.
func (t *Tracker) Add(epoch uint64, blob []byte) {
	t.ring = append(t.ring, trackedPoint{
		point: wire.SyncPoint{Epoch: epoch, Hash: store.ManifestHash(blob)},
		blob:  blob,
	})
	if len(t.ring) > t.keep {
		t.ring = t.ring[len(t.ring)-t.keep:]
	}
}

// Points returns the resident sync points, newest first.
func (t *Tracker) Points() []wire.SyncPoint {
	out := make([]wire.SyncPoint, 0, len(t.ring))
	for i := len(t.ring) - 1; i >= 0; i-- {
		out = append(out, t.ring[i].point)
		if len(out) == maxOfferPoints {
			break
		}
	}
	return out
}

// Summary returns the checkpoint epochs this node can currently serve
// to joiners, oldest first — the operator-facing digest /statusz embeds
// (cluster aggregators compare laggard positions against the oldest
// retained point to flag nodes nearing the bootstrap cliff).
func (t *Tracker) Summary() []uint64 {
	out := make([]uint64, 0, len(t.ring))
	for i := range t.ring {
		out = append(out, t.ring[i].point.Epoch)
	}
	return out
}

// Blob returns the manifest bytes of a resident point (nil if evicted).
func (t *Tracker) Blob(epoch uint64) []byte {
	for i := len(t.ring) - 1; i >= 0; i-- {
		if t.ring[i].point.Epoch == epoch {
			return t.ring[i].blob
		}
	}
	return nil
}

// Page slices one page out of a blob. last marks the final page; a page
// beyond the end returns ok=false.
func Page(blob []byte, page uint32) (data []byte, last, ok bool) {
	start := int(page) * PageBytes
	if start >= len(blob) && !(start == 0 && len(blob) == 0) {
		return nil, false, false
	}
	end := start + PageBytes
	if end >= len(blob) {
		return blob[start:], true, true
	}
	return blob[start:end], false, true
}

// VerifyChunkRecord checks one streamed chunk-inventory entry: it must
// be a completion carrying its chunk (no other entry of the donor's
// chunk journal), sit at the donor's own leaf index (server i stores
// and serves chunk i — a donor cannot speak for another node's leaf,
// which is what keeps any f-bounded group from assembling a forged
// block), and verify against its Merkle root.
func VerifyChunkRecord(donor int, c store.ChunkRecord) bool {
	return c.Kind == store.ChunkDone && c.HasChunk &&
		c.Proof.Index == donor &&
		merkle.Verify(c.Root, c.Data, c.Proof)
}
