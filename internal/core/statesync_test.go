package core

import (
	"encoding/binary"
	"testing"

	"dledger/internal/statesync"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// fakeSource serves one fixed sync point.
type fakeSource struct {
	blob  []byte
	epoch uint64
}

func (s fakeSource) SyncPoints() []wire.SyncPoint {
	return []wire.SyncPoint{{Epoch: s.epoch, Hash: store.ManifestHash(s.blob)}}
}
func (s fakeSource) SyncBlob(epoch uint64) []byte {
	if epoch == s.epoch {
		return s.blob
	}
	return nil
}

func syncManifest(n int, epoch uint64) *store.Manifest {
	floors := make([]uint64, n)
	for i := range floors {
		floors[i] = epoch
	}
	return &store.Manifest{N: n, Epoch: epoch, LinkedFloor: floors,
		Committed: [][32]byte{{0xaa}, {0xbb}}}
}

func sends(actions []Action) []SendAction {
	var out []SendAction
	for _, a := range actions {
		if s, ok := a.(SendAction); ok {
			out = append(out, s)
		}
	}
	return out
}

// TestCatchupEscalatesToStateSync: a recovering node whose catch-up
// target was garbage-collected by f+1 peers must switch from the status
// protocol to a checkpoint bootstrap (instead of asking forever).
func TestCatchupEscalatesToStateSync(t *testing.T) {
	eng, err := NewEngine(Config{N: 4, F: 1, CoinSecret: []byte("s"), StateSync: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(nil, []store.Record{
		{Type: store.RecDecided, Epoch: 1, S: []int{1, 2, 3}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	eng.Handle(wire.Envelope{From: 1, Epoch: 2, Proposer: 0,
		Payload: wire.StatusReply{Decided: false, Through: 5000}})
	acts := eng.Handle(wire.Envelope{From: 2, Epoch: 2, Proposer: 0,
		Payload: wire.StatusReply{Decided: false, Through: 5000}})
	if !eng.CatchingUp() {
		t.Fatal("node gave up instead of escalating")
	}
	hellos := 0
	for _, s := range sends(acts) {
		if _, ok := s.Env.Payload.(wire.SyncHello); ok {
			hellos++
		}
	}
	if hellos != 3 {
		t.Fatalf("expected a SyncHello broadcast to all 3 peers, saw %d", hellos)
	}
}

// TestSyncHelloAnswersWithOffer: a donor replies with its tracker's
// attested points (and an empty offer when it has none — still a valid
// attestation that lets a joiner of a young cluster fall back).
func TestSyncHelloAnswersWithOffer(t *testing.T) {
	eng, err := NewEngine(Config{N: 4, F: 1, CoinSecret: []byte("s"), StateSync: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	acts := eng.Handle(wire.Envelope{From: 2, Epoch: 1, Proposer: 0, Payload: wire.SyncHello{}})
	ss := sends(acts)
	if len(ss) != 1 {
		t.Fatalf("expected one reply, got %d", len(ss))
	}
	if offer, ok := ss[0].Env.Payload.(wire.SyncOffer); !ok || len(offer.Points) != 0 {
		t.Fatalf("expected an empty offer, got %+v", ss[0].Env.Payload)
	}

	blob := store.EncodeManifest(syncManifest(4, 32))
	eng.SetSyncSource(fakeSource{blob: blob, epoch: 32})
	acts = eng.Handle(wire.Envelope{From: 2, Epoch: 1, Proposer: 0, Payload: wire.SyncHello{}})
	ss = sends(acts)
	offer := ss[0].Env.Payload.(wire.SyncOffer)
	if len(offer.Points) != 1 || offer.Points[0].Epoch != 32 {
		t.Fatalf("offer %+v", offer)
	}
	// And the pull is served from the source, hash-stable.
	acts = eng.Handle(wire.Envelope{From: 2, Epoch: 32, Proposer: 0,
		Payload: wire.SyncPull{Section: wire.SyncSectionManifest, Page: 0}})
	ss = sends(acts)
	page, ok := ss[0].Env.Payload.(wire.SyncPage)
	if !ok || !page.Last || store.ManifestHash(page.Data) != store.ManifestHash(blob) {
		t.Fatalf("served page %+v", ss[0].Env.Payload)
	}
	if eng.SyncStats().PagesServed != 1 {
		t.Fatal("PagesServed not counted")
	}
}

// TestJoinBootstrapInstallsManifest drives a fresh JoinSync engine
// through the full client flow against scripted peers: hello, f+1
// offers, one manifest page — and checks the engine adopts the position
// and hands off to the status catch-up.
func TestJoinBootstrapInstallsManifest(t *testing.T) {
	eng, err := NewEngine(Config{N: 4, F: 1, CoinSecret: []byte("s"),
		StateSync: true, JoinSync: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	acts := eng.Start()
	hellos := 0
	for _, s := range sends(acts) {
		if _, ok := s.Env.Payload.(wire.SyncHello); ok {
			hellos++
		}
	}
	if hellos != 3 {
		t.Fatalf("join start sent %d hellos, want 3", hellos)
	}
	if due, _ := eng.ProposalDue(); due {
		t.Fatal("a proposal is due before the bootstrap finished")
	}
	if !eng.CatchingUp() {
		t.Fatal("joining engine does not report CatchingUp")
	}

	m := syncManifest(4, 32)
	blob := store.EncodeManifest(m)
	point := wire.SyncPoint{Epoch: 32, Hash: store.ManifestHash(blob)}
	offer := wire.SyncOffer{Points: []wire.SyncPoint{point}}
	eng.Handle(wire.Envelope{From: 1, Epoch: 1, Proposer: 0, Payload: offer})
	acts = eng.Handle(wire.Envelope{From: 2, Epoch: 1, Proposer: 0, Payload: offer})
	var pullTo = -1
	for _, s := range sends(acts) {
		if p, ok := s.Env.Payload.(wire.SyncPull); ok && p.Section == wire.SyncSectionManifest {
			pullTo = s.To
		}
	}
	if pullTo == -1 {
		t.Fatal("no manifest pull after f+1 identical offers")
	}

	acts = eng.Handle(wire.Envelope{From: pullTo, Epoch: 32, Proposer: 0,
		Payload: wire.SyncPage{Section: wire.SyncSectionManifest, Page: 0, Last: true, Data: blob}})
	var install *SyncInstallAction
	for _, a := range acts {
		if si, ok := a.(SyncInstallAction); ok {
			install = &si
		}
	}
	if install == nil || install.Epoch != 32 || len(install.Committed) != 2 {
		t.Fatalf("no valid SyncInstallAction: %+v", install)
	}
	if eng.DeliveredEpoch() != 32 || eng.DecidedThrough() != 32 || eng.PrunedThrough() != 32 {
		t.Fatalf("position not adopted: delivered=%d decided=%d pruned=%d",
			eng.DeliveredEpoch(), eng.DecidedThrough(), eng.PrunedThrough())
	}
	// The handoff: a StatusRequest broadcast for the live tail.
	status := 0
	for _, s := range sends(acts) {
		if _, ok := s.Env.Payload.(wire.StatusRequest); ok {
			status++
		}
	}
	if status != 3 {
		t.Fatalf("expected status catch-up handoff, saw %d StatusRequests", status)
	}
	if eng.SyncStats().Syncs != 1 || eng.SyncStats().LastSyncEpoch != 32 {
		t.Fatalf("sync stats wrong: %+v", eng.SyncStats())
	}
}

// TestSyncerIgnoresForgedManifest: f forged attestations cannot make a
// joiner install state — the page hash must match the f+1-attested one.
func TestSyncerIgnoresForgedManifest(t *testing.T) {
	eng, err := NewEngine(Config{N: 4, F: 1, CoinSecret: []byte("s"),
		StateSync: true, JoinSync: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	blob := store.EncodeManifest(syncManifest(4, 32))
	point := wire.SyncPoint{Epoch: 32, Hash: store.ManifestHash(blob)}
	offer := wire.SyncOffer{Points: []wire.SyncPoint{point}}
	eng.Handle(wire.Envelope{From: 1, Epoch: 1, Proposer: 0, Payload: offer})
	eng.Handle(wire.Envelope{From: 2, Epoch: 1, Proposer: 0, Payload: offer})
	// A Byzantine donor answers the pull with different (well-formed!)
	// manifest bytes claiming a much higher position.
	forged := store.EncodeManifest(syncManifest(4, 31))
	for from := 1; from <= 3; from++ {
		acts := eng.Handle(wire.Envelope{From: from, Epoch: 32, Proposer: 0,
			Payload: wire.SyncPage{Section: wire.SyncSectionManifest, Page: 0, Last: true, Data: forged}})
		for _, a := range acts {
			if _, ok := a.(SyncInstallAction); ok {
				t.Fatal("forged manifest installed")
			}
		}
	}
	if eng.DeliveredEpoch() != 0 {
		t.Fatal("forged manifest moved the engine")
	}
}

// TestTrackerCadenceDefault sanity-checks the default wiring constant.
func TestTrackerCadenceDefault(t *testing.T) {
	if (Config{}).syncPointEvery() != statesync.DefaultPointEvery {
		t.Fatal("default cadence mismatch")
	}
	if (Config{SyncPointEvery: 4}).syncPointEvery() != 4 {
		t.Fatal("override ignored")
	}
}

// TestChunkInventoryPaginationLosesNothing: every resident chunk record
// must appear on some page of the inventory stream — pages end on
// record boundaries, so the byte-skip of page k must not swallow the
// records that straddle or follow a boundary (small records after a
// large one were dropped before the residual-skip fix).
func TestChunkInventoryPaginationLosesNothing(t *testing.T) {
	eng, err := NewEngine(Config{N: 4, F: 1, CoinSecret: []byte("s"), StateSync: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Mixed sizes spanning several pages: big records to cross page
	// boundaries, small ones right after to fall into residual skips.
	var chunks []store.ChunkRecord
	for e := uint64(1); e <= 12; e++ {
		size := 20 << 10
		if e%3 == 0 {
			size = 100
		}
		chunks = append(chunks, store.ChunkRecord{
			Epoch: e, Proposer: int(e) % 4, Root: [32]byte{byte(e)},
			HasChunk: true, Data: make([]byte, size),
		})
	}
	if err := eng.Restore(nil, nil, chunks); err != nil {
		t.Fatal(err)
	}
	seen := map[[2]uint64]bool{}
	pages := 0
	for page := uint32(0); ; page++ {
		data, last := eng.chunkInventoryPage(0, page)
		pages++
		for len(data) >= 4 {
			n := int(binary.BigEndian.Uint32(data))
			data = data[4:]
			rec, err := store.DecodeChunkRecord(data[:n])
			if err != nil {
				t.Fatal(err)
			}
			data = data[n:]
			seen[[2]uint64{rec.Epoch, uint64(rec.Proposer)}] = true
		}
		if last {
			break
		}
		if page > 64 {
			t.Fatal("pagination never terminated")
		}
	}
	if pages < 3 {
		t.Fatalf("inventory fit in %d page(s); the test needs a multi-page stream", pages)
	}
	for _, c := range chunks {
		if !seen[[2]uint64{c.Epoch, uint64(c.Proposer)}] {
			t.Errorf("record (epoch %d, proposer %d) served on no page", c.Epoch, c.Proposer)
		}
	}
}
