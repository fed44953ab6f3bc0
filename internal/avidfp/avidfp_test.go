package avidfp

import (
	"crypto/sha256"
	"math/rand"
	"testing"
)

func TestDispersalCompletes(t *testing.T) {
	p, err := NewParams(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(block)
	recv, err := DispersalCost(p, block)
	if err != nil {
		t.Fatal(err)
	}
	if len(recv) != 4 {
		t.Fatalf("got %d cost entries", len(recv))
	}
	for i, r := range recv {
		if r <= 0 {
			t.Fatalf("server %d downloaded %d bytes", i, r)
		}
	}
}

func TestCrossChecksumSize(t *testing.T) {
	// §2.2: the cross-checksum is Nλ + (N−2f)γ bytes.
	p, _ := NewParams(16, 5)
	frags, err := Disperse(p, make([]byte, 1000))
	if err != nil {
		t.Fatal(err)
	}
	want := 16*Lambda + 6*Gamma
	if got := frags[0].CCS.Size(); got != want {
		t.Fatalf("CCS size %d, want %d", got, want)
	}
}

func TestPerNodeOverheadQuadratic(t *testing.T) {
	// The per-node dispersal cost of AVID-FP grows ~quadratically with N
	// at fixed block size: each of Θ(N) received messages carries a Θ(N)
	// checksum. Verify cost(N=32) is much more than 2x cost(N=16).
	block := make([]byte, 100<<10)
	rand.New(rand.NewSource(2)).Read(block)
	cost := func(n, f int) int64 {
		p, err := NewParams(n, f)
		if err != nil {
			t.Fatal(err)
		}
		recv, err := DispersalCost(p, block)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, r := range recv {
			total += r
		}
		return total / int64(n)
	}
	c16 := cost(16, 5)
	c32 := cost(32, 10)
	if c32 < c16*2 {
		t.Fatalf("expected superlinear per-node cost growth: N=16 %d, N=32 %d", c16, c32)
	}
}

func TestFig2Shape(t *testing.T) {
	// At N=128, |B|=100 KB, AVID-FP per-node dispersal download must
	// exceed the full block size (the paper's headline: >1x at N>40 for
	// 100 KB blocks).
	p, err := NewParams(127, 42)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, 100<<10)
	rand.New(rand.NewSource(3)).Read(block)
	recv, err := DispersalCost(p, block)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range recv {
		total += r
	}
	perNode := total / int64(p.N)
	if perNode < int64(len(block)) {
		t.Fatalf("AVID-FP per-node cost %d should exceed block size %d at N=127", perNode, len(block))
	}
}

func TestFragmentVerification(t *testing.T) {
	p, _ := NewParams(4, 1)
	frags, _ := Disperse(p, []byte("verify me"))
	s := NewServer(p, 0)

	// Wrong index.
	outs, _ := s.Handle(-2, Fragment{Index: 1, Frag: frags[1].Frag, CCS: frags[1].CCS})
	if len(outs) != 0 {
		t.Fatal("accepted fragment for wrong index")
	}
	// Tampered fragment.
	bad := append([]byte(nil), frags[0].Frag...)
	bad[0] ^= 1
	outs, _ = s.Handle(-2, Fragment{Index: 0, Frag: bad, CCS: frags[0].CCS})
	if len(outs) != 0 {
		t.Fatal("accepted tampered fragment")
	}
	// Valid fragment echoes.
	outs, _ = s.Handle(-2, frags[0])
	if len(outs) != 1 {
		t.Fatal("valid fragment did not trigger Echo")
	}
}

func TestEquivocationDoesNotComplete(t *testing.T) {
	// Ready messages for two different checksums must not be pooled.
	p, _ := NewParams(4, 1)
	s := NewServer(p, 0)
	mk := func(seed byte) CrossChecksum {
		c := CrossChecksum{Hashes: make([][Lambda]byte, 4), Fingerprints: make([][Gamma]byte, 2)}
		c.Hashes[0] = sha256.Sum256([]byte{seed})
		return c
	}
	s.Handle(1, Ready{CCS: mk(1)})
	s.Handle(2, Ready{CCS: mk(2)})
	s.Handle(3, Ready{CCS: mk(3)})
	if s.Completed() {
		t.Fatal("completed from Readies over different checksums")
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := NewParams(3, 1); err == nil {
		t.Fatal("NewParams(3,1) should fail")
	}
}

func TestErrNotCompletedNamesServer(t *testing.T) {
	if got, want := errNotCompleted(3).Error(), "avidfp: server 3 did not complete dispersal"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}
