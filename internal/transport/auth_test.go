package transport

import (
	"crypto/ed25519"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/replica"
	"dledger/internal/workload"
)

// detRand is a deterministic io.Reader for reproducible key generation.
type detRand struct{ rng *rand.Rand }

func (d *detRand) Read(p []byte) (int, error) { return d.rng.Read(p) }

func TestGenerateKeyring(t *testing.T) {
	keys, err := GenerateKeyring(4, &detRand{rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Fatalf("got %d keyrings", len(keys))
	}
	for i, k := range keys {
		if k.Self != i {
			t.Fatalf("keyring %d has Self=%d", i, k.Self)
		}
		// Each node's private key matches the shared public key list.
		msg := []byte("check")
		sig := ed25519.Sign(k.Private, msg)
		if !ed25519.Verify(keys[0].Publics[i], msg, sig) {
			t.Fatalf("keyring %d key mismatch", i)
		}
	}
}

func TestAuthHandshakeSuccess(t *testing.T) {
	keys, _ := GenerateKeyring(4, &detRand{rand.New(rand.NewSource(2))})
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	type result struct {
		from  int
		class byte
		err   error
	}
	done := make(chan result, 1)
	go func() {
		from, class, err := authAccept(server, keys[0])
		done <- result{from, class, err}
	}()
	if err := authDial(client, keys[2], classLow); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.from != 2 || r.class != classLow {
		t.Fatalf("authenticated as (%d, %d), want (2, %d)", r.from, r.class, classLow)
	}
}

func TestAuthHandshakeRejectsImpersonation(t *testing.T) {
	keys, _ := GenerateKeyring(4, &detRand{rand.New(rand.NewSource(3))})
	// Node 3 tries to authenticate as node 1 using its own key.
	evil := &Keyring{Self: 1, Private: keys[3].Private, Publics: keys[3].Publics}

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	errCh := make(chan error, 1)
	go func() {
		_, _, err := authAccept(server, keys[0])
		errCh <- err
	}()
	authDial(client, evil, classHigh)
	if err := <-errCh; err == nil {
		t.Fatal("impersonation accepted")
	}
}

func TestAuthHandshakeRejectsGarbage(t *testing.T) {
	keys, _ := GenerateKeyring(4, &detRand{rand.New(rand.NewSource(4))})
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	errCh := make(chan error, 1)
	go func() {
		_, _, err := authAccept(server, keys[0])
		errCh <- err
	}()
	// Consume the challenge, reply with junk of the right size.
	go func() {
		var ch [challengeSize]byte
		io.ReadFull(client, ch[:])
		junk := make([]byte, 7+ed25519.SignatureSize)
		binary.BigEndian.PutUint32(junk[0:4], handshakeMagic)
		client.Write(junk)
	}()
	if err := <-errCh; err == nil {
		t.Fatal("garbage handshake accepted")
	}
}

func TestAuthReplayFails(t *testing.T) {
	// A recorded handshake answer must not authenticate against a fresh
	// challenge (each challenge is random).
	keys, _ := GenerateKeyring(4, &detRand{rand.New(rand.NewSource(5))})

	// First, capture a legitimate exchange.
	c1, s1 := net.Pipe()
	var recorded []byte
	go func() {
		var ch [challengeSize]byte
		io.ReadFull(c1, ch[:])
		// Sign honestly for this challenge...
		var buf [7 + ed25519.SignatureSize]byte
		binary.BigEndian.PutUint32(buf[0:4], handshakeMagic)
		binary.BigEndian.PutUint16(buf[4:6], 2)
		buf[6] = classHigh
		copy(buf[7:], ed25519.Sign(keys[2].Private, authMessage(ch, 2, classHigh)))
		recorded = append([]byte(nil), buf[:]...)
		c1.Write(buf[:])
	}()
	if _, _, err := authAccept(s1, keys[0]); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	s1.Close()

	// Replay the recorded bytes against a new challenge.
	c2, s2 := net.Pipe()
	defer c2.Close()
	defer s2.Close()
	errCh := make(chan error, 1)
	go func() {
		_, _, err := authAccept(s2, keys[0])
		errCh <- err
	}()
	go func() {
		var ch [challengeSize]byte
		io.ReadFull(c2, ch[:])
		c2.Write(recorded)
	}()
	if err := <-errCh; err == nil {
		t.Fatal("replayed handshake accepted")
	}
}

func TestTCPClusterWithAuth(t *testing.T) {
	keys, err := GenerateKeyring(4, &detRand{rand.New(rand.NewSource(6))})
	if err != nil {
		t.Fatal(err)
	}
	c := newTCPCluster(t, TCPOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeDL, CoinSecret: []byte("auth tcp secret")},
		Replica: replica.Params{BatchDelay: 20 * time.Millisecond},
	}, func(i int, o *TCPOptions) { o.Keys = keys[i] })
	for i, node := range c {
		node.Submit(workload.Make(i, 1, 0, 100))
	}
	c.waitDelivered(t, 30*time.Second, 4, "authenticated TCP cluster delivers")
}

func TestTCPKeyringValidation(t *testing.T) {
	keys, _ := GenerateKeyring(4, &detRand{rand.New(rand.NewSource(7))})
	if _, err := NewTCPNode(TCPOptions{
		Core:  core.Config{N: 4, F: 1, CoinSecret: []byte("s")},
		Self:  0,
		Addrs: []string{"127.0.0.1:0", "x", "y", "z"},
		Keys:  keys[1], // wrong Self
	}); err == nil {
		t.Fatal("mismatched keyring accepted")
	}
}
