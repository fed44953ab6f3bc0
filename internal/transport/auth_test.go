package transport

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
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

// testKeys is a deterministic keyring set for an n-node cluster.
func testKeys(t *testing.T, n int, seed int64) []*Keyring {
	t.Helper()
	keys, err := GenerateKeyring(n, &detRand{rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestGenerateKeyring(t *testing.T) {
	keys := testKeys(t, 4, 1)
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

// accepted is what acceptHandshake returned, and whether it asked for a
// replay base.
type accepted struct {
	h        hello
	base     uint64
	err      error
	baseRuns int
}

// acceptOn runs the listener's handshake on server as node keys.Self,
// reporting replay base 7.
func acceptOn(server net.Conn, keys *Keyring) <-chan accepted {
	done := make(chan accepted, 1)
	go func() {
		var a accepted
		a.h, a.base, a.err = acceptHandshake(server, keys, func(hello) uint64 {
			a.baseRuns++
			return 7
		})
		done <- a
	}()
	return done
}

// answerWith plays the dialer: it reads the challenge off client,
// writes what reply makes of it and drains whatever comes back.
func answerWith(client net.Conn, reply func(challenge [challengeSize]byte) []byte) {
	go func() {
		var ch [challengeSize]byte
		if _, err := io.ReadFull(client, ch[:]); err == nil {
			client.Write(reply(ch))
			io.Copy(io.Discard, client)
		}
	}()
}

func TestAuthHandshakeSuccess(t *testing.T) {
	keys := testKeys(t, 4, 2)
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	done := acceptOn(server, keys[0])
	base, err := dialHandshake(client, keys[2], classLow, 0xfeed, 42)
	if err != nil {
		t.Fatal(err)
	}
	a := <-done
	if a.err != nil {
		t.Fatal(a.err)
	}
	want := hello{from: 2, class: classLow, nonce: 0xfeed, start: 42}
	if a.h != want || a.baseRuns != 1 || a.base != 7 || base != 7 {
		t.Fatalf("accepted %+v (base %d, %d base calls), dialer read base %d; want %+v and base 7 once",
			a.h, a.base, a.baseRuns, base, want)
	}
}

func TestAuthHandshakeRejectsImpersonation(t *testing.T) {
	keys := testKeys(t, 4, 3)
	// Node 3 tries to authenticate as node 1 using its own key.
	evil := &Keyring{Self: 1, Private: keys[3].Private, Publics: keys[3].Publics}

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	done := acceptOn(server, keys[0])
	go dialHandshake(client, evil, classHigh, 1, 1)
	if a := <-done; a.err == nil || a.baseRuns != 0 {
		t.Fatalf("impersonation: err %v, %d base calls", a.err, a.baseRuns)
	}
}

func TestAuthHandshakeRejectsGarbage(t *testing.T) {
	keys := testKeys(t, 4, 4)
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	done := acceptOn(server, keys[0])
	// Consume the challenge, reply with junk of the right size.
	answerWith(client, func([challengeSize]byte) []byte {
		junk := make([]byte, helloSize)
		binary.BigEndian.PutUint32(junk[0:4], handshakeMagic)
		binary.BigEndian.PutUint16(junk[4:6], 1)
		return junk
	})
	if a := <-done; a.err == nil || a.baseRuns != 0 {
		t.Fatalf("garbage hello: err %v, %d base calls", a.err, a.baseRuns)
	}
}

func TestAuthReplayFails(t *testing.T) {
	// A recorded hello must not authenticate against a fresh challenge
	// (each challenge is random).
	keys := testKeys(t, 4, 5)

	// First, capture a legitimate exchange.
	c1, s1 := net.Pipe()
	done := acceptOn(s1, keys[0])
	recorded := make(chan []byte, 1)
	answerWith(c1, func(ch [challengeSize]byte) []byte {
		h := signedHello(keys[2], ch, hello{from: 2, class: classHigh, nonce: 9, start: 1})
		recorded <- h[:]
		return h[:]
	})
	if a := <-done; a.err != nil {
		t.Fatal(a.err)
	}
	c1.Close()
	s1.Close()

	// Replay the recorded bytes against a new challenge.
	c2, s2 := net.Pipe()
	defer c2.Close()
	defer s2.Close()
	done = acceptOn(s2, keys[0])
	rec := <-recorded
	answerWith(c2, func([challengeSize]byte) []byte { return rec })
	if a := <-done; a.err == nil || a.baseRuns != 0 {
		t.Fatalf("replayed hello: err %v, %d base calls", a.err, a.baseRuns)
	}
}

// TestHandshakeSignsReplayPosition: a valid hello whose nonce or start
// position is altered in flight no longer verifies, so a man in the
// middle cannot move a writer's replay position.
func TestHandshakeSignsReplayPosition(t *testing.T) {
	keys := testKeys(t, 4, 8)
	for _, field := range []struct {
		name string
		at   int
	}{{"nonce", 7}, {"start", 15}} {
		client, server := net.Pipe()
		done := acceptOn(server, keys[0])
		answerWith(client, func(ch [challengeSize]byte) []byte {
			h := signedHello(keys[2], ch, hello{from: 2, class: classHigh, nonce: 9, start: 100})
			h[field.at] ^= 1
			return h[:]
		})
		a := <-done
		if !errors.Is(a.err, ErrAuthFailed) || a.baseRuns != 0 {
			t.Errorf("hello with altered %s: err %v, %d base calls", field.name, a.err, a.baseRuns)
		}
		client.Close()
		server.Close()
	}
}

func TestTCPClusterWithAuth(t *testing.T) {
	keys := testKeys(t, 4, 6)
	c := newTCPCluster(t, TCPOptions{
		Core:    core.Config{N: 4, F: 1, Mode: core.ModeDL, CoinSecret: []byte("auth tcp secret")},
		Replica: replica.Params{BatchDelay: 20 * time.Millisecond},
	}, func(i int, o *TCPOptions) { o.Keys = keys[i] })
	for i, node := range c {
		node.Submit(workload.Make(i, 1, 0, 100))
	}
	c.waitDelivered(t, 30*time.Second, 4, "authenticated TCP cluster delivers")
}

// TestTCPKeyringValidation: a node without a keyring, or with one for
// another slot or cluster size, is refused and closes its listener.
func TestTCPKeyringValidation(t *testing.T) {
	keys := testKeys(t, 4, 7)
	for i, k := range []*Keyring{nil, keys[1], testKeys(t, 5, 7)[0]} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		if _, err := NewTCPNode(TCPOptions{
			Core:     core.Config{N: 4, F: 1, CoinSecret: []byte("s")},
			Self:     0,
			Addrs:    []string{addr, "x", "y", "z"},
			Listener: ln,
			Keys:     k,
		}); err == nil {
			t.Fatalf("keyring case %d accepted", i)
		}
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			t.Fatalf("node refused in keyring case %d left its listener open", i)
		}
	}
}

// TestHandshakeDropsSilentDialers: connections that never complete the
// hello — silent, or stopping halfway — are dropped within authTimeout,
// and the node forgets them.
func TestHandshakeDropsSilentDialers(t *testing.T) {
	t.Parallel()
	node, peer := handDrivenNode(t, "silent dialer secret", nil)
	peer.ln.Close() // no peer is up: node 0 tracks no connection of its own
	waitConns := func(want int, within time.Duration, what string) {
		t.Helper()
		deadline := time.Now().Add(within)
		for node.trackedConns() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: node 0 tracks %d connections, want %d", what, node.trackedConns(), want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitConns(0, 10*time.Second, "before the dials")

	const silent = 8
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i <= silent; i++ {
		c, err := net.Dial("tcp", node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	half := conns[silent]
	var ch [challengeSize]byte
	if _, err := io.ReadFull(half, ch[:]); err != nil {
		t.Fatal(err)
	}
	h := signedHello(peer.keys, ch, hello{from: 1, class: classHigh, nonce: 1, start: 1})
	if _, err := half.Write(h[:helloSize/2]); err != nil {
		t.Fatal(err)
	}
	waitConns(silent+1, 5*time.Second, "after the dials")
	waitConns(0, authTimeout+2*time.Second, "after authTimeout")
}

// TestHandshakeStalledListenerRedials: a listener that sends its
// challenge, takes the hello and then never answers makes the writer
// give up on that connection once authTimeout passes and dial again.
func TestHandshakeStalledListenerRedials(t *testing.T) {
	t.Parallel()
	_, peer := handDrivenNode(t, "stalled listener secret", nil)
	// nextHigh takes node 0's next dispersal-class connection up to its
	// hello and leaves it there.
	nextHigh := func() net.Conn {
		for {
			c := peer.accept(t)
			var buf [helloSize]byte
			_, err := c.Write(make([]byte, challengeSize))
			if err == nil {
				_, err = io.ReadFull(c, buf[:])
			}
			if err == nil && buf[6] == classHigh {
				return c
			}
			c.Close()
		}
	}
	stalled := nextHigh()
	defer stalled.Close()
	at := time.Now()
	again := nextHigh()
	defer again.Close()
	if waited := time.Since(at); waited < authTimeout-time.Second || waited > authTimeout+3*time.Second {
		t.Fatalf("the writer redialed %v after its hello, want about authTimeout (%v)", waited, authTimeout)
	}
	stalled.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := stalled.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the stalled connection reads %v, want EOF: the writer must close it", err)
	}
}
