package transport

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Link setup.
//
// The paper's security model assumes authenticated point-to-point
// channels (§2.4); the consensus protocol itself is signature-free. The
// TCP backend therefore authenticates every connection at setup, in one
// exchange under one deadline: the listener sends a random challenge,
// the dialer answers with a hello — its node id, the connection's
// traffic class and its writer's replay position (incarnation nonce and
// the stream position of the first frame it will offer) — signed with
// its node's ed25519 key over the challenge and every field, and the
// listener, once the signature verifies, replies with the highest
// stream position it already processed under that nonce. Every
// subsequent frame on the connection is attributed to the signed id,
// which is exactly the channel-authentication assumption. (Confidential
// transport — TLS — can be layered on top and is out of scope, as in
// the paper's prototype.)

// Keyring holds the cluster's identity keys for one node.
type Keyring struct {
	Self    int
	Private ed25519.PrivateKey
	// Publics[i] is node i's public key.
	Publics []ed25519.PublicKey
}

// GenerateKeyring builds keyrings for an n-node cluster from a reader of
// randomness (pass crypto/rand.Reader in production; a deterministic
// reader in tests).
func GenerateKeyring(n int, random io.Reader) ([]*Keyring, error) {
	if random == nil {
		random = rand.Reader
	}
	pubs := make([]ed25519.PublicKey, n)
	privs := make([]ed25519.PrivateKey, n)
	for i := 0; i < n; i++ {
		pub, priv, err := ed25519.GenerateKey(random)
		if err != nil {
			return nil, err
		}
		pubs[i], privs[i] = pub, priv
	}
	out := make([]*Keyring, n)
	for i := 0; i < n; i++ {
		out[i] = &Keyring{Self: i, Private: privs[i], Publics: pubs}
	}
	return out, nil
}

const (
	handshakeMagic = 0x444C4544 // "DLED"
	challengeSize  = 32
	// helloFields is the signed part of a hello:
	// magic(4) | from(2) | class(1) | nonce(8) | start(8).
	helloFields = 23
	helloSize   = helloFields + ed25519.SignatureSize
	// authTimeout bounds the whole exchange on either side.
	authTimeout = 5 * time.Second
)

// ErrAuthFailed is returned when a peer's hello does not verify.
var ErrAuthFailed = errors.New("transport: peer authentication failed")

// hello is what a dialer tells the listener about its connection.
type hello struct {
	from  int
	class byte
	nonce uint64 // the writer's incarnation
	start uint64 // stream position of the first frame offered
}

// acceptHandshake runs the listener side of link setup: challenge, read
// and verify the signed hello, then write back base(hello), the replay
// base. base runs only for a hello that verified, from another node, for
// a known class. It returns the hello and the base it reported.
func acceptHandshake(conn net.Conn, keys *Keyring, base func(hello) uint64) (hello, uint64, error) {
	if err := conn.SetDeadline(time.Now().Add(authTimeout)); err != nil {
		return hello{}, 0, err
	}
	var challenge [challengeSize]byte
	if _, err := rand.Read(challenge[:]); err != nil {
		return hello{}, 0, err
	}
	if _, err := conn.Write(challenge[:]); err != nil {
		return hello{}, 0, err
	}
	var buf [helloSize]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return hello{}, 0, err
	}
	h := hello{
		from:  int(binary.BigEndian.Uint16(buf[4:6])),
		class: buf[6],
		nonce: binary.BigEndian.Uint64(buf[7:15]),
		start: binary.BigEndian.Uint64(buf[15:23]),
	}
	if binary.BigEndian.Uint32(buf[0:4]) != handshakeMagic || h.from >= len(keys.Publics) ||
		h.from == keys.Self || h.class > classLow {
		return hello{}, 0, ErrAuthFailed
	}
	if !ed25519.Verify(keys.Publics[h.from], authMessage(challenge, buf[:helloFields]), buf[helloFields:]) {
		return hello{}, 0, fmt.Errorf("%w: node %d signature invalid", ErrAuthFailed, h.from)
	}
	b := base(h)
	if _, err := conn.Write(binary.BigEndian.AppendUint64(nil, b)); err != nil {
		return hello{}, 0, err
	}
	return h, b, conn.SetDeadline(time.Time{})
}

// dialHandshake runs the dialer side: read the challenge, answer with
// the signed hello and read back the receiver's replay base.
func dialHandshake(conn net.Conn, keys *Keyring, class byte, nonce, start uint64) (uint64, error) {
	if err := conn.SetDeadline(time.Now().Add(authTimeout)); err != nil {
		return 0, err
	}
	var challenge [challengeSize]byte
	if _, err := io.ReadFull(conn, challenge[:]); err != nil {
		return 0, err
	}
	h := signedHello(keys, challenge, hello{from: keys.Self, class: class, nonce: nonce, start: start})
	if _, err := conn.Write(h[:]); err != nil {
		return 0, err
	}
	var b [8]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b[:]), conn.SetDeadline(time.Time{})
}

// signedHello encodes h and signs it against the challenge.
func signedHello(keys *Keyring, challenge [challengeSize]byte, h hello) [helloSize]byte {
	var buf [helloSize]byte
	binary.BigEndian.PutUint32(buf[0:4], handshakeMagic)
	binary.BigEndian.PutUint16(buf[4:6], uint16(h.from))
	buf[6] = h.class
	binary.BigEndian.PutUint64(buf[7:15], h.nonce)
	binary.BigEndian.PutUint64(buf[15:23], h.start)
	copy(buf[helloFields:], ed25519.Sign(keys.Private, authMessage(challenge, buf[:helloFields])))
	return buf
}

// authMessage is the byte string actually signed: the challenge and
// every hello field, with a domain prefix so the signature cannot be
// confused with any other protocol signature.
func authMessage(challenge [challengeSize]byte, fields []byte) []byte {
	msg := make([]byte, 0, 16+challengeSize+helloFields)
	msg = append(msg, "dledger-authv2:"...)
	msg = append(msg, challenge[:]...)
	return append(msg, fields...)
}
