package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"dledger/internal/core"
	"dledger/internal/replica"
	"dledger/internal/workload"
)

// TestFaultConnKillsConnections sanity-checks the wrapper itself: a
// connection with a byte budget dies after roughly that many bytes.
func TestFaultConnKillsConnections(t *testing.T) {
	fi := NewFaultInjector(7, FaultOptions{KillAfterBytes: 1 << 10})
	a, b := net.Pipe()
	defer b.Close()
	wrapped := fi.Wrap(a)
	go func() {
		buf := make([]byte, 256)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 256)
	var err error
	for i := 0; i < 64; i++ {
		if _, err = wrapped.Write(buf); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("connection survived far past its byte budget")
	}
	if fi.Cuts() != 1 {
		t.Fatalf("cuts = %d, want 1", fi.Cuts())
	}
}

// TestTCPClusterSurvivesFaultyConnections runs a real 4-node TCP mesh
// where every connection is seeded to die young and stall randomly, and
// asserts the reconnect/replay machinery still delivers every
// transaction to every node — the chaos-style regression net for the
// transport paths the emulator cannot reach (dial backoff, pending-frame
// replay, reader resynchronization).
func TestTCPClusterSurvivesFaultyConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("faulty-transport test needs a few seconds of wall clock")
	}
	const n, waves, txPerWave = 4, 5, 6
	const txPerNode = waves * txPerWave
	injectors := make([]*FaultInjector, n)
	c := newTCPCluster(t, TCPOptions{
		Core:    core.Config{N: n, F: 1, CoinSecret: []byte("faulty tcp secret")},
		Replica: replica.Params{BatchDelay: 20 * time.Millisecond},
	}, func(i int, o *TCPOptions) {
		injectors[i] = NewFaultInjector(int64(1000+i), FaultOptions{
			KillAfterBytes: 4 << 10,
			CutProbability: 0.01,
			MaxDelay:       time.Millisecond,
		})
		o.Wrap = injectors[i].Wrap
	})

	// Submit in waves so traffic keeps flowing while connections die and
	// come back — reconnects must replay mid-stream, not just at start.
	for w := 0; w < waves; w++ {
		for i, node := range c {
			for k := 0; k < txPerWave; k++ {
				node.Submit(workload.Make(i, uint32(w*txPerWave+k), 0, 200))
			}
		}
		time.Sleep(150 * time.Millisecond)
	}
	c.waitDelivered(t, 60*time.Second, n*txPerNode, "all nodes deliver all txs despite dying connections")

	cuts := 0
	for _, fi := range injectors {
		cuts += fi.Cuts()
	}
	if cuts == 0 {
		t.Fatal("no connection was ever killed — the test exercised nothing")
	}
	t.Logf("delivered %d txs per node across %d injected connection deaths", n*txPerNode, cuts)

	// A node forgets the connections it dropped: once each side has seen
	// its dead links die, it holds at most two per class and peer (one
	// dialed, one accepted), however often it reconnected.
	const limit = 4 * (n - 1)
	c.waitFor(t, 10*time.Second, func() bool {
		for _, node := range c {
			if node.trackedConns() > limit {
				return false
			}
		}
		return true
	}, fmt.Sprintf("every node tracks at most %d connections after %d reconnects", limit, cuts))
}

// trackedConns reports how many connections n holds for closing.
func (n *TCPNode) trackedConns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// handPeer is peer 1 of a hand-driven node's mesh: a listener the test
// accepts node 0's connections on, and peer 1's keyring.
type handPeer struct {
	ln   net.Listener
	keys *Keyring
}

// handDrivenNode starts node 0 of a four-node mesh whose peer 1 is
// driven by hand and whose peers 2 and 3 never come up. A lone node
// disperses its first block (one Chunk and one GotChunk to each peer)
// and then has nothing more to say.
func handDrivenNode(t *testing.T, secret string, wrap func(net.Conn) net.Conn) (*TCPNode, *handPeer) {
	t.Helper()
	const n = 4
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	listeners[2].Close()
	listeners[3].Close()
	keys := testKeys(t, n, 1)
	peer := &handPeer{ln: listeners[1], keys: keys[1]}
	t.Cleanup(func() { peer.ln.Close() })
	node, err := NewTCPNode(TCPOptions{
		Core:     core.Config{N: n, F: 1, CoinSecret: []byte(secret)},
		Replica:  replica.Params{BatchDelay: 10 * time.Millisecond},
		Self:     0,
		Addrs:    addrs,
		Listener: listeners[0],
		Keys:     keys[0],
		Wrap:     wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return node, peer
}

// accept takes node 0's next connection to the peer.
func (p *handPeer) accept(t *testing.T) net.Conn {
	t.Helper()
	p.ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
	c, err := p.ln.Accept()
	if err != nil {
		t.Fatalf("node 0 did not connect: %v", err)
	}
	return c
}

// acceptDispersal takes the next dispersal-class connection from node 0
// through the handshake, reporting `processed` frames as already seen,
// and returns it with the stream position of the first frame offered.
func acceptDispersal(t *testing.T, peer *handPeer, processed uint64) (net.Conn, uint64) {
	t.Helper()
	for {
		c := peer.accept(t)
		h, _, err := acceptHandshake(c, peer.keys, func(hello) uint64 { return processed })
		if err != nil {
			t.Fatal(err)
		}
		if h.class != classHigh {
			c.Close() // the retrieval-class link carries nothing here
			continue
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		return c, h.start
	}
}

// readFrame reads one length-prefixed frame off c.
func readFrame(t *testing.T, c net.Conn) []byte {
	t.Helper()
	var lenBuf [4]byte
	if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
		t.Fatalf("reading a frame: %v", err)
	}
	frame := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(c, frame); err != nil {
		t.Fatalf("reading a frame: %v", err)
	}
	return frame
}

// TestWriterResendsTailWhenIdleConnectionDies: frames flushed to a
// connection that dies before the receiver processed them must be
// re-sent even if the node never sends that peer another frame. Some
// protocol messages go out once (a returned chunk, to a node that will
// not ask again), so waiting for the next write to fail on the dead
// connection can wait forever.
func TestWriterResendsTailWhenIdleConnectionDies(t *testing.T) {
	_, peer := handDrivenNode(t, "idle tail secret", nil)

	// First connection: both frames arrive, and the receiver dies before
	// acking either.
	c1, first := acceptDispersal(t, peer, 0)
	if first != 1 {
		t.Fatalf("first connection offers position %d, want 1", first)
	}
	sent := [][]byte{readFrame(t, c1), readFrame(t, c1)}
	c1.Close()

	// The writer must come back by itself and offer the same frames again.
	c2, again := acceptDispersal(t, peer, 0)
	defer c2.Close()
	if again != 1 {
		t.Fatalf("second connection offers position %d, want 1 (nothing was acked)", again)
	}
	for i, want := range sent {
		if got := readFrame(t, c2); !bytes.Equal(got, want) {
			t.Fatalf("replayed frame %d differs from the one first sent", i)
		}
	}
}
