package transport

import (
	"bytes"
	"encoding/binary"
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
}

// TestWriterResendsTailWhenIdleConnectionDies: frames flushed to a
// connection that dies before the receiver processed them must be
// re-sent even if the node never sends that peer another frame. Some
// protocol messages go out once (a returned chunk, to a node that will
// not ask again), so waiting for the next write to fail on the dead
// connection can wait forever.
func TestWriterResendsTailWhenIdleConnectionDies(t *testing.T) {
	// Peer 1 is a hand-driven receiver; peers 2 and 3 never come up. A
	// lone node disperses its first block (one Chunk and one GotChunk to
	// each peer) and then has nothing more to say.
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
	peer := listeners[1]
	defer peer.Close()

	// accept takes the next dispersal-class connection from node 0 through
	// the handshake, reporting `processed` frames as already seen, and
	// returns it with the stream position of the first frame offered.
	accept := func(processed uint64) (net.Conn, uint64) {
		for {
			peer.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
			c, err := peer.Accept()
			if err != nil {
				t.Fatalf("node 0 did not connect: %v", err)
			}
			c.SetDeadline(time.Now().Add(10 * time.Second))
			var hs [7 + 16]byte
			if _, err := io.ReadFull(c, hs[:]); err != nil {
				t.Fatal(err)
			}
			if hs[6] != classHigh {
				c.Close() // the retrieval-class link carries nothing here
				continue
			}
			var ack [8]byte
			binary.BigEndian.PutUint64(ack[:], processed)
			if _, err := c.Write(ack[:]); err != nil {
				t.Fatal(err)
			}
			return c, binary.BigEndian.Uint64(hs[15:23])
		}
	}
	readFrame := func(c net.Conn) []byte {
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

	node, err := NewTCPNode(TCPOptions{
		Core:     core.Config{N: n, F: 1, CoinSecret: []byte("idle tail secret")},
		Replica:  replica.Params{BatchDelay: 10 * time.Millisecond},
		Self:     0,
		Addrs:    addrs,
		Listener: listeners[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// First connection: both frames arrive, and the receiver dies before
	// acking either.
	c1, first := accept(0)
	if first != 1 {
		t.Fatalf("first connection offers position %d, want 1", first)
	}
	sent := [][]byte{readFrame(c1), readFrame(c1)}
	c1.Close()

	// The writer must come back by itself and offer the same frames again.
	c2, again := accept(0)
	defer c2.Close()
	if again != 1 {
		t.Fatalf("second connection offers position %d, want 1 (nothing was acked)", again)
	}
	for i, want := range sent {
		if got := readFrame(c2); !bytes.Equal(got, want) {
			t.Fatalf("replayed frame %d differs from the one first sent", i)
		}
	}
}
