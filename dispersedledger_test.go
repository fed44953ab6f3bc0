package dispersedledger

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestClusterDefaults(t *testing.T) {
	c, err := NewCluster(Config{}) // zero config: N=4, F=1, DL
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.N() != 4 {
		t.Fatalf("default N = %d", c.N())
	}
}

func TestClusterErrors(t *testing.T) {
	c, err := NewCluster(Config{N: 4, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Deliveries(9); err != ErrBadNode {
		t.Fatalf("Deliveries(9) err = %v", err)
	}
	if _, err := c.Stats(-1); err != ErrBadNode {
		t.Fatalf("Stats(-1) err = %v", err)
	}
	if err := c.Submit(99, []byte("x")); err == nil {
		t.Fatal("Submit(99) accepted")
	}
}

// listeningSockets returns the inodes of this process's listening TCP
// sockets, read from /proc; the test is skipped without it.
func listeningSockets(t *testing.T) map[string]bool {
	t.Helper()
	table, err := os.ReadFile("/proc/net/tcp")
	if err != nil {
		t.Skip("no /proc/net/tcp: ", err)
	}
	listening := map[string]bool{}
	for _, line := range strings.Split(string(table), "\n")[1:] {
		if f := strings.Fields(line); len(f) > 9 && f[3] == "0A" {
			listening[f[9]] = true
		}
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd: ", err)
	}
	out := map[string]bool{}
	for _, fd := range fds {
		link, _ := os.Readlink("/proc/self/fd/" + fd.Name())
		if ino, ok := strings.CutPrefix(link, "socket:["); ok && listening[strings.TrimSuffix(ino, "]")] {
			out[link] = true
		}
	}
	return out
}

// TestFailedConstructionClosesListeners: a node owns the listener it is
// handed from the call on, so a refused NewTCPNode closes it, and a
// refused NewCluster leaves nothing bound.
func TestFailedConstructionClosesListeners(t *testing.T) {
	notAFile := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notAFile, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{N: 3, F: 1, CoinSecret: []byte("s")},                    // refused by the engine
		{N: 4, F: 1, CoinSecret: []byte("s"), DataDir: notAFile}, // the store does not open
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs := make([]string, cfg.N)
		addrs[0] = ln.Addr().String()
		if _, err := NewTCPNode(NodeOptions{Config: cfg, Addrs: addrs, Listener: ln}); err == nil {
			t.Fatalf("NewTCPNode(%+v) accepted", cfg)
		}
		if conn, err := net.Dial("tcp", addrs[0]); err == nil {
			conn.Close()
			t.Fatalf("refused NewTCPNode(%+v) left its listener open", cfg)
		}
	}

	before := listeningSockets(t)
	if _, err := NewCluster(Config{N: 3, F: 1}); err == nil {
		t.Fatal("NewCluster(N=3, F=1) accepted")
	}
	for s := range listeningSockets(t) {
		if !before[s] {
			t.Errorf("refused NewCluster left a listener bound: %s", s)
		}
	}
}

// TestClusterRejectsUnauthenticatedPeer: an in-process cluster's links
// are authenticated, so a connection that opens with the plain
// handshake of an unkeyed node (magic, id 1, dispersal class, its
// stream announcement and a first frame) is dropped, and the cluster
// keeps delivering.
func TestClusterRejectsUnauthenticatedPeer(t *testing.T) {
	c, err := NewCluster(Config{N: 4, F: 1, BatchDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, err := net.Dial("tcp", c.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := binary.BigEndian.AppendUint32(nil, 0x444C4544) // "DLED"
	hello = binary.BigEndian.AppendUint16(hello, 1)
	hello = append(hello, 0)
	hello = binary.BigEndian.AppendUint64(hello, 42) // incarnation nonce
	hello = binary.BigEndian.AppendUint64(hello, 1)  // first stream position
	hello = binary.BigEndian.AppendUint32(hello, 64)
	hello = append(hello, make([]byte, 64)...)
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("node kept an unauthenticated connection open")
		}
	}

	for i := 0; i < c.N(); i++ {
		if err := c.Submit(i, []byte(fmt.Sprintf("after the intruder %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < c.N(); i++ {
		ch, _ := c.Deliveries(i)
		deadline := time.After(30 * time.Second)
		for got := 0; got < c.N(); {
			select {
			case d := <-ch:
				got += len(d.Txs)
			case <-deadline:
				t.Fatalf("node %d delivered %d of %d transactions", i, got, c.N())
			}
		}
	}
}
