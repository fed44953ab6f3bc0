package gateway

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"dledger/internal/replica"
)

// serveStub starts a Server on a loopback port in front of a stub hub.
func serveStub(t *testing.T) *Server {
	t.Helper()
	hub := NewHub(newStub(t, replica.Params{ClientDedup: true}), Options{N: 4, F: 1})
	s, err := Serve(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// tracked reports how many connections the server still holds.
func (s *Server) tracked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// TestServerDropsSilentConnection: a connection that never sends its
// Hello is closed once helloTimeout passes, and its handler goroutine
// exits instead of holding its buffers until shutdown.
func TestServerDropsSilentConnection(t *testing.T) {
	t.Parallel()
	s := serveStub(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	conn.SetReadDeadline(start.Add(helloTimeout + 3*time.Second))
	_, err = conn.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("silent connection still open %v after accept (hello timeout %v)", time.Since(start), helloTimeout)
	}
	if err != io.EOF {
		t.Fatalf("read on a dropped connection: %v, want EOF", err)
	}
	if d := time.Since(start); d < helloTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the %v hello timeout", d, helloTimeout)
	}
	for deadline := time.Now().Add(2 * time.Second); s.tracked() > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("handler still tracks the dropped connection")
		}
	}
}

// TestServerSessionOutlivesHelloTimeout: the Hello deadline is cleared
// once the handshake completes, so an idle session stays up past it.
func TestServerSessionOutlivesHelloTimeout(t *testing.T) {
	t.Parallel()
	s := serveStub(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	if err := WriteFrame(bw, EncodeHello(Hello{Name: []byte("idle")})); err != nil {
		t.Fatal(err)
	}
	if body, err := ReadFrame(br); err != nil {
		t.Fatal(err)
	} else if m, err := DecodeMessage(body); err != nil || m.Type != MTWelcome {
		t.Fatalf("handshake answer %+v, %v; want a Welcome", m, err)
	}
	time.Sleep(helloTimeout + time.Second)
	if err := WriteFrame(bw, EncodePing(Ping{Nonce: 7})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := ReadFrame(br)
	if err != nil {
		t.Fatalf("idle session closed after the hello timeout: %v", err)
	}
	if m, err := DecodeMessage(body); err != nil || m.Type != MTPong || m.Ping.Nonce != 7 {
		t.Fatalf("ping answer %+v, %v; want Pong 7", m, err)
	}
}

// TestReadFrameGrowsWithArrivingBytes: frames on both sides of
// frameChunk round-trip whole, and a frame cut short mid-body is an
// unexpected EOF, not a short frame.
func TestReadFrameGrowsWithArrivingBytes(t *testing.T) {
	for _, size := range []int{1, frameChunk, frameChunk + 1, 3*frameChunk + 7, MaxFrame} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i * 7)
		}
		var wire bytes.Buffer
		if err := WriteFrame(bufio.NewWriter(&wire), body); err != nil {
			t.Fatal(err)
		}
		raw := wire.Bytes()
		got, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw)))
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("size %d: read %d bytes, %v; want the frame back", size, len(got), err)
		}
		for _, cut := range []int{4 + size/2, len(raw) - 1} {
			if cut <= 4 {
				continue
			}
			if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw[:cut]))); err != io.ErrUnexpectedEOF {
				t.Fatalf("size %d cut at %d: %v, want unexpected EOF", size, cut, err)
			}
		}
	}
}

// TestServerBoundsHeaderOnlyFrames: connections that send only a frame
// header claiming MaxFrame and then stall cost the server its read
// buffer and one frameChunk each, not MaxFrame each.
func TestServerBoundsHeaderOnlyFrames(t *testing.T) {
	const conns = 100
	s := serveStub(t)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); s.tracked() < conns; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server tracks %d of %d connections", s.tracked(), conns)
		}
	}
	time.Sleep(300 * time.Millisecond) // every handler reads its header
	grew := int64(heap()) - int64(before)
	t.Logf("%d header-only connections: heap %.1f MB -> +%.1f MB", conns, float64(before)/(1<<20), float64(grew)/(1<<20))
	if grew >= 16<<20 {
		t.Fatalf("%d header-only connections grew the heap by %.1f MB, want < 16 MB", conns, float64(grew)/(1<<20))
	}
}
