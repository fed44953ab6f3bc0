package gateway

import (
	"bufio"
	"io"
	"net"
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
