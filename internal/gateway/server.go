package gateway

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"
)

// helloTimeout bounds how long an accepted connection may take to send
// its Hello; an established session has no read deadline.
const helloTimeout = 5 * time.Second

// Server is the TCP frontend of a Hub: it accepts client connections,
// runs the handshake, feeds submissions through the hub and streams
// receipts and commit proofs back.
type Server struct {
	hub *Hub
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts a server for hub on addr (port 0 picks a free port; the
// chosen address is available from Addr).
func Serve(hub *Hub, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewServer(hub, ln), nil
}

// NewServer starts a server on a pre-bound listener.
func NewServer(hub *Hub, ln net.Listener) *Server {
	s := &Server{hub: hub, ln: ln, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and every client connection.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// clientConn serializes frame writes from the reader (receipts) and the
// commit pump.
type clientConn struct {
	mu sync.Mutex
	bw *bufio.Writer
	c  net.Conn
}

func (cc *clientConn) send(body []byte) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return WriteFrame(cc.bw, body)
}

// WriteFrame writes one length-prefixed frame body to bw and flushes,
// refusing a body the peer's ReadFrame would reject. Shared with package
// dlclient.
func WriteFrame(bw *bufio.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return ErrFrameTooBig
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(body)))
	if _, err := bw.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := bw.Write(body); err != nil {
		return err
	}
	return bw.Flush()
}

// frameChunk is the most ReadFrame allocates before a frame's bytes
// arrive; a longer frame's buffer doubles as it fills, so a peer must
// send half of the memory it makes the reader hold.
const frameChunk = 64 << 10

// ReadFrame reads one length-prefixed frame body from r, enforcing the
// frame cap. Shared with package dlclient.
func ReadFrame(br *bufio.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return nil, err
	}
	size := int(binary.BigEndian.Uint32(lenBuf[:]))
	if size == 0 || size > MaxFrame {
		return nil, ErrFrameTooBig
	}
	buf := make([]byte, min(size, frameChunk))
	for off := 0; ; {
		if _, err := io.ReadFull(br, buf[off:]); err != nil {
			if err == io.EOF && off > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(buf) == size {
			return buf, nil
		}
		off = len(buf)
		buf = append(buf, make([]byte, min(size-off, off))...)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()

	br := bufio.NewReaderSize(conn, 64<<10)

	// Handshake: Hello then Welcome. A connection that sends no Hello
	// within helloTimeout is dropped rather than holding its goroutine
	// and buffers until shutdown; it gets a write buffer only after.
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	body, err := ReadFrame(br)
	if err != nil {
		return
	}
	msg, err := DecodeMessage(body)
	if err != nil || msg.Type != MTHello {
		return
	}
	cc := &clientConn{bw: bufio.NewWriterSize(conn, 64<<10), c: conn}
	id := ClientID(msg.Hello.Name)
	if cc.send(EncodeWelcome(Welcome{
		ClientID: id, N: s.hub.N(), F: s.hub.F(), MaxTxBytes: maxTxBytes,
	})) != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})

	// Commit stream: a subscription pumped by its own goroutine, so a
	// burst of commits never stalls the submission path (and vice versa).
	var sub *Sub
	var pumpDone chan struct{}
	if msg.Hello.Subscribe {
		sub = s.hub.Subscribe(id, 4096)
		pumpDone = make(chan struct{})
		go func() {
			defer close(pumpDone)
			for c := range sub.C {
				if cc.send(EncodeCommit(c)) != nil {
					conn.Close() // surface the write error to the reader
					return
				}
			}
		}()
		defer func() {
			s.hub.Unsubscribe(sub) // closes sub.C, stopping the pump
			<-pumpDone
		}()
	}

	for {
		body, err := ReadFrame(br)
		if err != nil {
			return
		}
		msg, err := DecodeMessage(body)
		if err != nil {
			return
		}
		switch msg.Type {
		case MTSubmit:
			rc := s.hub.Submit(id, msg.Submit.ReqID, msg.Submit.Tx)
			if cc.send(EncodeReceipt(rc)) != nil {
				return
			}
		case MTPing:
			if cc.send(EncodePong(*msg.Ping)) != nil {
				return
			}
		default:
			return // clients must not send server-side frames
		}
	}
}
