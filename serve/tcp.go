package serve

// The binary TCP transport: length-prefixed frames (see protocol.go),
// pipelined — a client may keep many requests in flight per connection,
// correlated by request id. The per-connection window is enforced here:
// a request arriving with Window requests already outstanding is
// answered WireShed immediately, the engine never sees it. Replies are
// written as invocations complete, so they can arrive out of order
// relative to requests; ids are the correlation.

import (
	"bufio"
	"errors"
	"net"
	"sync"
)

// connState is one live binary connection.
type connState struct {
	conn net.Conn
	wmu  sync.Mutex // serializes reply frames
	once sync.Once
}

func (c *connState) close() { c.once.Do(func() { c.conn.Close() }) }

// writeReply frames one reply; write errors just poison the connection —
// the reader loop notices on its next read.
func (c *connState) writeReply(id uint64, rep InvokeReply) {
	buf := make([]byte, 0, 17)
	buf = AppendReply(buf, id, rep.Outcome, rep.Elapsed)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	WriteFrame(c.conn, buf)
}

// window is a counting semaphore bounding a binary connection's
// inflight requests.
type window struct{ sem chan struct{} }

func newWindow(n int) *window { return &window{sem: make(chan struct{}, n)} }

func (w *window) tryAcquire() bool {
	select {
	case w.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (w *window) release() { <-w.sem }

func (s *Server) startTCP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.tcpLn = ln
	s.connWG.Add(1)
	go s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.connWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed: draining
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		c := &connState{conn: conn}
		s.conns.Store(c, struct{}{})
		s.connWG.Add(1)
		go s.serveConn(c)
	}
}

// serveConn is one connection's reader loop: decode frames, enforce the
// inflight window, dispatch admitted requests onto their own goroutine
// (session.Invoke blocks until the engine answers), and frame replies.
func (s *Server) serveConn(c *connState) {
	defer s.connWG.Done()
	defer s.conns.Delete(c)
	defer c.close()
	win := newWindow(s.window)
	r := bufio.NewReaderSize(c.conn, 32*1024)
	var buf []byte
	for {
		payload, grown, err := ReadFrame(r, buf)
		if err != nil {
			return // EOF, connection reset, or an unframeable stream
		}
		buf = grown
		id, req, err := ParseRequest(payload)
		if err != nil {
			if errors.Is(err, errShortHeader) {
				return // cannot even correlate a reply; drop the conn
			}
			c.writeReply(id, InvokeReply{Outcome: WireRejected, Err: err.Error()})
			continue
		}
		if !win.tryAcquire() {
			// Wire-level backpressure: the window is the client's credit;
			// exceeding it is shed before the engine is touched.
			s.session.NoteShed(1)
			c.writeReply(id, InvokeReply{Outcome: WireShed})
			continue
		}
		s.admit.RLock()
		if s.draining.Load() {
			s.admit.RUnlock()
			win.release()
			c.writeReply(id, InvokeReply{Outcome: WireClosed})
			continue
		}
		s.inflight.Add(1)
		s.admit.RUnlock()
		go func(id uint64, req InvokeRequest) {
			defer s.inflight.Done()
			defer win.release()
			c.writeReply(id, s.invoke(req))
		}(id, req)
	}
}
