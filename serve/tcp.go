package serve

// The binary TCP transport: length-prefixed frames (see protocol.go),
// pipelined and correlated by request id. A connection is two goroutines
// whatever its load. The reader submits each frame straight into the
// session; the serving worker, once the transaction has finished (its
// record durable, with a log), frames the reply into the connection's
// output buffer, and the writer sends everything pending with one Write,
// in completion order. The reader stops reading while maxUnanswered
// requests are unanswered or unflushed, so TCP flow control holds back a
// client that floods or stops reading: nothing is shed at the wire.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"

	"abyss1000/abyss"
)

const (
	// maxUnanswered bounds a connection's requests read but not yet
	// answered on the wire.
	maxUnanswered = 64

	// flushGrace bounds how long Shutdown lets a client that has stopped
	// reading hold up its connection's last replies.
	flushGrace = 2 * time.Second
)

// connState is one live binary connection.
type connState struct {
	conn net.Conn

	mu         sync.Mutex
	credit     sync.Cond // the reader waits here for unanswered to fall
	ready      sync.Cond // the writer waits here for replies or dead
	out        []byte    // framed replies for the writer's next Write
	unanswered int       // requests read whose replies are not yet written
	dead       bool      // the connection is ending; later replies are dropped
}

// admit counts a request just read, first waiting while maxUnanswered
// are outstanding; false means a Write has failed.
func (c *connState) admit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.unanswered >= maxUnanswered && !c.dead {
		c.credit.Wait()
	}
	c.unanswered++
	return !c.dead
}

// reply frames one reply for the writer. Engine workers call it, so it
// never touches the network.
func (c *connState) reply(id uint64, rep InvokeReply) {
	c.mu.Lock()
	if !c.dead {
		c.out = AppendReply(binary.BigEndian.AppendUint32(c.out, replyLen), id, rep.Outcome, rep.Elapsed)
		c.ready.Signal()
	}
	c.mu.Unlock()
}

func (s *Server) startTCP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.tcpLn = ln
	s.accepting = make(chan struct{})
	go func() {
		defer close(s.accepting)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: draining
			}
			s.serveConn(conn)
		}
	}()
	return nil
}

// serveConn starts a connection's reader and writer.
func (s *Server) serveConn(conn net.Conn) {
	c := &connState{conn: conn}
	c.credit.L, c.ready.L = &c.mu, &c.mu
	s.conns.Store(c, struct{}{})
	s.connWG.Add(2)
	go s.readLoop(c)
	go s.writeLoop(c)
}

// readLoop decodes frames and submits each request. EOF, a read
// deadline, a frame too short to carry an id, or an unframeable stream
// ends it; it then waits for every reply to be written and closes the
// connection.
func (s *Server) readLoop(c *connState) {
	defer s.connWG.Done()
	defer func() {
		c.mu.Lock()
		for c.unanswered > 0 && !c.dead {
			c.credit.Wait()
		}
		c.dead = true
		c.ready.Signal()
		c.mu.Unlock()
		c.conn.Close()
		s.conns.Delete(c)
	}()
	r := bufio.NewReaderSize(c.conn, 32*1024)
	var buf []byte
	for {
		payload, grown, err := ReadFrame(r, buf)
		if err != nil {
			return
		}
		buf = grown
		id, req, err := ParseRequest(payload)
		if errors.Is(err, errShortHeader) || !c.admit() {
			return
		}
		var inv abyss.Invocation
		if err == nil {
			inv, err = invocation(req)
		}
		if err == nil {
			err = s.session.Submit(inv, func(elapsed time.Duration, err error) {
				c.reply(id, reply(elapsed, err))
			})
		}
		if err != nil {
			c.reply(id, reply(0, err))
		}
	}
}

// writeLoop sends everything framed since its last Write in one Write,
// until the connection is dead or a Write fails.
func (s *Server) writeLoop(c *connState) {
	defer s.connWG.Done()
	var buf []byte
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.out) == 0 && !c.dead {
			c.ready.Wait()
		}
		if c.dead {
			return
		}
		buf, c.out = c.out, buf[:0] // two buffers, swapped each round
		c.mu.Unlock()
		_, err := c.conn.Write(buf)
		c.mu.Lock()
		c.unanswered -= len(buf) / (4 + replyLen) // out holds only replies
		c.dead = err != nil
		c.credit.Signal()
	}
}
