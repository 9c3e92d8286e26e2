// Package client is the Go client for an abyss-serve front door: single
// pipelined binary-protocol connections (DialBinary), and an open-loop
// remote load generator (Run) that offers Poisson/MMPP arrivals over the
// wire and reports offered-vs-goodput with wire-latency histograms.
package client

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"abyss1000/serve"
)

// Conn is one client connection to a server. Invoke blocks until the
// reply arrives; a connection multiplexes, so many goroutines may Invoke
// concurrently on one Conn.
type Conn interface {
	// Invoke sends one request and waits for its reply. The error is
	// transport-level only — backpressure outcomes (shed, closed,
	// rejected) come back in the reply.
	Invoke(req serve.InvokeRequest) (serve.InvokeReply, error)

	// Close releases the connection; pending invocations fail.
	Close() error
}

// binConn is one pipelined binary connection: requests carry ids, a
// single reader goroutine demultiplexes replies to their waiters.
type binConn struct {
	conn   net.Conn
	wmu    sync.Mutex // serializes request frames and guards wbuf
	wbuf   []byte     // the request being written, framed whole
	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan serve.InvokeReply
	readErr error
	closed  bool
	done    chan struct{}
}

// DialBinary opens one binary-protocol connection.
func DialBinary(addr string) (Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newBinConn(conn), nil
}

func newBinConn(conn net.Conn) *binConn {
	c := &binConn{
		conn:    conn,
		pending: make(map[uint64]chan serve.InvokeReply),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// readLoop demultiplexes reply frames until the connection dies, then
// fails every waiter.
func (c *binConn) readLoop() {
	r := bufio.NewReaderSize(c.conn, 32*1024)
	var buf []byte
	for {
		payload, grown, err := serve.ReadFrame(r, buf)
		if err != nil {
			c.fail(err)
			return
		}
		buf = grown
		id, rep, err := serve.ParseReply(payload)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- rep // buffered; never blocks
		}
	}
}

// fail poisons the connection: records the first error and wakes every
// pending Invoke.
func (c *binConn) fail(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		if c.closed {
			c.readErr = fmt.Errorf("client: connection closed")
		} else {
			c.readErr = err
		}
		close(c.done)
	}
	c.pending = make(map[uint64]chan serve.InvokeReply)
	c.mu.Unlock()
}

func (c *binConn) Invoke(req serve.InvokeRequest) (serve.InvokeReply, error) {
	id := c.nextID.Add(1)
	ch := make(chan serve.InvokeReply, 1)

	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return serve.InvokeReply{}, err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	frame, err := serve.AppendRequest(append(c.wbuf[:0], 0, 0, 0, 0), id, req)
	if err == nil { // one Write for length prefix and payload
		binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
		c.wbuf = frame
		_, err = c.conn.Write(frame)
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return serve.InvokeReply{}, err
	}

	select {
	case rep := <-ch:
		return rep, nil
	case <-c.done:
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		return serve.InvokeReply{}, err
	}
}

func (c *binConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}
