package serve

import (
	"bufio"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"abyss1000/abyss"
)

// countingConn counts Write calls and, at each one, samples the process's
// goroutine count.
type countingConn struct {
	net.Conn
	writes        atomic.Int64
	maxGoroutines atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if g := int64(runtime.NumGoroutine()); g > c.maxGoroutines.Load() {
		c.maxGoroutines.Store(g) // only the connection's writer calls Write
	}
	return c.Conn.Write(p)
}

// newTestServer opens a server with no listener: tests hand it one end of
// a pipe with serveConn.
func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{Scheme: "NO_WAIT", Workload: "ycsb", Cores: 2, Seed: 5,
		Session: abyss.RunConfig{QueueDepth: 2048}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// pipeClient is the far end of a connection served over net.Pipe.
type pipeClient struct {
	conn  net.Conn
	r     *bufio.Reader
	frame []byte
	buf   []byte
}

func newPipeClient(conn net.Conn) *pipeClient {
	return &pipeClient{conn: conn, r: bufio.NewReader(conn)}
}

// send writes one anonymous unrouted request with one Write.
func (c *pipeClient) send(id uint64) error {
	c.frame, _ = appendRequestFrame(c.frame[:0], id, InvokeRequest{Partition: -1})
	_, err := c.conn.Write(c.frame)
	return err
}

// receive reads one reply.
func (c *pipeClient) receive() (uint64, InvokeReply, error) {
	payload, grown, err := ReadFrame(c.r, c.buf)
	if err != nil {
		return 0, InvokeReply{}, err
	}
	c.buf = grown
	return ParseReply(payload)
}

// roundTripAllocs gates the heap allocations of one binary round trip —
// request frame, read, submit, transaction, reply frame, write, read —
// counted across every goroutine: the closure that carries the reply's id
// to the worker. With a goroutine per frame, a reply channel and a
// two-Write framing, the same round trip made 13, 11 of them the
// server's.
const roundTripAllocs = 1

// TestServeConnCounted counts what a pipelined burst costs a binary
// connection: no goroutine per request, at most one Write per reply, and
// roundTripAllocs allocations per round trip.
func TestServeConnCounted(t *testing.T) {
	s := newTestServer(t)
	defer s.Shutdown()
	base := runtime.NumGoroutine()
	srvEnd, cliEnd := net.Pipe()
	defer cliEnd.Close()
	conn := &countingConn{Conn: srvEnd}
	s.serveConn(conn)
	cli := newPipeClient(cliEnd)

	const n = 1000
	sent := make(chan uint64, 1)
	go func() {
		id := uint64(1)
		for ; id <= n && cli.send(id) == nil; id++ {
		}
		sent <- id - 1
	}()
	seen := make(map[uint64]bool, n)
	for len(seen) < n {
		id, rep, err := cli.receive()
		if err != nil || rep.Outcome != WireCommitted || seen[id] {
			t.Fatalf("reply %d: id %d %s (%v), or a repeat", len(seen), id, OutcomeName(rep.Outcome), err)
		}
		seen[id] = true
	}
	if got := <-sent; got != n {
		t.Fatalf("client sent %d of %d requests", got, n)
	}
	writes := conn.writes.Load()
	// The client's sending goroutine and the connection's two, plus slack
	// for runtime helpers; a goroutine per frame would rise with the load.
	peak := conn.maxGoroutines.Load() - int64(base)
	t.Logf("%d requests: %d server Writes (%.2f per reply); peak goroutines base%+d", n, writes, float64(writes)/n, peak)
	if writes > n {
		t.Fatalf("server made %d Writes for %d replies, want at most one per reply", writes, n)
	}
	if peak > 3+3 {
		t.Fatalf("goroutines peaked at base%+d during the burst; a connection is two goroutines whatever its load", peak)
	}

	id := uint64(n)
	allocs := testing.AllocsPerRun(500, func() {
		id++
		if err := cli.send(id); err != nil {
			t.Fatal(err)
		}
		if got, _, err := cli.receive(); err != nil || got != id {
			t.Fatalf("reply id %d (%v), want %d", got, err, id)
		}
	})
	t.Logf("allocations per round trip: %.2f (gate %d)", allocs, roundTripAllocs)
	if allocs > roundTripAllocs {
		t.Fatalf("%.2f allocations per round trip, gate is %d", allocs, roundTripAllocs)
	}
}

// TestSlowReader floods requests down a connection that never reads its
// replies; a pipe has no buffer, so its first reply already blocks the
// writer. The server stops reading after maxUnanswered requests, with no
// goroutine piling up; a second connection keeps committing; and
// Shutdown gives the stuck replies flushGrace and returns.
func TestSlowReader(t *testing.T) {
	s := newTestServer(t)
	base := runtime.NumGoroutine()
	slowSrv, slowCli := net.Pipe()
	defer slowCli.Close()
	s.serveConn(slowSrv)
	slow := newPipeClient(slowCli)
	var sent atomic.Int64
	go func() {
		for id := uint64(1); slow.send(id) == nil; id++ {
			sent.Add(1)
		}
	}()
	// Wait for the flood to stall: no progress for 200ms.
	last, deadline := int64(-1), time.Now().Add(10*time.Second)
	for n := sent.Load(); n != last; n = sent.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("the flood never stalled (%d requests sent)", n)
		}
		last = n
		time.Sleep(200 * time.Millisecond)
	}
	stalled := runtime.NumGoroutine()
	t.Logf("flood stalled after %d requests; goroutines base%+d", last, stalled-base)
	if last > maxUnanswered+1 {
		t.Fatalf("the server read %d requests from a client that reads nothing, bound is %d", last, maxUnanswered)
	}
	// The flooding goroutine and the connection's two, plus slack.
	if stalled-base > 3+3 {
		t.Fatalf("goroutines grew from %d to %d under %d unread requests", base, stalled, last)
	}

	srvEnd, cliEnd := net.Pipe()
	defer cliEnd.Close()
	s.serveConn(srvEnd)
	cli := newPipeClient(cliEnd)
	for id := uint64(1); id <= 100; id++ {
		if err := cli.send(id); err != nil {
			t.Fatalf("second connection, request %d: %v", id, err)
		}
		if got, rep, err := cli.receive(); err != nil || got != id || rep.Outcome != WireCommitted {
			t.Fatalf("second connection, reply %d: id %d %s (%v)", id, got, OutcomeName(rep.Outcome), err)
		}
	}

	done := make(chan abyss.Result, 1)
	go func() {
		res, _ := s.Shutdown()
		done <- res
	}()
	select {
	case res := <-done:
		if res.Offered != res.Commits+res.Shed+res.Deadlined {
			t.Fatalf("ledger open: %+v", res)
		}
	case <-time.After(flushGrace + 5*time.Second):
		t.Fatal("Shutdown is stuck behind a client that does not read")
	}
}
