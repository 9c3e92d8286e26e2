package serve_test

// Clients that misbehave on the binary transport over real TCP: one that
// hangs up with requests in flight and one that hangs up mid-frame.
// Neither may leave the server goroutines or hold up Shutdown, and the
// ledger still closes. The client that never reads its replies is
// TestSlowReader, over a pipe.

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"abyss1000/abyss"
	"abyss1000/serve"
)

// requestFrames frames n anonymous unrouted requests back to back, as a
// client sends them.
func requestFrames(t *testing.T, n int) []byte {
	t.Helper()
	var buf []byte
	for id := 1; id <= n; id++ {
		var err error
		start := len(buf)
		if buf, err = serve.AppendRequest(append(buf, 0, 0, 0, 0), uint64(id), serve.InvokeRequest{Partition: -1}); err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	}
	return buf
}

// shutdownWithin runs Shutdown and fails the test if it takes longer than d.
func shutdownWithin(t *testing.T, srv *serve.Server, d time.Duration) abyss.Result {
	t.Helper()
	type result struct {
		res abyss.Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := srv.Shutdown()
		done <- result{res, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("Shutdown: %v", r.err)
		}
		return r.res
	case <-time.After(d):
		t.Fatalf("Shutdown did not return within %v", d)
		return abyss.Result{}
	}
}

func checkLedger(t *testing.T, res abyss.Result) {
	t.Helper()
	if res.Offered != res.Commits+res.Shed+res.Deadlined {
		t.Fatalf("ledger open: offered %d != commits %d + shed %d + deadlined %d",
			res.Offered, res.Commits, res.Shed, res.Deadlined)
	}
}

// TestHalfOpen sends requests and hangs up at once: the replies that
// complete after the close are dropped without a panic or a block, the
// connection's goroutines exit, and the ledger closes.
func TestHalfOpen(t *testing.T) {
	srv := startServer(t, "NO_WAIT", 2, abyss.RunConfig{QueueDepth: 1024})
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		conn, err := net.Dial("tcp", srv.TCPAddr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if _, err := conn.Write(requestFrames(t, 500)); err != nil {
			t.Fatalf("write: %v", err)
		}
		conn.Close()
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base+2; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stayed at base%+d after every client hung up", runtime.NumGoroutine()-base)
		}
		time.Sleep(10 * time.Millisecond)
	}
	res := shutdownWithin(t, srv, 10*time.Second)
	checkLedger(t, res)
	if res.Offered > 5*500 {
		t.Fatalf("offered %d, more than the %d requests sent", res.Offered, 5*500)
	}
}

// TestMidFrameDisconnect sends a length prefix and part of its payload,
// then half-closes: the server drops the connection and offers nothing.
func TestMidFrameDisconnect(t *testing.T) {
	srv := startServer(t, "NO_WAIT", 1, abyss.RunConfig{QueueDepth: 16})
	conn, err := net.Dial("tcp", srv.TCPAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	frame := requestFrames(t, 1)
	if _, err := conn.Write(frame[:len(frame)-5]); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := io.Copy(io.Discard, conn); err != nil || n != 0 {
		t.Fatalf("read %d bytes, %v; want the server to close without a reply", n, err)
	}
	res := shutdownWithin(t, srv, 10*time.Second)
	if res.Offered != 0 {
		t.Fatalf("a cut frame was offered: %+v", res)
	}
}

// TestPartitionRule sends partitions -2, -1 and 0: -1 is unrouted and 0
// routes, both commit; -2 is rejected.
func TestPartitionRule(t *testing.T) {
	srv := startServer(t, "NO_WAIT", 1, abyss.RunConfig{QueueDepth: 16})
	defer srv.Shutdown()
	bin, err := net.Dial("tcp", srv.TCPAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer bin.Close()
	viaBinary := func(part int) byte {
		// AppendRequest encodes every negative partition as -1, so the
		// partition field is patched in the frame.
		frame := requestFrames(t, 1)
		binary.BigEndian.PutUint32(frame[4+8:], uint32(int32(part)))
		if _, err := bin.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
		payload, _, err := serve.ReadFrame(bin, nil)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		_, rep, err := serve.ParseReply(payload)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Outcome
	}
	for _, tc := range []struct {
		part int
		want byte
	}{{-2, serve.WireRejected}, {-1, serve.WireCommitted}, {0, serve.WireCommitted}} {
		if got := viaBinary(tc.part); got != tc.want {
			t.Errorf("partition %d: %s, want %s", tc.part, serve.OutcomeName(got), serve.OutcomeName(tc.want))
		}
	}
}

// TestTrailingBytesRejected sends a request framed as the protocol once
// framed it, with an argument count (zero) after the procedure name, and
// then a well-formed one on the same connection: the first is rejected
// without executing, the second commits.
func TestTrailingBytesRejected(t *testing.T) {
	srv := startServer(t, "NO_WAIT", 1, abyss.RunConfig{QueueDepth: 16})
	defer srv.Shutdown()
	conn, err := net.Dial("tcp", srv.TCPAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	old := append(requestFrames(t, 1), 0, 0) // u16 nargs = 0
	binary.BigEndian.PutUint32(old, uint32(len(old)-4))
	for _, tc := range []struct {
		frame []byte
		want  byte
	}{{old, serve.WireRejected}, {requestFrames(t, 1), serve.WireCommitted}} {
		if _, err := conn.Write(tc.frame); err != nil {
			t.Fatalf("write: %v", err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		payload, _, err := serve.ReadFrame(conn, nil)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		_, rep, err := serve.ParseReply(payload)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Outcome != tc.want {
			t.Errorf("%d-byte frame: %s, want %s", len(tc.frame), serve.OutcomeName(rep.Outcome), serve.OutcomeName(tc.want))
		}
	}
	if res := shutdownWithin(t, srv, 10*time.Second); res.Offered != 1 || res.Commits != 1 {
		t.Fatalf("offered %d, committed %d; want the one well-formed request alone", res.Offered, res.Commits)
	}
}
