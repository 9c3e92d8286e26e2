package client

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"abyss1000/abyss"
	"abyss1000/serve"
)

// writeCounter counts a connection's Write calls.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestBinaryOneWritePerRequest pins that a binary connection sends each
// request, length prefix and payload, with exactly one Write, however
// many callers share it.
func TestBinaryOneWritePerRequest(t *testing.T) {
	srv, err := serve.New(serve.Config{Scheme: "NO_WAIT", Workload: "ycsb", Cores: 2, Seed: 3,
		Session: abyss.RunConfig{QueueDepth: 256}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Shutdown()
	if err := srv.Start("", "127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	raw, err := net.Dial("tcp", srv.TCPAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	counted := &writeCounter{Conn: raw}
	c := newBinConn(counted)
	defer c.Close()
	const callers, per = 4, 50
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if rep, err := c.Invoke(serve.InvokeRequest{Partition: -1}); err != nil || rep.Outcome != serve.WireCommitted {
					t.Errorf("invoke: %s, %v", serve.OutcomeName(rep.Outcome), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := counted.writes.Load(); got != callers*per {
		t.Fatalf("%d Writes for %d requests, want one each", got, callers*per)
	}
}
