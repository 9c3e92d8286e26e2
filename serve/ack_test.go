package serve_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abyss1000/abyss"
	"abyss1000/serve"
	"abyss1000/serve/client"
)

// gatedSink is an in-memory log whose Sync blocks until the test opens
// the gate; syncing is closed when the first Sync arrives.
type gatedSink struct {
	*abyss.MemLogSink
	gate     chan struct{}
	syncing  chan struct{}
	syncOnce sync.Once
}

func (g *gatedSink) Sync() error {
	g.syncOnce.Do(func() { close(g.syncing) })
	<-g.gate
	return g.MemLogSink.Sync()
}

// TestAckWaitsForDurability is the acknowledgement net: with the log's
// Sync held, no binary caller may see a committed reply; once it is
// released every reply arrives and the ledger closes. Every YCSB
// transaction here writes, so every commit has a record to wait for.
func TestAckWaitsForDurability(t *testing.T) {
	params, err := abyss.DefaultWorkloadParams("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	params.Rows, params.ReadPct = 4096, 0
	sink := &gatedSink{MemLogSink: abyss.NewMemLogSink(), gate: make(chan struct{}), syncing: make(chan struct{})}
	srv, err := serve.New(serve.Config{
		Scheme: "NO_WAIT", Workload: "ycsb", Params: &params, Cores: 2, Seed: 3,
		Session:    abyss.RunConfig{QueueDepth: 64},
		Durability: &abyss.Durability{Sink: sink, Async: true},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start("", "127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	released := false
	defer func() {
		if !released {
			close(sink.gate)
		}
		srv.Shutdown()
	}()
	conn, err := client.DialBinary(srv.TCPAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	const callers = 8
	var replies, committed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := conn.Invoke(serve.InvokeRequest{Partition: i % 2})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			replies.Add(1)
			if rep.Outcome == serve.WireCommitted {
				committed.Add(1)
			}
		}(i)
	}
	select {
	case <-sink.syncing:
	case <-time.After(10 * time.Second):
		t.Fatal("no commit reached the log's Sync")
	}
	time.Sleep(100 * time.Millisecond) // time for an early reply to cross the wire
	if n := replies.Load(); n != 0 {
		t.Fatalf("%d replies (%d committed) arrived while the log's Sync was held", n, committed.Load())
	}
	close(sink.gate)
	released = true
	wg.Wait()
	if committed.Load() != callers {
		t.Fatalf("%d of %d callers saw committed", committed.Load(), callers)
	}
	res, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if res.Commits != callers || res.Offered != res.Commits+res.Shed+res.Deadlined {
		t.Fatalf("ledger: offered %d, commits %d, shed %d, deadlined %d; want %d commits",
			res.Offered, res.Commits, res.Shed, res.Deadlined, callers)
	}
}
