package client

import (
	"sync"
	"sync/atomic"
	"testing"

	"abyss1000/abyss"
	"abyss1000/serve"
)

// BenchmarkServeRoundTrip times one binary round trip over loopback: one
// connection shared by four closed-loop callers against a two-worker
// server, so ns/op is wall time per request at four in flight and
// allocs/op counts both ends.
func BenchmarkServeRoundTrip(b *testing.B) {
	srv, err := serve.New(serve.Config{Scheme: "NO_WAIT", Workload: "ycsb", Cores: 2, Seed: 3,
		Session: abyss.RunConfig{QueueDepth: 256}})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer srv.Shutdown()
	if err := srv.Start("", "127.0.0.1:0"); err != nil {
		b.Fatalf("Start: %v", err)
	}
	conn, err := DialBinary(srv.TCPAddr())
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	const callers = 4
	var left atomic.Int64
	left.Store(int64(b.N))
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				if rep, err := conn.Invoke(serve.InvokeRequest{Partition: -1}); err != nil || rep.Outcome != serve.WireCommitted {
					b.Errorf("invoke: %s, %v", serve.OutcomeName(rep.Outcome), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
