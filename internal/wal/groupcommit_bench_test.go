package wal

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkGroupCommitFile measures acknowledged-durable commits on a real
// device: 1, 4 and 16 committers each append a commit frame and wait for
// it with WaitDurable, on a FileSink under the test's temporary directory,
// so every group pays a real fsync. ns/commit is wall time per
// acknowledged commit across all committers; recs/sync is counted, the
// records each fsync made durable.
func BenchmarkGroupCommitFile(b *testing.B) {
	frame := commitFrame(0, 1)
	for _, committers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			sink, err := CreateFile(filepath.Join(b.TempDir(), "bench.wal"))
			if err != nil {
				b.Fatal(err)
			}
			w := NewWriter(sink, Config{Async: true})
			var drawn atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < committers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for drawn.Add(1) <= int64(b.N) {
						lsn, _ := w.Append(frame)
						w.WaitDurable(lsn)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/commit")
			b.ReportMetric(float64(b.N)/float64(w.Syncs()), "recs/sync")
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
