package sim

import (
	"testing"

	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
)

// The engine-bound benchmarks below exercise the discrete-event scheduler's
// hot paths in isolation from any DBMS logic: ordering points that stay on
// the running core (the Sync fast path), ordering points that hand off to
// another core, contended latch convoys (Park/Unpark traffic), and contended
// atomic counters (line-occupancy serialization).

const benchOpsPerProc = 2_000

// BenchmarkSyncOrderingPoint measures the common case the fast path targets:
// the running proc issues an ordering point while every other core's next
// event is still in the future, so the engine should resume it immediately.
func BenchmarkSyncOrderingPoint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(64, 1)
		e.Run(func(p rt.Proc) {
			// Stagger the cores far apart so each core's burst of
			// ordering points finds every other event in the future.
			p.Tick(stats.Useful, uint64(p.ID())*1_000_000)
			for k := 0; k < benchOpsPerProc; k++ {
				p.Sync(stats.Useful, 0)
			}
		})
	}
	b.ReportMetric(float64(64*benchOpsPerProc*b.N)/b.Elapsed().Seconds(), "syncs/s")
}

// BenchmarkSyncHandoff measures interleaved cores whose clocks advance in
// lockstep, forcing a real baton transfer on nearly every ordering point.
func BenchmarkSyncHandoff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(64, 1)
		e.Run(func(p rt.Proc) {
			for k := 0; k < benchOpsPerProc; k++ {
				p.Sync(stats.Useful, 10)
			}
		})
	}
	b.ReportMetric(float64(64*benchOpsPerProc*b.N)/b.Elapsed().Seconds(), "syncs/s")
}

// BenchmarkTick measures core-local clock advancement and stats accounting,
// which must stay off the event queue entirely.
func BenchmarkTick(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(16, 1)
		e.Run(func(p rt.Proc) {
			for k := 0; k < 50*benchOpsPerProc; k++ {
				p.Tick(stats.Useful, 3)
			}
		})
	}
	b.ReportMetric(float64(16*50*benchOpsPerProc*b.N)/b.Elapsed().Seconds(), "ticks/s")
}

// BenchmarkLatchContended measures a convoy: every core loops acquiring one
// latch, holding it across a yield, and releasing it, so nearly every
// acquisition parks and every release unparks.
func BenchmarkLatchContended(b *testing.B) {
	b.ReportAllocs()
	const cores, ops = 32, 200
	for i := 0; i < b.N; i++ {
		e := New(cores, 1)
		l := e.NewLatches(1, slot.Fixed(1))
		e.Run(func(p rt.Proc) {
			for k := 0; k < ops; k++ {
				l.Acquire(p, stats.Manager, 0)
				p.Sync(stats.Useful, 20)
				l.Release(p, stats.Manager, 0)
			}
		})
	}
	b.ReportMetric(float64(cores*ops*b.N)/b.Elapsed().Seconds(), "acquires/s")
}

// BenchmarkCounterContended measures the Fig. 6 primitive: every core
// hammers one atomic counter, serializing through the line's occupancy
// window at every add.
func BenchmarkCounterContended(b *testing.B) {
	b.ReportAllocs()
	const cores, ops = 64, 300
	for i := 0; i < b.N; i++ {
		e := New(cores, 1)
		c := e.NewCounters(2, slot.Fixed(1))
		e.Run(func(p rt.Proc) {
			for k := 0; k < ops; k++ {
				c.Add(p, stats.TsAlloc, 0, 1)
			}
		})
	}
	b.ReportMetric(float64(cores*ops*b.N)/b.Elapsed().Seconds(), "adds/s")
}

// BenchmarkParkTimeoutChurn measures deadline-entry churn: cores repeatedly
// park with a timeout and are woken early by a neighbor, so every cycle both
// inserts a deadline event and supersedes it with a wake.
func BenchmarkParkTimeoutChurn(b *testing.B) {
	b.ReportAllocs()
	const cores, ops = 32, 200
	for i := 0; i < b.N; i++ {
		e := New(cores, 1)
		e.Run(func(p rt.Proc) {
			next := e.Proc((p.ID() + 1) % cores)
			for k := 0; k < ops; k++ {
				e.Unpark(p, next)
				p.ParkTimeout(stats.Wait, 50)
				p.Tick(stats.Useful, 5)
			}
		})
	}
	b.ReportMetric(float64(cores*ops*b.N)/b.Elapsed().Seconds(), "parks/s")
}
