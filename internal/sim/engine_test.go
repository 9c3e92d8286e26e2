package sim

import (
	"runtime"
	"testing"
	"time"

	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
)

// TestBodyPanicSurfacesInRun pins what running the cores as coroutines of
// Run's caller gives for free: a panic on a simulated core unwinds through
// Run with its value intact, where a goroutine per core would have killed
// the process.
func TestBodyPanicSurfacesInRun(t *testing.T) {
	type boom struct{ core int }
	e := New(8, 1)
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run(func(p rt.Proc) {
			for k := 0; k < 10; k++ {
				p.Sync(stats.Useful, 10) // every core is mid-body when 3 dies
				if p.ID() == 3 && k == 5 {
					panic(boom{core: p.ID()})
				}
			}
		})
	}()
	if got != (boom{core: 3}) {
		t.Fatalf("recovered %#v from Run, want %#v", got, boom{core: 3})
	}
}

// TestRunLeavesNoGoroutine checks that a completed Run ends every core's
// coroutine: the simulation owns nothing once Run returns.
func TestRunLeavesNoGoroutine(t *testing.T) {
	before := settledGoroutines()
	e := New(64, 1)
	l := e.NewLatches(1, slot.Fixed(1))
	e.Run(func(p rt.Proc) {
		for k := 0; k < 20; k++ {
			l.Acquire(p, stats.Manager, 0)
			p.Sync(stats.Useful, 10)
			l.Release(p, stats.Manager, 0)
			p.ParkTimeout(stats.Wait, 5)
		}
	})
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before Run, %d after", before, after)
	}
}

// settledGoroutines returns runtime.NumGoroutine once the count has held
// still through ten 1 ms sleeps in a row, so that an earlier test's
// goroutine, still exiting, is not counted as this test's. (The previous
// test's runner can sit runnable on another P's queue for a while on a
// loaded host; a sleep idles this P so it can steal it, a Gosched does not.)
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 10; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}
