package sim

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
)

func TestRunAllProcsExecute(t *testing.T) {
	e := New(8, 1)
	ran := make([]bool, 8)
	e.Run(func(p rt.Proc) {
		ran[p.ID()] = true
	})
	for i, r := range ran {
		if !r {
			t.Fatalf("proc %d did not run", i)
		}
	}
}

func TestTickAdvancesClockAndBills(t *testing.T) {
	e := New(1, 1)
	e.Run(func(p rt.Proc) {
		p.Tick(stats.Useful, 100)
		p.Tick(stats.Index, 50)
		if p.Now() != 150 {
			t.Errorf("now = %d, want 150", p.Now())
		}
	})
	bd := e.Proc(0).Stats()
	if bd.Get(stats.Useful) != 100 || bd.Get(stats.Index) != 50 {
		t.Fatalf("breakdown = %d/%d, want 100/50", bd.Get(stats.Useful), bd.Get(stats.Index))
	}
}

// TestSyncOrdersAccesses verifies the core simulation invariant: shared
// accesses preceded by Sync happen in simulated-time order across cores.
func TestSyncOrdersAccesses(t *testing.T) {
	e := New(4, 1)
	var order []int
	e.Run(func(p rt.Proc) {
		// Core i works for (4-i)*100 cycles, then appends. Expected
		// append order is by completion time: core 3 first.
		p.Tick(stats.Useful, uint64(4-p.ID())*100)
		p.Sync(stats.Useful, 0)
		order = append(order, p.ID())
	})
	want := []int{3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSyncTieBreakByID(t *testing.T) {
	e := New(4, 1)
	var order []int
	e.Run(func(p rt.Proc) {
		p.Tick(stats.Useful, 100) // all tie at t=100
		p.Sync(stats.Useful, 0)
		order = append(order, p.ID())
	})
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie order = %v, want ascending ids", order)
		}
	}
}

func TestParkUnpark(t *testing.T) {
	e := New(2, 1)
	var woke bool
	e.Run(func(p rt.Proc) {
		if p.ID() == 0 {
			p.Park(stats.Wait)
			woke = true
			if p.Now() < 1000 {
				t.Errorf("woken at %d, want >= 1000 (waker's clock)", p.Now())
			}
		} else {
			p.Tick(stats.Useful, 1000)
			p.Sync(stats.Useful, 0)
			e.Unpark(p, e.Proc(0))
		}
	})
	if !woke {
		t.Fatal("proc 0 never woke")
	}
	if e.Proc(0).Stats().Get(stats.Wait) == 0 {
		t.Fatal("wait time not billed")
	}
}

func TestUnparkBeforeParkLeavesPermit(t *testing.T) {
	e := New(2, 1)
	e.Run(func(p rt.Proc) {
		if p.ID() == 1 {
			// Runs first at t=0 tie-broken... id 0 runs first; ensure
			// permit order: proc 1 unparks proc 0 before it parks.
			e.Unpark(p, e.Proc(0))
			return
		}
		// Give proc 1 a chance to run first.
		p.Tick(stats.Useful, 500)
		p.Sync(stats.Useful, 0)
		p.Park(stats.Wait) // must consume the pending permit immediately
		if p.Now() > 600 {
			t.Errorf("park blocked despite pending permit (now=%d)", p.Now())
		}
	})
}

func TestParkTimeoutExpires(t *testing.T) {
	e := New(1, 1)
	e.Run(func(p rt.Proc) {
		woken := p.ParkTimeout(stats.Wait, 250)
		if woken {
			t.Error("ParkTimeout reported wakeup with no waker")
		}
		if p.Now() != 250 {
			t.Errorf("resumed at %d, want 250", p.Now())
		}
	})
}

func TestParkTimeoutWokenEarly(t *testing.T) {
	e := New(2, 1)
	e.Run(func(p rt.Proc) {
		if p.ID() == 0 {
			woken := p.ParkTimeout(stats.Wait, 1_000_000)
			if !woken {
				t.Error("expected wakeup before timeout")
			}
			if p.Now() >= 1_000_000 {
				t.Errorf("resumed at %d, after the timeout", p.Now())
			}
		} else {
			p.Tick(stats.Useful, 100)
			p.Sync(stats.Useful, 0)
			e.Unpark(p, e.Proc(0))
		}
	})
}

func TestLatchMutualExclusionAndFIFO(t *testing.T) {
	e := New(8, 1)
	l := e.NewLatches(1, slot.Fixed(1))
	depth := 0
	var grants []int
	e.Run(func(p rt.Proc) {
		p.Tick(stats.Useful, uint64(p.ID())) // stagger arrival
		l.Acquire(p, stats.Manager, 0)
		depth++
		if depth != 1 {
			t.Errorf("latch held by %d procs simultaneously", depth)
		}
		grants = append(grants, p.ID())
		p.Sync(stats.Useful, 100) // hold across a yield
		depth--
		l.Release(p, stats.Manager, 0)
	})
	if len(grants) != 8 {
		t.Fatalf("grants = %v", grants)
	}
	for i := range grants {
		if grants[i] != i {
			t.Fatalf("grant order %v not FIFO by arrival", grants)
		}
	}
}

// TestLatchFIFOReusesTheLink: a proc has one wait link, which serves every
// latch it waits on in turn. Four waiters queue on latch 0 in one order
// and are granted in it; then they queue on latch 1 in the reverse order
// and are granted in that.
func TestLatchFIFOReusesTheLink(t *testing.T) {
	const waiters = 4
	e := New(1+waiters, 1)
	ls := e.NewLatches(1, slot.Fixed(2))
	var grants [2][]int
	e.Run(func(p rt.Proc) {
		for l, start := range []uint64{0, 100_000} {
			p.Tick(stats.Useful, start-p.Now())
			if p.ID() == 0 {
				ls.Acquire(p, stats.Manager, l)
				p.Sync(stats.Useful, 10_000) // hold while the others queue
				ls.Release(p, stats.Manager, l)
				continue
			}
			arrival := p.ID()
			if l == 1 {
				arrival = 1 + waiters - p.ID()
			}
			p.Tick(stats.Useful, uint64(100*arrival))
			ls.Acquire(p, stats.Manager, l)
			grants[l] = append(grants[l], p.ID())
			p.Sync(stats.Useful, 100) // hold across a yield
			ls.Release(p, stats.Manager, l)
		}
	})
	want := [2][]int{{1, 2, 3, 4}, {4, 3, 2, 1}}
	for l := range want {
		if !slices.Equal(grants[l], want[l]) {
			t.Errorf("latch %d granted in order %v, want arrival order %v", l, grants[l], want[l])
		}
	}
}

// TestContendedLatchesAllocateNothing: a latch's waiters queue through the
// procs themselves, so every core contending on each of 64 latches of one
// slab, each for the first time, allocates nothing. The count starts once
// every core has started, since a coroutine's first resume allocates, and
// the least of three runs counts, since another goroutine's allocation can
// only add to a reading.
func TestContendedLatchesAllocateNothing(t *testing.T) {
	const cores, latches, round, hold = 4, 64, 100_000, 1_000
	contend := func() (objects, bytes uint64) {
		e := New(cores, 1)
		ls := e.NewLatches(1, slot.Fixed(latches))
		var before, after runtime.MemStats
		started, waited, finished := 0, 0, 0
		e.Run(func(p rt.Proc) {
			if started++; started == cores {
				runtime.ReadMemStats(&before)
			}
			for i := 0; i < latches; i++ {
				arrive := uint64(i+1) * round
				p.Tick(stats.Useful, arrive-p.Now()) // every core arrives at once
				ls.Acquire(p, stats.Manager, i)
				if p.Now() > arrive+hold {
					waited++
				}
				p.Sync(stats.Useful, hold)
				ls.Release(p, stats.Manager, i)
			}
			if finished++; finished == cores {
				runtime.ReadMemStats(&after)
			}
		})
		if want := latches * (cores - 1); waited != want {
			t.Fatalf("%d acquisitions waited, want %d: the latches were not contended", waited, want)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	objects, bytes := contend()
	for range 2 {
		o, b := contend()
		objects, bytes = min(objects, o), min(bytes, b)
	}
	if objects != 0 || bytes != 0 {
		t.Fatalf("contending %d latches allocated %d objects, %d bytes; want none", latches, objects, bytes)
	}
}

// TestNewRefusesUnnameableCores: a latch names a proc, and a cache line a
// tile, in two bytes, so an engine of more than math.MaxInt16 cores is
// refused, by name, before any core is made.
func TestNewRefusesUnnameableCores(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := func() (r any) {
		defer func() { r = recover() }()
		New(math.MaxInt16+1, 1)
		return nil
	}()
	runtime.ReadMemStats(&after)
	if msg, _ := got.(string); !strings.Contains(msg, "32768 cores") || !strings.Contains(msg, "MaxInt16") {
		t.Fatalf("New(math.MaxInt16+1): recovered %#v, want a panic naming the core count and its limit", got)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<10 {
		t.Fatalf("New allocated %d bytes before refusing", b)
	}
}

func TestCounterAtomicity(t *testing.T) {
	e := New(16, 1)
	c := e.NewCounters(2, slot.Fixed(1))
	seen := make(map[uint64]bool)
	e.Run(func(p rt.Proc) {
		for i := 0; i < 10; i++ {
			v := c.Add(p, stats.TsAlloc, 0, 1)
			if seen[v] {
				t.Errorf("duplicate counter value %d", v)
			}
			seen[v] = true
		}
	})
	if len(seen) != 160 {
		t.Fatalf("got %d unique values, want 160", len(seen))
	}
	if got := c.(*counters).At(0).value; got != 160 {
		t.Fatalf("final counter value = %d, want 160", got)
	}
}

// TestCounterSerializationThroughput verifies the coherence model: N cores
// hammering one atomic counter complete in time ~N*transfer, not ~N*1.
func TestCounterSerializationThroughput(t *testing.T) {
	const n, ops = 64, 50
	e := New(n, 1)
	c := e.NewCounters(3, slot.Fixed(1))
	var maxEnd uint64
	e.Run(func(p rt.Proc) {
		for i := 0; i < ops; i++ {
			c.Add(p, stats.TsAlloc, 0, 1)
		}
		if p.Now() > maxEnd {
			maxEnd = p.Now()
		}
	})
	total := uint64(n * ops)
	// Average cost per op must reflect line transfers (>= a few cycles),
	// not local L1 hits.
	if avg := maxEnd / total; avg < 4 {
		t.Fatalf("avg cycles per contended atomic = %d, too cheap: line serialization not modeled", avg)
	}
}

func TestHardwareCounterFasterThanAtomicUnderContention(t *testing.T) {
	const n, ops = 256, 20
	run := func(mk func(e *Engine) rt.Counters) uint64 {
		e := New(n, 1)
		c := mk(e)
		var maxEnd uint64
		e.Run(func(p rt.Proc) {
			for i := 0; i < ops; i++ {
				c.Add(p, stats.TsAlloc, 0, 1)
			}
			if p.Now() > maxEnd {
				maxEnd = p.Now()
			}
		})
		return maxEnd
	}
	atomicEnd := run(func(e *Engine) rt.Counters { return e.NewCounters(4, slot.Fixed(1)) })
	hwEnd := run(func(e *Engine) rt.Counters { return e.NewHardwareCounter(5) })
	if hwEnd >= atomicEnd {
		t.Fatalf("hardware counter (%d cycles) not faster than atomic (%d cycles) at %d cores", hwEnd, atomicEnd, n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := New(32, 42)
		c := e.NewCounters(6, slot.Fixed(1))
		l := e.NewLatches(7, slot.Fixed(1))
		ends := make([]uint64, 32)
		e.Run(func(p rt.Proc) {
			for i := 0; i < 20; i++ {
				p.Tick(stats.Useful, uint64(p.Rand().Intn(50)))
				c.Add(p, stats.TsAlloc, 0, 1)
				l.Acquire(p, stats.Manager, 0)
				p.Sync(stats.Useful, 10)
				l.Release(p, stats.Manager, 0)
			}
			ends[p.ID()] = p.Now()
		})
		return ends
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: proc %d ended at %d vs %d", i, a[i], b[i])
		}
	}
}

func TestGlobalStallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on global stall")
		}
	}()
	e := New(2, 1)
	e.Run(func(p rt.Proc) {
		p.Park(stats.Wait) // both park forever: lost-wakeup bug
	})
}

func TestMemAccessCosts(t *testing.T) {
	e := New(64, 1)
	e.Run(func(p rt.Proc) {
		if p.ID() != 0 {
			return
		}
		t0 := p.Now()
		p.MemRead(stats.Useful, 12345, 100)
		small := p.Now() - t0
		t0 = p.Now()
		p.MemRead(stats.Useful, 12345, 100000)
		big := p.Now() - t0
		if big <= small {
			t.Errorf("large read (%d cycles) not more expensive than small (%d)", big, small)
		}
	})
}

func TestRunTwicePanics(t *testing.T) {
	e := New(1, 1)
	e.Run(func(p rt.Proc) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Run")
		}
	}()
	e.Run(func(p rt.Proc) {})
}

func TestClockMonotonic(t *testing.T) {
	e := New(16, 7)
	e.Run(func(p rt.Proc) {
		prev := p.Now()
		for i := 0; i < 100; i++ {
			switch p.Rand().Intn(3) {
			case 0:
				p.Tick(stats.Useful, uint64(p.Rand().Intn(20)))
			case 1:
				p.Sync(stats.Manager, uint64(p.Rand().Intn(20)))
			case 2:
				p.ParkTimeout(stats.Wait, uint64(p.Rand().Intn(100)+1))
			}
			if p.Now() < prev {
				t.Errorf("clock went backwards: %d -> %d", prev, p.Now())
			}
			prev = p.Now()
		}
	})
}
