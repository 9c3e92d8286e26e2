package native_test

import (
	"runtime"
	"sync"
	"testing"

	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
)

func TestRunExecutesAllWorkers(t *testing.T) {
	r := native.New(8, 1)
	var mu sync.Mutex
	ran := map[int]bool{}
	r.Run(func(p rt.Proc) {
		mu.Lock()
		ran[p.ID()] = true
		mu.Unlock()
	})
	if len(ran) != 8 {
		t.Fatalf("only %d/8 workers ran", len(ran))
	}
}

func TestNowAdvances(t *testing.T) {
	r := native.New(1, 1)
	r.Run(func(p rt.Proc) {
		a := p.Now()
		for i := 0; i < 1000; i++ {
			_ = i
		}
		b := p.Now()
		if b < a {
			t.Error("wall clock went backwards")
		}
	})
}

func TestLatchMutualExclusion(t *testing.T) {
	r := native.New(8, 1)
	l := r.NewLatches(1, slot.Fixed(1))
	counter := 0
	r.Run(func(p rt.Proc) {
		for i := 0; i < 1000; i++ {
			l.Acquire(p, stats.Manager, 0)
			counter++
			l.Release(p, stats.Manager, 0)
		}
	})
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000 (latch not mutually exclusive)", counter)
	}
}

// TestQuietLatch: TryAcquireQuiet is false while another goroutine holds the
// latch (by either kind of acquire), true when it is free, excludes Acquire
// while it holds, and the pair bills nothing.
func TestQuietLatch(t *testing.T) {
	r := native.New(2, 1)
	ls := r.NewLatches(0, slot.Fixed(4))
	held, checked := make(chan struct{}), make(chan struct{})
	counter := 0
	r.Run(func(p rt.Proc) {
		if p.ID() == 0 {
			ls.Acquire(p, stats.Manager, 2)
			held <- struct{}{}
			<-checked
			ls.Release(p, stats.Manager, 2)
			if !ls.TryAcquireQuiet(p, 2) {
				t.Error("TryAcquireQuiet failed on a free latch")
			}
			held <- struct{}{}
			<-checked
			ls.ReleaseQuiet(p, 2)
		} else {
			for range 2 {
				<-held
				if ls.TryAcquireQuiet(p, 2) {
					t.Error("TryAcquireQuiet took a latch another goroutine holds")
				}
				if !ls.TryAcquireQuiet(p, 3) {
					t.Error("TryAcquireQuiet failed on the free neighbour of a held latch")
				}
				ls.ReleaseQuiet(p, 3)
				checked <- struct{}{}
			}
		}
		// Quiet holders and billed holders exclude each other.
		for i := 0; i < 1000; i++ {
			if i%2 == p.ID() {
				ls.Acquire(p, stats.Manager, 1)
				counter++
				ls.Release(p, stats.Manager, 1)
				continue
			}
			for !ls.TryAcquireQuiet(p, 1) {
				runtime.Gosched()
			}
			counter++
			ls.ReleaseQuiet(p, 1)
		}
		if b := p.Stats(); b.Total() != 0 {
			t.Errorf("worker %d was billed %d cycles for latch traffic", p.ID(), b.Total())
		}
	})
	if counter != 2000 {
		t.Fatalf("counter = %d, want 2000 (quiet and billed holders overlapped)", counter)
	}
}

// TestCounterAtomic: a counter slab's element and the hardware counter (a
// slab of one) are both atomic fetch-adds natively.
func TestCounterAtomic(t *testing.T) {
	for name, mk := range map[string]func(r *native.Runtime) rt.Counters{
		"atomic":   func(r *native.Runtime) rt.Counters { return r.NewCounters(1, slot.Fixed(1)) },
		"hardware": func(r *native.Runtime) rt.Counters { return r.NewHardwareCounter(1) },
	} {
		t.Run(name, func(t *testing.T) {
			r := native.New(8, 1)
			c := mk(r)
			seen := make([]map[uint64]bool, 8)
			r.Run(func(p rt.Proc) {
				m := map[uint64]bool{}
				for i := 0; i < 1000; i++ {
					m[c.Add(p, stats.TsAlloc, 0, 1)] = true
				}
				seen[p.ID()] = m
			})
			all := map[uint64]bool{}
			for _, m := range seen {
				for v := range m {
					if all[v] {
						t.Fatalf("duplicate counter value %d", v)
					}
					all[v] = true
				}
			}
			if c.Load(r.Proc(0), stats.TsAlloc, 0) != 8000 {
				t.Fatal("final value wrong")
			}
			c.Store(r.Proc(0), stats.TsAlloc, 0, 5)
			if c.Load(r.Proc(0), stats.TsAlloc, 0) != 5 {
				t.Fatal("store failed")
			}
		})
	}
}

func TestParkUnpark(t *testing.T) {
	r := native.New(2, 1)
	r.Run(func(p rt.Proc) {
		if p.ID() == 0 {
			p.Park(stats.Wait)
			return
		}
		r.Unpark(p, r.Proc(0))
	})
}

func TestUnparkBeforeParkIsPermit(t *testing.T) {
	r := native.New(1, 1)
	r.Run(func(p rt.Proc) {
		r.Unpark(nil, p)
		p.Park(stats.Wait) // must not block: permit pending
	})
}

func TestParkTimeout(t *testing.T) {
	r := native.New(1, 1)
	r.Run(func(p rt.Proc) {
		if p.ParkTimeout(stats.Wait, 1_000_000) { // 1 ms
			t.Error("ParkTimeout reported wake with no waker")
		}
	})
}

// TestParkTimeoutDoesNotAllocate: a wait costs no heap object, whether it
// times out or is woken (a worker's one timer is made by its first wait,
// which AllocsPerRun's warm-up call absorbs).
func TestParkTimeoutDoesNotAllocate(t *testing.T) {
	r := native.New(1, 1)
	p := r.Proc(0)
	if n := testing.AllocsPerRun(20, func() {
		if p.ParkTimeout(stats.Wait, 1000) {
			t.Error("ParkTimeout reported wake with no waker")
		}
	}); n != 0 {
		t.Errorf("timed-out ParkTimeout: %v allocs per wait, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		r.Unpark(nil, p)
		if !p.ParkTimeout(stats.Wait, 1_000_000_000) {
			t.Error("ParkTimeout timed out with a permit pending")
		}
	}); n != 0 {
		t.Errorf("unparked ParkTimeout: %v allocs per wait, want 0", n)
	}
	// A wake that arrives after the deadline is still there for the next Park.
	if p.ParkTimeout(stats.Wait, 1000) {
		t.Error("ParkTimeout reported wake with no waker")
	}
	r.Unpark(nil, p)
	p.Park(stats.Wait)
}

func TestDoubleUnparkSinglePermit(t *testing.T) {
	r := native.New(1, 1)
	r.Run(func(p rt.Proc) {
		r.Unpark(nil, p)
		r.Unpark(nil, p) // permits are binary
		p.Park(stats.Wait)
		if p.ParkTimeout(stats.Wait, 100_000) {
			t.Error("second park consumed a phantom permit")
		}
	})
}

func TestTickBillsModeledCycles(t *testing.T) {
	r := native.New(1, 1)
	r.Run(func(p rt.Proc) {
		p.Tick(stats.Useful, 123)
		p.Sync(stats.Index, 7)
		p.MemRead(stats.Useful, 1, 64)
		p.MemWrite(stats.Useful, 1, 64)
	})
	bd := r.Proc(0).Stats()
	if bd.Get(stats.Useful) < 123 || bd.Get(stats.Index) != 7 {
		t.Fatalf("billing wrong: %d/%d", bd.Get(stats.Useful), bd.Get(stats.Index))
	}
}

func TestDeterministicRandPerWorker(t *testing.T) {
	draw := func() [4]int64 {
		r := native.New(4, 99)
		var out [4]int64
		r.Run(func(p rt.Proc) {
			out[p.ID()] = p.Rand().Int63()
		})
		return out
	}
	a, b := draw(), draw()
	if a != b {
		t.Fatalf("per-worker RNG not reproducible: %v vs %v", a, b)
	}
	if a[0] == a[1] {
		t.Fatal("different workers share an RNG stream")
	}
}
