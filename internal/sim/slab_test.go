package sim

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"abyss1000/internal/mesh"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
)

// A simulated latch is 16 bytes and a counter 24, cache-line model included;
// a stray field shows up here as a one-line diff.
func TestLatchAndCounterSize(t *testing.T) {
	if got := unsafe.Sizeof(latch{}); got != 16 {
		t.Errorf("latch is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(counter{}); got != 24 {
		t.Errorf("counter is %d bytes, want 24", got)
	}
}

// TestSlabPlacementIsByKey: a latch or counter is placed by its key alone,
// element i of a slab made at base sitting where element 0 of a slab made
// at base|i sits — same home tile, same billed cycles, same FIFO hand-off —
// so a structure that holds one slab where it once held one slab per
// element cannot have moved the model. The workload is contended on
// purpose: 16 cores on one latch and one counter, so waiter order and line
// ownership matter.
func TestSlabPlacementIsByKey(t *testing.T) {
	const (
		base  = uint64(3)<<44 | 0x2B<<36
		elem  = 5
		cores = 16
	)
	type trace struct {
		grants []int    // latch acquisition order
		values []uint64 // counter values in that order
		ends   []uint64 // every core's final clock
		wait   []uint64 // every core's cycles billed to MANAGER
	}
	// run makes a latch and a counter slab at base and base|1<<35, each of
	// n elements, and contends on element i of both.
	run := func(base uint64, n, i int) trace {
		e := New(cores, 9)
		ls, cs := e.NewLatches(base, slot.Fixed(n)), e.NewCounters(base|1<<35, slot.Fixed(n))
		tr := trace{ends: make([]uint64, cores), wait: make([]uint64, cores)}
		e.Run(func(p rt.Proc) {
			for k := 0; k < 10; k++ {
				p.Tick(stats.Useful, uint64(p.Rand().Intn(40)))
				ls.Acquire(p, stats.Manager, i)
				tr.grants = append(tr.grants, p.ID())
				tr.values = append(tr.values, cs.Add(p, stats.Manager, i, 1))
				p.Sync(stats.Useful, 25) // hold across a yield so waiters queue
				ls.Release(p, stats.Manager, i)
			}
			tr.ends[p.ID()] = p.Now()
			tr.wait[p.ID()] = p.Stats().Get(stats.Manager)
		})
		return tr
	}
	one, slab := run(base|elem, 1, 0), run(base, 8, elem)
	if !slices.Equal(one.grants, slab.grants) {
		t.Errorf("hand-off order differs:\nslab of one %v\nslab        %v", one.grants, slab.grants)
	}
	if !slices.Equal(one.values, slab.values) {
		t.Errorf("counter values differ:\nslab of one %v\nslab        %v", one.values, slab.values)
	}
	if !slices.Equal(one.ends, slab.ends) || !slices.Equal(one.wait, slab.wait) {
		t.Errorf("billed cycles differ:\nslab of one ends %v manager %v\nslab        ends %v manager %v",
			one.ends, one.wait, slab.ends, slab.wait)
	}
	if len(slab.grants) != cores*10 {
		t.Fatalf("%d grants, want %d", len(slab.grants), cores*10)
	}
}

// TestQuietLatchIsInvisibleToTheModel: TryAcquireQuiet reports false while a
// holder exists — which another core can only observe when the holder has
// yielded with the latch held — and true when the latch is free; the pair
// bills no component and moves neither the caller's clock nor the latch's
// cache line. And a contended run in which every core also makes quiet
// attempts on the contended latch is, grant for grant and cycle for cycle,
// the run without them.
func TestQuietLatchIsInvisibleToTheModel(t *testing.T) {
	const base, elem = uint64(3)<<44 | 0x2B<<36, 5

	e := New(2, 9)
	ls := e.NewLatches(base, slot.Fixed(8)).(*latches)
	var seenHeld, seenFree int
	e.Run(func(p rt.Proc) {
		if p.ID() == 0 {
			ls.Acquire(p, stats.Manager, elem)
			p.Sync(stats.Useful, 1_000) // yield holding the latch
			ls.Release(p, stats.Manager, elem)
			return
		}
		p.Sync(stats.Useful, 500) // core 0 holds the latch now
		for _, wantFree := range []bool{false, true} {
			now, line, billed := p.Now(), ls.At(elem).line, *p.Stats()
			got := ls.TryAcquireQuiet(p, elem)
			if got {
				if ls.At(elem).line.Spare[holder] != p.(*Proc).ref() {
					t.Error("a successful quiet acquire left the latch without its holder")
				}
				ls.ReleaseQuiet(p, elem)
				seenFree++
			} else {
				seenHeld++
			}
			if got != wantFree {
				t.Errorf("TryAcquireQuiet = %v at cycle %d, want %v", got, now, wantFree)
			}
			if p.Now() != now || ls.At(elem).line != line || *p.Stats() != billed {
				t.Errorf("a quiet attempt (taken: %v) moved the clock, the line or the bill: cycle %d -> %d, line %+v -> %+v",
					got, now, p.Now(), line, ls.At(elem).line)
			}
			p.Sync(stats.Useful, 1_000) // core 0 has released by the second pass
		}
		if h := ls.At(elem).line.Spare[holder]; h != 0 {
			t.Errorf("latch still held by core %d after every release", h-1)
		}
	})
	if seenHeld != 1 || seenFree != 1 {
		t.Fatalf("saw the latch held %d times and free %d times, want 1 and 1", seenHeld, seenFree)
	}

	type trace struct {
		grants      []int
		ends, bills []uint64
		taken       int
	}
	run := func(quiet bool) trace {
		const cores = 16
		e := New(cores, 9)
		ls := e.NewLatches(base, slot.Fixed(8))
		tr := trace{ends: make([]uint64, cores), bills: make([]uint64, cores)}
		e.Run(func(p rt.Proc) {
			attempt := func() {
				if quiet && ls.TryAcquireQuiet(p, elem) {
					tr.taken++
					ls.ReleaseQuiet(p, elem)
				}
			}
			for i := 0; i < 10; i++ {
				p.Tick(stats.Useful, uint64(p.Rand().Intn(40)))
				attempt()
				ls.Acquire(p, stats.Manager, elem)
				tr.grants = append(tr.grants, p.ID())
				p.Sync(stats.Useful, 25) // hold across a yield so waiters queue
				ls.Release(p, stats.Manager, elem)
				attempt()
			}
			tr.ends[p.ID()] = p.Now()
			tr.bills[p.ID()] = p.Stats().Get(stats.Manager)
		})
		return tr
	}
	plain, quiet := run(false), run(true)
	if quiet.taken == 0 || quiet.taken == 2*len(quiet.grants) {
		t.Errorf("%d of %d quiet attempts succeeded: the run exercises only one outcome", quiet.taken, 2*len(quiet.grants))
	}
	if !slices.Equal(plain.grants, quiet.grants) || !slices.Equal(plain.ends, quiet.ends) || !slices.Equal(plain.bills, quiet.bills) {
		t.Errorf("quiet attempts changed the schedule:\nplain grants %v ends %v manager %v\nquiet grants %v ends %v manager %v",
			plain.grants, plain.ends, plain.bills, quiet.grants, quiet.ends, quiet.bills)
	}
}

// TestSplitSlabIsTheSlab: latch and counter slabs large enough that their
// dense region is split into one extent per GOMAXPROCS, each extent's init
// running on a goroutine of its own, hold what a one-extent slab would:
// element i on the line key base|i places. Under -race it is the check that
// mesh.NewLine may run on several goroutines at once.
func TestSplitSlabIsTheSlab(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const (
		base = uint64(3)<<44 | 0x2B<<36
		n    = 1_100_000 // 17.6 MB of latches, past slot's 16 MiB split size
	)
	e := New(4, 9)
	ls := e.NewLatches(base, slot.Fixed(n)).(*latches)
	cs := e.NewCounters(base|1<<35, slot.Fixed(n)).(*counters)
	if len(ls.Chunk(0, n)) == n || len(cs.Chunk(0, n)) == n {
		t.Fatal("the slabs were not split")
	}
	for i := 0; i < n; i++ {
		if ls.At(i).line != mesh.NewLine(e.chip, base|uint64(i)) {
			t.Fatalf("latch %d is on line %+v, want key %#x's", i, ls.At(i).line, base|uint64(i))
		}
		if cs.At(i).line != mesh.NewLine(e.chip, base|1<<35|uint64(i)) {
			t.Fatalf("counter %d is on line %+v, want key %#x's", i, cs.At(i).line, base|1<<35|uint64(i))
		}
	}
}
