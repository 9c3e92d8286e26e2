package slot

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// TestPagedOnFirstUse: only the dense region exists up front; a page
// appears when a slot in it is first reached, holds what init put there,
// and keeps its address.
func TestPagedOnFirstUse(t *testing.T) {
	l := Layout{Dense: 5, Cap: 5 + 2*PageSlots + 3}
	inits := 0
	a := MakeWith(l, 1, func(s []int, first int) {
		inits++
		for j := range s {
			s[j] = 1000 + first + j
		}
	})
	if len(a.more.pages) != l.Pages() || l.Pages() != 3 {
		t.Fatalf("%d pages, want 3", len(a.more.pages))
	}
	if inits != 1 {
		t.Fatalf("init ran %d times for the dense region", inits)
	}
	for k := range a.more.pages {
		if a.more.pages[k].Load() != nil {
			t.Fatalf("page %d allocated before use", k)
		}
	}
	last := l.Cap - 1
	p := a.At(last)
	if *p != 1000+last || inits != 2 || a.more.pages[2].Load() == nil || a.more.pages[0].Load() != nil {
		t.Fatalf("At(%d) = %d after %d inits; want %d from exactly the last page", last, *p, inits, 1000+last)
	}
	if a.At(last) != p {
		t.Fatal("a paged element moved")
	}
	for _, i := range []int{0, 4, 5, 5 + PageSlots - 1, 5 + PageSlots, last} {
		if got := *a.At(i); got != 1000+i {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
	for _, i := range []int{-1, l.Cap} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			a.At(i)
		}()
	}
}

// TestSpanAndChunk: a wide array hands out each slot's elements and, as a
// chunk, the longest run that shares one allocation.
func TestSpanAndChunk(t *testing.T) {
	const w = 3
	l := Layout{Dense: 7, Cap: 7 + PageSlots + 2}
	a := MakeWith[byte](l, w, nil)
	for i := 0; i < l.Cap; i++ {
		s := a.Span(i)
		if len(s) != w || cap(s) != w {
			t.Fatalf("Span(%d) len/cap %d/%d", i, len(s), cap(s))
		}
		s[0] = byte(i)
	}
	for _, c := range []struct{ i, n, want int }{
		{0, 3, 3}, {5, 10, 2}, {7, 4, 4}, {7 + PageSlots - 1, 5, 1}, {7 + PageSlots, 9, 2},
	} {
		got := a.Chunk(c.i, c.n)
		if len(got) != c.want*w || cap(got) != len(got) || got[0] != byte(c.i) {
			t.Fatalf("Chunk(%d, %d) = %d bytes starting at slot %d, want %d slots", c.i, c.n, len(got), got[0], c.want)
		}
		if unsafe.SliceData(got) != unsafe.SliceData(a.Span(c.i)) {
			t.Fatalf("Chunk(%d, %d) is not slot %d's memory", c.i, c.n, c.i)
		}
	}
}

// TestPeekNeverPagesIn: Peek is Chunk where the slot's allocation exists —
// the dense region, a page some slot of which was reached — and nil, with
// no allocation, in a page never reached.
func TestPeekNeverPagesIn(t *testing.T) {
	l := Layout{Dense: 5, Cap: 5 + 2*PageSlots}
	a := Make[int](l)
	*a.At(5 + PageSlots + 7) = 1 // reaches the second page only
	for _, c := range []struct {
		i, n, want int
	}{
		{0, 3, 3}, {4, 9, 1}, {5, 9, 0}, {5 + PageSlots - 1, 9, 0}, {5 + PageSlots, 9, 9}, {5 + 2*PageSlots - 2, 9, 2},
	} {
		var got []int
		if allocs := testing.AllocsPerRun(10, func() { got = a.Peek(c.i, c.n) }); allocs != 0 {
			t.Fatalf("Peek(%d, %d) allocated", c.i, c.n)
		}
		if len(got) != c.want || (got != nil && unsafe.SliceData(got) != a.At(c.i)) {
			t.Fatalf("Peek(%d, %d) = %d slots, want %d of slot %d's memory", c.i, c.n, len(got), c.want, c.i)
		}
	}
	if a.more.pages[0].Load() != nil {
		t.Fatal("Peek paged in the first page")
	}
}

// TestConcurrentFirstTouch: goroutines reaching the same fresh pages at
// once agree on one page each — writes through any of them are seen
// through all — which the race detector checks too.
func TestConcurrentFirstTouch(t *testing.T) {
	const workers = 4
	l := Layout{Dense: 0, Cap: 4 * PageSlots}
	a := Make[int64](l)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < l.Cap; i += workers {
				*a.At(i) = int64(i)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < l.Cap; i++ {
		if got := *a.At(i); got != int64(i) {
			t.Fatalf("slot %d = %d: a write went to a page that lost the race", i, got)
		}
	}
}

// withProcs runs f at GOMAXPROCS procs.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestSplitDenseRegion: a dense region of splitBytes or more is one extent
// per GOMAXPROCS, each init-ed once with its own first slot, and At, Span
// and Chunk agree with a plain slice on both sides of every extent edge —
// Chunk stopping at each edge — and across into the paged region.
func TestSplitDenseRegion(t *testing.T) {
	const w = 3
	dense := splitBytes/w + 7 // 7 slots past the split size, so the last extent is short
	l := Layout{Dense: dense, Cap: dense + PageSlots + 5}
	ref := make([]byte, l.Cap*w) // slot i's elements are byte(i), byte(i>>8), byte(i>>16)
	for i := 0; i < l.Cap; i++ {
		ref[i*w], ref[i*w+1], ref[i*w+2] = byte(i), byte(i>>8), byte(i>>16)
	}
	for _, procs := range []int{2, 3} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			var (
				mu     sync.Mutex
				firsts []int
			)
			var a Array[byte]
			withProcs(procs, func() {
				a = MakeWith(l, w, func(s []byte, first int) {
					copy(s, ref[first*w:])
					mu.Lock()
					firsts = append(firsts, first)
					mu.Unlock()
				})
			})
			per := (dense + procs - 1) / procs
			var want []int
			for first := 0; first < dense; first += per {
				want = append(want, first)
			}
			slices.Sort(firsts)
			if len(a.more.ext) != procs || !slices.Equal(firsts, want) {
				t.Fatalf("%d extents with init at slots %v, want %d at %v", len(a.more.ext), firsts, procs, want)
			}
			ends := append(want[1:len(want):len(want)], dense) // where each extent stops
			var probes []int
			for _, e := range append(ends, dense+PageSlots) {
				probes = append(probes, e-1, e)
			}
			for _, i := range append(probes, 0, l.Cap-1) {
				if got := a.Span(i); !slices.Equal(got, ref[i*w:(i+1)*w]) || cap(got) != w {
					t.Fatalf("Span(%d) = %v (cap %d), want %v", i, got, cap(got), ref[i*w:(i+1)*w])
				}
				end := min(dense+(i-dense)/PageSlots*PageSlots+PageSlots, l.Cap) // i's page's end
				if k := slices.IndexFunc(ends, func(e int) bool { return i < e }); k >= 0 {
					end = ends[k]
				}
				for _, n := range []int{1, 2, end - i, end - i + 1} {
					k := min(n, end-i)
					if got := a.Chunk(i, n); !slices.Equal(got, ref[i*w:(i+k)*w]) || cap(got) != len(got) {
						t.Fatalf("Chunk(%d, %d) = %d bytes, want slots [%d, %d)", i, n, len(got), i, i+k)
					}
				}
			}
		})
	}
}

// TestSplitAtMatchesSlice: At, one element per slot, is each slot's element
// on both sides of every extent edge.
func TestSplitAtMatchesSlice(t *testing.T) {
	dense := splitBytes/8 + 1
	var a Array[int64]
	withProcs(2, func() {
		a = MakeWith(Fixed(dense), 1, func(s []int64, first int) {
			for j := range s {
				s[j] = int64(first + j)
			}
		})
	})
	if len(a.more.ext) != 2 {
		t.Fatalf("%d extents, want 2", len(a.more.ext))
	}
	for _, i := range []int{0, a.n - 1, a.n, a.n + 1, dense - 1} {
		if got := *a.At(i); got != int64(i) {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
	for _, i := range []int{-1, dense} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			a.At(i)
		}()
	}
}

// TestSplitAllocations: a dense region below splitBytes, or at any size under
// GOMAXPROCS 1, is one allocation. A split one is GOMAXPROCS extents and
// their directory, plus a goroutine's closure per extent beyond the first,
// the shared fill closure and its WaitGroup, which are garbage once MakeWith
// returns: 2 × GOMAXPROCS + 2 objects, however large the region. The
// runtime may add its own for the goroutines — a g when none is free to
// reuse, a sudog when the wait blocks after a collection emptied the cache —
// so a count is the least of three and may exceed that by GOMAXPROCS.
func TestSplitAllocations(t *testing.T) {
	objects := func(procs, bytes int) uint64 {
		least := uint64(1 << 63)
		withProcs(procs, func() {
			for range 3 {
				var before, after runtime.MemStats
				runtime.GC() // a GC starts a mark worker per P: let it happen here, not in the count
				runtime.ReadMemStats(&before)
				a := Make[byte](Fixed(bytes))
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(a)
				least = min(least, after.Mallocs-before.Mallocs)
			}
		})
		return least
	}
	for _, c := range []struct{ procs, bytes int }{{1, splitBytes}, {1, 2 * splitBytes}, {2, splitBytes - 1}} {
		if got := objects(c.procs, c.bytes); got != 1 {
			t.Errorf("%d B at GOMAXPROCS %d: %d allocations, want 1", c.bytes, c.procs, got)
		}
	}
	for _, procs := range []int{2, 4} {
		want := uint64(2*procs + 2)
		for _, bytes := range []int{splitBytes, 2 * splitBytes} {
			if got := objects(procs, bytes); got < want || got > want+uint64(procs) {
				t.Errorf("%d B at GOMAXPROCS %d: %d allocations, want %d to %d", bytes, procs, got, want, want+uint64(procs))
			}
		}
	}
}

var sink int64

// BenchmarkAt reads every slot of a dense and of a paged region in turn:
// the access cost every per-slot structure pays on each tuple it touches.
func BenchmarkAt(b *testing.B) {
	const n = 1 << 14
	for _, c := range []struct {
		name string
		l    Layout
	}{{"dense", Fixed(n)}, {"paged", Layout{Dense: 0, Cap: n}}} {
		b.Run(c.name, func(b *testing.B) {
			a := Make[int64](c.l)
			for i := 0; i < n; i++ {
				*a.At(i) = int64(i)
			}
			b.ResetTimer()
			var s int64
			for i := 0; i < b.N; i++ {
				s += *a.At(i & (n - 1))
			}
			sink = s
		})
	}
}
