// Package slot is the one array type every structure indexed by table slot
// is built on: a table's rows, a scheme's per-tuple entries, latches and
// version words, a hash index's chain links. It exists so that capacity a
// table reserves for inserts costs nothing until rows land in it — the
// paper's per-thread memory pools grow with the workload (§4.1), they are
// not sized for the worst case up front.
//
// An Array follows a Layout. Slots [0, Dense) — a table's loaded rows — are
// allocated by Make, exactly as a plain slice would be: in one allocation,
// or, from splitBytes up, in one extent per GOMAXPROCS, each made and
// zeroed on a core of its own, as the paper's test-bed loads its tables
// with parallel loader threads. Slots [Dense, Cap) — its insert region —
// live in pages of PageSlots slots, each allocated the first time any slot
// in it is reached. A page pointer is published with a compare-and-swap, so
// on the native runtime two workers touching a fresh page at once agree on
// one page without a latch, and a reader that finds the pointer set sees
// the page's initialised contents. A walk over every slot reads through
// Peek, which sees a page never reached as nil and never pages one in.
package slot

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// PageSlots is the number of slots one page of an Array's paged region
// holds (the last page holds only what is left of the region).
const PageSlots = 1 << pageShift

const pageShift = 12

// splitBytes is the dense region size from which MakeWith zeroes it on every
// core. Below it one core zeroes as fast as two (measured on a 2-vCPU Xeon:
// 16 MiB takes ≈ 1.2 ms either way, 24 MiB 2.6 ms on one core and 1.1 ms
// on two), and the array keeps one allocation.
const splitBytes = 16 << 20

// Layout is the shape of a slot space: Cap slots, the first Dense of them
// allocated up front and the rest a page at a time.
type Layout struct {
	Dense, Cap int
}

// Fixed is the layout of n slots all allocated up front.
func Fixed(n int) Layout { return Layout{Dense: n, Cap: n} }

// Pages returns the number of pages l's paged region spans.
func (l Layout) Pages() int { return (l.Cap - l.Dense + PageSlots - 1) >> pageShift }

// Array is a slot-indexed array of T with width elements per slot. The zero
// Array has no slots.
type Array[T any] struct {
	dense []T // extent 0: slots [0, n)
	n     int // slots in dense
	width int
	more  *more[T] // nil if dense is every slot
}

// more is what an Array has beyond its first extent: the other extents of
// a split dense region and the paged region. A small fixed array — a slab
// of one latch, a counter per worker — has neither, and so is its header
// and its elements alone.
type more[T any] struct {
	ext   [][]T               // a split dense region's extents of n slots each, dense first; nil if unsplit
	pages []atomic.Pointer[T] // first element of page k, nil until first use
	base  int                 // Dense: the paged region's first slot
	cap   int
	init  func(s []T, first int)
}

// Make returns an array over l with one zero T per slot.
func Make[T any](l Layout) Array[T] { return MakeWith[T](l, 1, nil) }

// MakeWith returns an array over l with width elements per slot. A non-nil
// init is called on every allocation before any element of it is handed
// out — each extent of the dense region here, each page as it is paged in —
// with the allocation and the number of its first slot. It must depend on
// nothing but its arguments: the extents' calls run concurrently, and two
// first touches of one page may both run it, one result being dropped.
func MakeWith[T any](l Layout, width int, init func(s []T, first int)) Array[T] {
	if l.Dense < 0 || l.Dense > l.Cap || width <= 0 {
		panic(fmt.Sprintf("slot: bad layout %+v or width %d", l, width))
	}
	a := Array[T]{n: l.Dense, width: width}
	procs := runtime.GOMAXPROCS(0)
	split := procs > 1 && uintptr(l.Dense*width)*unsafe.Sizeof(*new(T)) >= splitBytes
	if split || l.Cap > l.Dense {
		a.more = &more[T]{pages: make([]atomic.Pointer[T], l.Pages()), base: l.Dense, cap: l.Cap, init: init}
	}
	if !split {
		a.dense = make([]T, l.Dense*width)
		if init != nil && l.Dense > 0 {
			init(a.dense, 0)
		}
		return a
	}
	a.n = (l.Dense + procs - 1) / procs
	a.more.ext = makeExtents(l.Dense, a.n, width, init)
	a.dense = a.more.ext[0]
	return a
}

// makeExtents makes and inits the extents of n slots each that cover dense
// slots, the first on the calling goroutine and every other on its own.
func makeExtents[T any](dense, n, width int, init func(s []T, first int)) [][]T {
	ext := make([][]T, (dense+n-1)/n)
	fill := func(k int) {
		first := k * n
		s := make([]T, (min(first+n, dense)-first)*width)
		if init != nil {
			init(s, first)
		}
		ext[k] = s
	}
	var wg sync.WaitGroup
	wg.Add(len(ext) - 1)
	for k := 1; k < len(ext); k++ {
		go func() {
			defer wg.Done()
			fill(k)
		}()
	}
	fill(0)
	wg.Wait()
	return ext
}

// Len returns the number of slots.
func (a *Array[T]) Len() int {
	if a.more == nil {
		return a.n
	}
	return a.more.cap
}

// At returns slot i's element; the array has one element per slot, so the
// first extent is exactly len(a.dense) slots.
func (a *Array[T]) At(i int) *T {
	if uint(i) < uint(len(a.dense)) {
		return &a.dense[i]
	}
	return a.paged(i)
}

// Span returns slot i's width elements.
func (a *Array[T]) Span(i int) []T {
	w := a.width
	if i < a.n {
		return a.dense[i*w : (i+1)*w : (i+1)*w]
	}
	return unsafe.Slice(a.paged(i), w)
}

// Chunk returns the elements of slots [i, i+k) for the largest k <= n whose
// slots share one allocation: all n of them unless the run crosses the end
// of an extent of the dense region or of a page. n must be positive.
func (a *Array[T]) Chunk(i, n int) []T {
	w := a.width
	if i < a.n {
		e := min(i+n, a.n) * w
		return a.dense[i*w : e : e]
	}
	m := a.more
	if m == nil {
		return unsafe.Slice(a.pageIn(i), 0) // outside the array: pageIn panics
	}
	if i < m.base {
		s, first := a.extent(i)
		e := min(i-first+n, len(s)/w) * w
		return s[(i-first)*w : e : e]
	}
	k := min(n, PageSlots-((i-m.base)&(PageSlots-1)), m.cap-i)
	return unsafe.Slice(a.paged(i), k*w)
}

// Peek is Chunk for a reader that must not page anything in: where slot i
// lies in a page no slot of which has been reached it returns nil, and it
// never allocates.
func (a *Array[T]) Peek(i, n int) []T {
	if m := a.more; m != nil {
		if j := i - m.base; j >= 0 && i < m.cap && m.pages[j>>pageShift].Load() == nil {
			return nil
		}
	}
	return a.Chunk(i, n)
}

// extent returns the extent of a split dense region that holds slot i, and
// the extent's first slot.
func (a *Array[T]) extent(i int) ([]T, int) {
	k := i / a.n
	return a.more.ext[k], k * a.n
}

// paged returns the first element of slot i beyond the first extent: in a
// later extent of a split dense region, or in the paged region, a load of
// its page pointer and an offset. A page not yet allocated, and any slot
// outside the array, go to pageIn, which keeps this path short.
func (a *Array[T]) paged(i int) *T {
	m := a.more
	if m == nil {
		return a.pageIn(i)
	}
	if uint(i) < uint(m.base) {
		s, first := a.extent(i)
		return &s[(i-first)*a.width]
	}
	j := i - m.base
	if k := j >> pageShift; uint(k) < uint(len(m.pages)) && i < m.cap {
		if p := m.pages[k].Load(); p != nil {
			return (*T)(unsafe.Add(unsafe.Pointer(p), uintptr((j&(PageSlots-1))*a.width)*unsafe.Sizeof(*p)))
		}
	}
	return a.pageIn(i)
}

// pageIn allocates and publishes the page of slot i of the paged region,
// or takes the page a concurrent first touch published before it, and
// returns slot i's first element; a slot outside the paged region panics.
func (a *Array[T]) pageIn(i int) *T {
	m := a.more
	if m == nil || i < m.base || i >= m.cap {
		panic(fmt.Sprintf("slot: slot %d outside [0, %d)", i, a.Len()))
	}
	k := (i - m.base) >> pageShift
	first := m.base + k<<pageShift
	s := make([]T, min(PageSlots, m.cap-first)*a.width)
	if m.init != nil {
		m.init(s, first)
	}
	if !m.pages[k].CompareAndSwap(nil, &s[0]) {
		s = unsafe.Slice(m.pages[k].Load(), len(s))
	}
	return &s[(i-first)*a.width]
}
