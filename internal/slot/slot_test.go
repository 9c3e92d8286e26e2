package slot

import (
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
	if len(a.pages) != l.Pages() || l.Pages() != 3 {
		t.Fatalf("%d pages, want 3", len(a.pages))
	}
	if inits != 1 {
		t.Fatalf("init ran %d times for the dense region", inits)
	}
	for k := range a.pages {
		if a.pages[k].Load() != nil {
			t.Fatalf("page %d allocated before use", k)
		}
	}
	last := l.Cap - 1
	p := a.At(last)
	if *p != 1000+last || inits != 2 || a.pages[2].Load() == nil || a.pages[0].Load() != nil {
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
