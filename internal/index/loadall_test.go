package index

import (
	"fmt"
	"runtime"
	"testing"

	"abyss1000/internal/native"
	"abyss1000/internal/storage"
)

// panicOf runs f and returns the value it panicked with, or "" if it did not.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// sameWords fails unless the two indexes hold the same heads, in the same
// bucket pages (read without paging any in), and, at every slot, the same
// keys and next words.
func sameWords(t *testing.T, want, got *Hash) {
	t.Helper()
	if want.heads.Len() != got.heads.Len() {
		t.Fatalf("%d heads, want %d", got.heads.Len(), want.heads.Len())
	}
	for i := 0; i < want.heads.Len(); i++ {
		w, g := want.heads.Peek(i, 1), got.heads.Peek(i, 1)
		if (w == nil) != (g == nil) {
			t.Fatalf("bucket %d's page reached: %v, want %v", i, g != nil, w != nil)
		}
		if w != nil && w[0] != g[0] {
			t.Fatalf("heads[%d] = %+v, want %+v", i, g[0], w[0])
		}
	}
	for s := 0; s < want.next.Len(); s++ {
		if wk, gk := *want.keys.At(s), *got.keys.At(s); wk != gk {
			t.Fatalf("keys[%d] = %d, want %d", s, gk, wk)
		}
		if wn, gn := *want.next.At(s), *got.next.At(s); wn != gn {
			t.Fatalf("next[%d] = %d, want %d", s, gn, wn)
		}
	}
}

// TestLoadAllMatchesLoadInsert: LoadAll(n, key) leaves heads, keys and next
// word for word as the loop of LoadInsert(key(s), s) over s in [0, n) does,
// and panics where the loop panics, with its message and the same words
// behind it. The sizes sit on either side of one 4 096-bucket partition;
// the bucket counts are below and above n; keys are distinct, duplicated on
// distinct slots (equal keys share a chain), or seven in all (long chains);
// the index may already hold mappings of slots past n, which the loop
// chains behind; and the table may have no loaded rows, so that both reach
// bucket pages as they go.
func TestLoadAllMatchesLoadInsert(t *testing.T) {
	keyings := []struct {
		name string
		key  func(s int) uint64
	}{
		{"distinct", func(s int) uint64 { return uint64(s) * 0x9e3779b1 }},
		{"duplicates", func(s int) uint64 { return uint64(s / 3) }},
		{"seven-keys", func(s int) uint64 { return uint64(s % 7) }},
	}
	const extra = 40 // slots past n, mapped beforehand in the "premapped" runs
	build := func(n, buckets int, premapped, insertOnly bool) *Hash {
		schema := storage.NewSchema("ACCOUNTS", storage.Col{Name: "K", Width: 8})
		// Half the slots loaded, the rest of [0, n) in the paged region; or
		// none, and the buckets paged too.
		loaded := n / 2
		if insertOnly {
			loaded = 0
		}
		h := New(native.New(1, 1), storage.NewTable(0, schema, n+extra, loaded, 1), buckets)
		if premapped {
			for s := n; s < n+extra; s++ {
				h.LoadInsert(uint64(s%5), s)
			}
		}
		return h
	}
	for _, n := range []int{0, 1, 4_095, 4_096, 4_097, 250_000} {
		for _, buckets := range []int{max(n/8, 1), 4 * n} {
			for _, k := range keyings {
				for _, premapped := range []bool{false, true} {
					for _, insertOnly := range []bool{false, true} {
						if n == 250_000 && (k.name != "distinct" || premapped) {
							continue // the workloads' shape only; the rest is covered at the smaller sizes
						}
						name := fmt.Sprintf("n=%d/buckets=%d/%s/premapped=%v", n, buckets, k.name, premapped)
						if insertOnly {
							name = "insert-only/" + name
						}
						t.Run(name, func(t *testing.T) {
							want, got := build(n, buckets, premapped, insertOnly), build(n, buckets, premapped, insertOnly)
							for s := 0; s < n; s++ {
								want.LoadInsert(k.key(s), s)
							}
							got.LoadAll(n, k.key)
							sameWords(t, want, got)
						})
					}
				}
			}
		}
	}

	// Heads over a dense region of 16 MiB or more are one extent per
	// GOMAXPROCS; at three, extent ends fall inside partitions, whose heads
	// then span two allocations.
	t.Run("split-heads", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
		const n, buckets = 250_000, 1 << 21
		want, got := build(n, buckets, false, false), build(n, buckets, false, false)
		if len(got.heads.Chunk(0, buckets)) == buckets {
			t.Fatal("heads are one allocation; want one extent per GOMAXPROCS")
		}
		for s := 0; s < n; s++ {
			want.LoadInsert(keyings[0].key(s), s)
		}
		got.LoadAll(n, keyings[0].key)
		sameWords(t, want, got)
	})

	// A slot LoadInsert refuses: past the table's capacity, or mapped
	// already (at the first slot, inside the first partition, in a later
	// one, at the last).
	refusals := []struct {
		name   string
		n      int
		mapped []int // slots mapped before the load
	}{
		{"past-capacity", 10_000 + extra + 3, nil},
		{"mapped-first", 10_000, []int{0}},
		{"mapped-early", 10_000, []int{17, 9_000}},
		{"mapped-late", 10_000, []int{9_000}},
		{"mapped-last", 10_000, []int{9_999}},
	}
	for _, r := range refusals {
		t.Run(r.name, func(t *testing.T) {
			key := keyings[0].key
			want, got := build(10_000, 1<<15, false, false), build(10_000, 1<<15, false, false)
			for _, h := range []*Hash{want, got} {
				for _, s := range r.mapped {
					h.LoadInsert(uint64(s)+7, s)
				}
			}
			wantMsg := panicOf(func() {
				for s := 0; s < r.n; s++ {
					want.LoadInsert(key(s), s)
				}
			})
			gotMsg := panicOf(func() { got.LoadAll(r.n, key) })
			if wantMsg == "" {
				t.Fatal("the LoadInsert loop did not panic")
			}
			if gotMsg != wantMsg {
				t.Fatalf("LoadAll panicked with %q, want %q", gotMsg, wantMsg)
			}
			sameWords(t, want, got)
		})
	}
}
