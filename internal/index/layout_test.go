package index

import (
	"math/rand"
	"testing"
	"unsafe"

	"abyss1000/internal/sim"
	"abyss1000/internal/storage"
)

// A hash bucket is 8 bytes and a B+tree node is its header plus its fixed
// arrays; a stray field shows up here as a one-line diff.
func TestHeadSize(t *testing.T) {
	if got := unsafe.Sizeof(head{}); got != 8 {
		t.Fatalf("head is %d bytes, want 8", got)
	}
}

// The 96-byte onode header (leaf flag, three slice headers, next, id) plus,
// at fanout 32, 33 keys and 33 slots (leaf) or 32 keys and 33 children.
func TestNodeStoreSize(t *testing.T) {
	if got := unsafe.Sizeof(leafNode{}); got != 496 {
		t.Fatalf("leafNode is %d bytes, want 496", got)
	}
	if got := unsafe.Sizeof(innerNode{}); got != 616 {
		t.Fatalf("innerNode is %d bytes, want 616", got)
	}
}

// checkNodeStores walks the tree and fails if any node's slices have left
// the fixed arrays newNode pointed them at: an append past capacity would
// move them to a fresh, larger backing array.
func checkNodeStores(t *testing.T, n *onode) {
	t.Helper()
	if n.leaf {
		l := (*leafNode)(unsafe.Pointer(n))
		if unsafe.SliceData(n.keys) != &l.keyStore[0] || cap(n.keys) != len(l.keyStore) ||
			unsafe.SliceData(n.slots) != &l.slotStore[0] || cap(n.slots) != len(l.slotStore) {
			t.Fatalf("leaf %d: keys/slots (cap %d/%d) no longer view the node's own arrays", n.id, cap(n.keys), cap(n.slots))
		}
		return
	}
	in := (*innerNode)(unsafe.Pointer(n))
	if unsafe.SliceData(n.keys) != &in.keyStore[0] || cap(n.keys) != len(in.keyStore) ||
		unsafe.SliceData(n.kids) != &in.kidStore[0] || cap(n.kids) != len(in.kidStore) {
		t.Fatalf("inner %d: keys/kids (cap %d/%d) no longer view the node's own arrays", n.id, cap(n.keys), cap(n.kids))
	}
	for _, k := range n.kids {
		checkNodeStores(t, k)
	}
}

// TestOrderedNodeStorageNeverMoves: whatever order keys arrive in, and with
// removes in between, every node keeps the capacity newNode gave it.
func TestOrderedNodeStorageNeverMoves(t *testing.T) {
	const n = 40000 // three levels at fanout 32: inner nodes split too
	perm := rand.New(rand.NewSource(5)).Perm(n)
	runs := []struct {
		name string
		key  func(i int) uint64
	}{
		{"ascending", func(i int) uint64 { return uint64(i) }},
		{"descending", func(i int) uint64 { return uint64(n - i) }},
		{"random", func(i int) uint64 { return uint64(perm[i]) }},
		{"duplicates", func(i int) uint64 { return uint64(perm[i] % 50) }},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			schema := storage.NewSchema("T", storage.Col{Name: "K", Width: 8})
			o := NewOrdered(sim.New(1, 1), storage.NewTable(0, schema, n, n, 1))
			for i := 0; i < n; i++ {
				o.LoadInsert(r.key(i), i)
				if i%7 == 3 {
					o.remove(r.key(i-1), int32(i-1))
				}
				if i%1000 == 0 {
					checkNodeStores(t, o.root)
				}
			}
			checkNodeStores(t, o.root)
			if o.depth() < 3 {
				t.Fatalf("tree of %d entries is only %d deep; inner splits not exercised", o.Len(), o.depth())
			}
		})
	}
}
