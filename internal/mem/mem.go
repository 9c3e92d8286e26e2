// Package mem implements the DBMS's memory allocator (§4.1 of the paper).
// The paper found stock malloc to be the first scalability wall — even
// read-only workloads allocate constantly (read copies in TIMESTAMP/OCC,
// access-tracking metadata) — and replaced it with per-thread pools that
// resize with the workload. We reproduce both designs:
//
//   - Arena: a per-worker pool. Allocation is a pointer bump whose pool
//     grows geometrically, amortizing refill costs exactly like the
//     paper's auto-resizing pools. No cross-core traffic.
//   - GlobalPool: a single latch-protected pool standing in for a
//     centralized malloc; every allocation serializes on one latch. Used
//     by the malloc ablation benchmark to reproduce the paper's finding.
package mem

import (
	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
)

// Allocator hands out transient per-transaction buffers (read copies, undo
// images, write workspaces). Buffers are bulk-released via Reset at
// transaction boundaries, mirroring DBx1000's per-transaction pools.
type Allocator interface {
	// Alloc returns an n-byte buffer, billing the allocation to c.
	Alloc(p rt.Proc, c stats.Component, n int) []byte
	// Reset recycles everything allocated since the last Reset.
	Reset()
}

// Arena is the per-worker resizable pool. Not safe for concurrent use;
// each worker owns one.
type Arena struct {
	chunk    []byte
	off      int
	minChunk int
}

// NewArena creates a per-worker pool with the given initial chunk size.
func NewArena(initial int) *Arena {
	if initial < 1024 {
		initial = 1024
	}
	return &Arena{chunk: make([]byte, initial), minChunk: initial}
}

// Alloc implements Allocator.
func (a *Arena) Alloc(p rt.Proc, c stats.Component, n int) []byte {
	p.Tick(c, costs.AllocBase+costs.CopyCost(uint64(n))/8)
	if a.off+n > len(a.chunk) {
		// Auto-resize: double (at least) so repeated large requests
		// amortize, the paper's dynamic pool resizing.
		size := len(a.chunk) * 2
		for size < n {
			size *= 2
		}
		a.chunk = make([]byte, size)
		a.off = 0
		// Growing the pool costs a coarse-grained allocation.
		p.Tick(c, costs.AllocBase*8)
	}
	b := a.chunk[a.off : a.off+n : a.off+n]
	a.off += n
	return b
}

// Reset implements Allocator. The chunk is retained (and with it any
// growth), so steady-state transactions allocate without refills.
func (a *Arena) Reset() { a.off = 0 }

// GlobalPool models a centralized allocator: one latch serializes every
// allocation from every core. It exists to reproduce the paper's §4.1
// observation that stock malloc dominates execution time at high core
// counts; the DBMS proper always uses Arena.
type GlobalPool struct {
	latch rt.Latches // a slab of one
}

// NewGlobalPool creates the centralized allocator on runtime r.
func NewGlobalPool(r rt.Runtime) *GlobalPool {
	return &GlobalPool{latch: r.NewLatches(0xA110C, slot.Fixed(1))}
}

// Bound returns a per-worker view of the pool implementing Allocator.
func (g *GlobalPool) Bound() Allocator { return &globalAlloc{pool: g} }

type globalAlloc struct {
	pool *GlobalPool
}

// Alloc implements Allocator: serialize on the global latch, pay the
// centralized allocator's longer instruction path, and hand back a buffer.
func (ga *globalAlloc) Alloc(p rt.Proc, c stats.Component, n int) []byte {
	ga.pool.latch.Acquire(p, c, 0)
	p.Sync(c, costs.GlobalAllocBase+costs.CopyCost(uint64(n))/8)
	ga.pool.latch.Release(p, c, 0)
	return make([]byte, n)
}

// Reset implements Allocator (a no-op: the global pool frees eagerly).
func (ga *globalAlloc) Reset() {}
