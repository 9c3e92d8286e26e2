// Package index implements the DBMS's indexes: the paper's hash index
// (§3.2: "the system supports basic hash table indexes") and an ordered
// B+tree, both behind the Index interface. Their latches' cost — like the
// paper's — is billed to the INDEX component, and their cache lines are
// placed across the chip's L2 slices so probes pay realistic NUCA latency
// under simulation.
package index

import (
	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
)

// Index is what the engine registers, publishes inserts into, logs,
// checkpoints and recovers through, whichever structure is behind it. The
// transactional reads (Hash.Lookup, Ordered.RangeScan) stay on the
// concrete types, so they pay no dynamic dispatch.
type Index interface {
	Table() *storage.Table

	// Ordinal is the position in the DB's registration order that WAL
	// records name the index by; the catalogue sets it at registration.
	Ordinal() int
	SetOrdinal(ord int)

	// Insert publishes key→slot under the index's latches, billed to INDEX.
	Insert(p rt.Proc, key uint64, slot int)

	// LoadInsert and LoadLookup are the latch- and cost-free forms for
	// single-threaded setup and recovery; Range, likewise quiesced-only,
	// visits every mapping (checkpointing, state dumps).
	LoadInsert(key uint64, slot int)
	LoadLookup(key uint64) (int, bool)
	Range(f func(key uint64, slot int))
}

// meta is the part of Index both kinds implement the same way.
type meta struct {
	table *storage.Table
	ord   int
}

func (m *meta) Table() *storage.Table { return m.table }
func (m *meta) Ordinal() int          { return m.ord }
func (m *meta) SetOrdinal(ord int)    { m.ord = ord }

// entry is one key→slot mapping.
type entry struct {
	key  uint64
	slot int32
}

// bucket is one hash bucket: a latch plus an open chain of entries. The
// first inlineEntries mappings live directly in the bucket, so inserting
// into a fresh bucket — the common case when the bucket count is sized to
// the key count — touches no allocator at all; only collision chains
// longer than the inline space spill into the overflow slice. This keeps
// the runtime insert path (TPC-C's ORDERS/ORDER_LINE/HISTORY appends)
// steady-state allocation-free.
type bucket struct {
	latch    rt.Latch
	n        int32 // total entries (inline + overflow)
	inline   [inlineEntries]entry
	overflow []entry
}

// inlineEntries is the per-bucket inline capacity.
const inlineEntries = 2

// at returns entry i of the bucket's logical chain.
func (b *bucket) at(i int32) *entry {
	if i < inlineEntries {
		return &b.inline[i]
	}
	return &b.overflow[i-inlineEntries]
}

// push appends a mapping to the chain.
func (b *bucket) push(e entry) {
	if b.n < inlineEntries {
		b.inline[b.n] = e
	} else {
		if b.overflow == nil {
			// First spill: reserve enough that a hot bucket settles
			// after one allocation.
			b.overflow = make([]entry, 0, 4)
		}
		b.overflow = append(b.overflow, e)
	}
	b.n++
}

// Hash is a fixed-bucket-count hash index from uint64 keys to row slots.
// All mutation happens under per-bucket latches, so the index is safe on
// both the simulated and native runtimes.
type Hash struct {
	meta
	buckets []bucket
	mask    uint64
}

// New creates an index over table with at least minBuckets buckets
// (rounded up to a power of two).
func New(r rt.Runtime, table *storage.Table, minBuckets int) *Hash {
	n := 1
	for n < minBuckets {
		n <<= 1
	}
	h := &Hash{meta: meta{table: table}, buckets: make([]bucket, n), mask: uint64(n - 1)}
	for i := range h.buckets {
		h.buckets[i].latch = r.NewLatch(uint64(table.ID)<<48 | 0xB0<<40 | uint64(i))
	}
	return h
}

func (h *Hash) bucketOf(key uint64) (*bucket, uint64) {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	i := z & h.mask
	return &h.buckets[i], i
}

// memKey identifies the bucket's cache line for NUCA placement.
func (h *Hash) memKey(i uint64) uint64 {
	return uint64(h.table.ID)<<48 | 0xB1<<40 | i
}

// Lookup probes for key, returning the row slot and whether it was found.
// The probe latches the bucket (the paper bills bucket latching to INDEX).
func (h *Hash) Lookup(p rt.Proc, key uint64) (int, bool) {
	b, i := h.bucketOf(key)
	b.latch.Acquire(p, stats.Index)
	p.MemRead(stats.Index, h.memKey(i), 16)
	p.Tick(stats.Index, costs.IndexProbe+uint64(b.n))
	slot, ok := -1, false
	for j := int32(0); j < b.n; j++ {
		if e := b.at(j); e.key == key {
			slot, ok = int(e.slot), true
			break
		}
	}
	b.latch.Release(p, stats.Index)
	return slot, ok
}

// Insert adds a key→slot mapping. Duplicate keys are allowed at this layer
// (the workloads use unique keys; the engine's deferred-insert protocol
// guarantees a slot becomes visible exactly once).
func (h *Hash) Insert(p rt.Proc, key uint64, slot int) {
	b, i := h.bucketOf(key)
	b.latch.Acquire(p, stats.Index)
	p.MemWrite(stats.Index, h.memKey(i), 16)
	p.Tick(stats.Index, costs.IndexInsert)
	b.push(entry{key: key, slot: int32(slot)})
	b.latch.Release(p, stats.Index)
}

// Remove deletes the key→slot mapping if present (used when rolling back a
// committed-insert is required, e.g. TPC-C NewOrder user aborts), and
// reports whether it removed anything.
func (h *Hash) Remove(p rt.Proc, key uint64, slot int) bool {
	b, i := h.bucketOf(key)
	b.latch.Acquire(p, stats.Index)
	p.MemWrite(stats.Index, h.memKey(i), 16)
	p.Tick(stats.Index, costs.IndexProbe+uint64(b.n))
	removed := false
	for j := int32(0); j < b.n; j++ {
		if e := b.at(j); e.key == key && int(e.slot) == slot {
			*e = *b.at(b.n - 1) // swap-delete with the chain's last entry
			if b.n > inlineEntries {
				b.overflow = b.overflow[:len(b.overflow)-1]
			}
			b.n--
			removed = true
			break
		}
	}
	b.latch.Release(p, stats.Index)
	return removed
}

// LoadInsert adds a mapping during single-threaded setup with no latching
// or cost accounting.
func (h *Hash) LoadInsert(key uint64, slot int) {
	b, _ := h.bucketOf(key)
	b.push(entry{key: key, slot: int32(slot)})
}

// LoadLookup probes for key during single-threaded setup or recovery, with
// no latching or cost accounting.
func (h *Hash) LoadLookup(key uint64) (int, bool) {
	b, _ := h.bucketOf(key)
	for j := int32(0); j < b.n; j++ {
		if e := b.at(j); e.key == key {
			return int(e.slot), true
		}
	}
	return -1, false
}

// Range implements Index, in bucket order.
func (h *Hash) Range(f func(key uint64, slot int)) {
	for i := range h.buckets {
		b := &h.buckets[i]
		for j := int32(0); j < b.n; j++ {
			e := b.at(j)
			f(e.key, int(e.slot))
		}
	}
}

// CompositeKey packs up to four small ids into one uint64 index key,
// used by TPC-C's multi-column primary keys (e.g. district = (W_ID, D_ID)).
func CompositeKey(a, b, c, d uint64) uint64 {
	return a<<48 | b<<32 | c<<16 | d
}
