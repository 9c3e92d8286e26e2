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

// entry is one key→slot mapping of a bucket's overflow chain.
type entry struct {
	key  uint64
	slot int32
}

// bucket is one hash bucket: an open chain of key→slot mappings. The first
// inlineEntries live directly in the bucket — keys and slots in parallel
// arrays, so the count fits in what would be padding and the bucket is 40
// bytes — and inserting into a fresh bucket, the common case when the
// bucket count is sized to the key count, touches no allocator at all; only
// collision chains longer than the inline space spill into the overflow
// list, behind one pointer. This keeps the runtime insert path (TPC-C's
// ORDERS/ORDER_LINE/HISTORY appends) steady-state allocation-free. The
// bucket's latch is element i of the index's latch slab.
type bucket struct {
	keys     [inlineEntries]uint64
	slots    [inlineEntries]int32
	n        int32 // total entries (inline + overflow)
	overflow *overflow
}

// overflow is the tail of a chain longer than inlineEntries. The list starts
// in buf, so the first spill is one allocation that a hot bucket settles in.
type overflow struct {
	entries []entry
	buf     [4]entry
}

// inlineEntries is the per-bucket inline capacity.
const inlineEntries = 2

// at returns entry i of the bucket's logical chain.
func (b *bucket) at(i int32) (key uint64, slot int) {
	if i < inlineEntries {
		return b.keys[i], int(b.slots[i])
	}
	e := b.overflow.entries[i-inlineEntries]
	return e.key, int(e.slot)
}

// set overwrites entry i of the chain.
func (b *bucket) set(i int32, key uint64, slot int) {
	if i < inlineEntries {
		b.keys[i], b.slots[i] = key, int32(slot)
	} else {
		b.overflow.entries[i-inlineEntries] = entry{key: key, slot: int32(slot)}
	}
}

// push appends a mapping to the chain.
func (b *bucket) push(key uint64, slot int) {
	if b.n >= inlineEntries {
		if b.overflow == nil {
			b.overflow = new(overflow)
			b.overflow.entries = b.overflow.buf[:0]
		}
		b.overflow.entries = append(b.overflow.entries, entry{})
	}
	b.n++
	b.set(b.n-1, key, slot)
}

// find returns the slot of the chain's first mapping of key.
func (b *bucket) find(key uint64) (int, bool) {
	for j := int32(0); j < b.n; j++ {
		if k, slot := b.at(j); k == key {
			return slot, true
		}
	}
	return -1, false
}

// Hash is a fixed-bucket-count hash index from uint64 keys to row slots.
// All mutation happens under per-bucket latches, so the index is safe on
// both the simulated and native runtimes.
type Hash struct {
	meta
	buckets []bucket
	latches rt.Latches // latch i guards buckets[i]
	mask    uint64
}

// New creates an index over table with at least minBuckets buckets
// (rounded up to a power of two).
func New(r rt.Runtime, table *storage.Table, minBuckets int) *Hash {
	n := 1
	for n < minBuckets {
		n <<= 1
	}
	return &Hash{
		meta:    meta{table: table},
		buckets: make([]bucket, n),
		latches: r.NewLatches(uint64(table.ID)<<48|0xB0<<40, n),
		mask:    uint64(n - 1),
	}
}

func (h *Hash) bucketOf(key uint64) (*bucket, int) {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	i := int(z & h.mask)
	return &h.buckets[i], i
}

// memKey identifies the bucket's cache line for NUCA placement.
func (h *Hash) memKey(i int) uint64 {
	return uint64(h.table.ID)<<48 | 0xB1<<40 | uint64(i)
}

// Lookup probes for key, returning the row slot and whether it was found.
// The probe latches the bucket (the paper bills bucket latching to INDEX).
func (h *Hash) Lookup(p rt.Proc, key uint64) (int, bool) {
	b, i := h.bucketOf(key)
	h.latches.Acquire(p, stats.Index, i)
	p.MemRead(stats.Index, h.memKey(i), 16)
	p.Tick(stats.Index, costs.IndexProbe+uint64(b.n))
	slot, ok := b.find(key)
	h.latches.Release(p, stats.Index, i)
	return slot, ok
}

// Insert adds a key→slot mapping. Duplicate keys are allowed at this layer
// (the workloads use unique keys; the engine's deferred-insert protocol
// guarantees a slot becomes visible exactly once).
func (h *Hash) Insert(p rt.Proc, key uint64, slot int) {
	b, i := h.bucketOf(key)
	h.latches.Acquire(p, stats.Index, i)
	p.MemWrite(stats.Index, h.memKey(i), 16)
	p.Tick(stats.Index, costs.IndexInsert)
	b.push(key, slot)
	h.latches.Release(p, stats.Index, i)
}

// Remove deletes the key→slot mapping if present (used when rolling back a
// committed-insert is required, e.g. TPC-C NewOrder user aborts), and
// reports whether it removed anything.
func (h *Hash) Remove(p rt.Proc, key uint64, slot int) bool {
	b, i := h.bucketOf(key)
	h.latches.Acquire(p, stats.Index, i)
	p.MemWrite(stats.Index, h.memKey(i), 16)
	p.Tick(stats.Index, costs.IndexProbe+uint64(b.n))
	removed := false
	for j := int32(0); j < b.n; j++ {
		if k, s := b.at(j); k == key && s == slot {
			lk, ls := b.at(b.n - 1)
			b.set(j, lk, ls) // swap-delete with the chain's last entry
			if b.n > inlineEntries {
				b.overflow.entries = b.overflow.entries[:len(b.overflow.entries)-1]
			}
			b.n--
			removed = true
			break
		}
	}
	h.latches.Release(p, stats.Index, i)
	return removed
}

// LoadInsert adds a mapping during single-threaded setup with no latching
// or cost accounting.
func (h *Hash) LoadInsert(key uint64, slot int) {
	b, _ := h.bucketOf(key)
	b.push(key, slot)
}

// LoadLookup probes for key during single-threaded setup or recovery, with
// no latching or cost accounting.
func (h *Hash) LoadLookup(key uint64) (int, bool) {
	b, _ := h.bucketOf(key)
	return b.find(key)
}

// Range implements Index, in bucket order.
func (h *Hash) Range(f func(key uint64, slot int)) {
	for i := range h.buckets {
		b := &h.buckets[i]
		for j := int32(0); j < b.n; j++ {
			f(b.at(j))
		}
	}
}

// CompositeKey packs up to four small ids into one uint64 index key,
// used by TPC-C's multi-column primary keys (e.g. district = (W_ID, D_ID)).
func CompositeKey(a, b, c, d uint64) uint64 {
	return a<<48 | b<<32 | c<<16 | d
}
