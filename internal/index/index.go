// Package index implements the DBMS's indexes: the paper's hash index
// (§3.2: "the system supports basic hash table indexes") and an ordered
// B+tree, both behind the Index interface. Their cost — like the paper's —
// is billed to the INDEX component: an insert or remove takes its latch's
// line, while a probe or scan is a read section on the latch (rt.Latches)
// that pays only for the lines it reads. Those lines are placed across the
// chip's L2 slices so probes pay realistic NUCA latency under simulation.
//
// Neither structure calls the allocator per insert or holds a pointer per
// key. A hash index threads its chains through two arrays indexed by table
// slot, laid out like the table's rows (so an insert allocates only when it
// is the first to reach a page of them), which is why it maps a slot at most
// once (see Hash); a B+tree node owns fixed-capacity arrays and leaves come
// 64 to an allocation, so only a split can allocate.
package index

import (
	"fmt"

	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
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
	// setup and recovery, where one goroutine makes all of an index's calls
	// and no transaction runs (a loader may write rows on another goroutine
	// meanwhile); Range, likewise quiesced-only, visits every mapping
	// (checkpointing, state dumps).
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

// head is one hash bucket: the table slot its chain starts at and the
// chain's length. The chain itself is threaded through the index's per-slot
// arrays, so a bucket is 8 bytes (plus element i of the latch slab) and an
// insert touches no allocator, however long the chain grows.
type head struct {
	first, n int32
}

// Hash is a fixed-bucket-count hash index from uint64 keys to row slots.
// All mutation happens under per-bucket latches and every probe is a read
// section on its bucket's latch, so the index is safe on both the simulated
// and native runtimes.
//
// The buckets and their latches are two slot arrays of one layout. Over a
// table with loaded rows both are allocated in New; over an insert-only
// table (no loaded rows, such as TPC-C's ORDER_LINE) each page of 4 096
// buckets, heads and latches alike, is allocated when a probe or insert
// first reaches it, so an index sized for the table's capacity costs only
// its page directories until inserts arrive. The bucket count is the same
// either way, and so are every bucket's chain and latch key.
//
// A mapping is stored at its slot: keys[s] is the key slot s is mapped
// under and next[s] links s into its bucket's chain. That is the contract a
// hash index places on its callers — a slot lies in [0, table.Capacity())
// and is mapped at most once per hash index at a time (a row has one key
// per index); a violation is a bug in the caller and panics naming the
// index's table. Both arrays are pointer-free and follow the table's
// Layout: the loaded rows' part is allocated in New, an insert page's when
// the first insert reaches it.
type Hash struct {
	meta
	heads   slot.Array[head]
	latches rt.Latches // latch i guards heads[i] and the slots chained from it
	keys    slot.Array[uint64]
	// next[s] is link(the slot after s in its chain), or unmapped: zero, so
	// that a fresh page is all unmapped without being written. A chain is
	// heads[i].n slots long and walked by count, so the link of its last
	// slot is never followed (it holds a stale slot, never unmapped).
	next slot.Array[int32]
}

// unmapped is next[s] of a slot the index holds no mapping for; a mapped
// slot's next is link(s') >= 1 for some slot s'.
const unmapped = 0

// link encodes slot s as a chain word and unlink decodes it. Slots are at
// most storage.MaxCapacity-1, so s+1 fits an int32.
func link(s int32) int32   { return s + 1 }
func unlink(l int32) int32 { return l - 1 }

// New creates an index over table with at least minBuckets buckets
// (rounded up to a power of two). Its buckets are allocated here if the
// table has loaded rows and a page at a time on first use if it has none.
func New(r rt.Runtime, table *storage.Table, minBuckets int) *Hash {
	n := 1
	for n < minBuckets {
		n <<= 1
	}
	buckets := slot.Fixed(n)
	if table.Layout().Dense == 0 {
		buckets = slot.Layout{Dense: 0, Cap: n}
	}
	return &Hash{
		meta:    meta{table: table},
		heads:   slot.Make[head](buckets),
		latches: r.NewLatches(uint64(table.ID)<<48|0xB0<<40, buckets),
		keys:    slot.Make[uint64](table.Layout()),
		next:    slot.Make[int32](table.Layout()),
	}
}

// Bucket returns the bucket key hashes to in a hash index of n buckets, n
// a power of two: the index's hash function, for callers that aim keys at
// chosen buckets, as tests of bucket paging do.
func Bucket(key uint64, n int) int {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z & uint64(n-1))
}

// bucket returns the bucket key hashes to.
func (h *Hash) bucket(key uint64) int { return Bucket(key, h.heads.Len()) }

// memKey identifies the bucket's cache line for NUCA placement.
func (h *Hash) memKey(i int) uint64 {
	return uint64(h.table.ID)<<48 | 0xB1<<40 | uint64(i)
}

// push links key→s in at the front of b's chain.
func (h *Hash) push(b *head, key uint64, s int) {
	if s < 0 || s >= h.next.Len() {
		panic(fmt.Sprintf("index: hash index over %s: slot %d outside table capacity %d", h.table.Schema.Name, s, h.next.Len()))
	}
	nx := h.next.At(s)
	if *nx != unmapped {
		panic(fmt.Sprintf("index: hash index over %s: slot %d is already mapped (under key %d)", h.table.Schema.Name, s, *h.keys.At(s)))
	}
	*h.keys.At(s), *nx = key, link(b.first)
	b.first = int32(s)
	b.n++
}

// after returns the slot after s in its chain.
func (h *Hash) after(s int32) int32 { return unlink(*h.next.At(int(s))) }

// find returns the slot of a mapping of key in b's chain.
func (h *Hash) find(b *head, key uint64) (int, bool) {
	for s, j := b.first, int32(0); j < b.n; s, j = h.after(s), j+1 {
		if *h.keys.At(int(s)) == key {
			return int(s), true
		}
	}
	return -1, false
}

// Lookup probes for key, returning the row slot and whether it was found.
// The probe is a read section on the bucket's latch (rt.Latches): it bills
// INDEX for the bucket's line and the chain it walks, and, as in DBx1000,
// not for taking the latch's line from the last inserter.
func (h *Hash) Lookup(p rt.Proc, key uint64) (int, bool) {
	i := h.bucket(key)
	b := h.heads.At(i)
	h.latches.AcquireRead(p, stats.Index, i)
	p.MemRead(stats.Index, h.memKey(i), 16)
	p.Tick(stats.Index, costs.IndexProbe+uint64(b.n))
	slot, ok := h.find(b, key)
	h.latches.ReleaseRead(p, stats.Index, i)
	return slot, ok
}

// Insert adds a key→slot mapping. Duplicate keys (on distinct slots) are
// allowed at this layer, and which of them a probe finds is unspecified:
// chain order is not part of the contract. The workloads use unique keys;
// the engine publishes an inserted slot once, at its transaction's commit
// point.
func (h *Hash) Insert(p rt.Proc, key uint64, slot int) {
	i := h.bucket(key)
	b := h.heads.At(i)
	h.latches.Acquire(p, stats.Index, i)
	p.MemWrite(stats.Index, h.memKey(i), 16)
	p.Tick(stats.Index, costs.IndexInsert)
	h.push(b, key, slot)
	h.latches.Release(p, stats.Index, i)
}

// Remove deletes the key→slot mapping if present and reports whether it
// removed anything. The slot may be inserted again. Nothing but tests
// calls it: an insert reaches the index only at its transaction's commit
// point, so no rollback has an entry to take back. It waits for a
// transactional row delete (ROADMAP H3(b)'s DeleteRow) to call it.
func (h *Hash) Remove(p rt.Proc, key uint64, slot int) bool {
	i := h.bucket(key)
	b := h.heads.At(i)
	h.latches.Acquire(p, stats.Index, i)
	p.MemWrite(stats.Index, h.memKey(i), 16)
	p.Tick(stats.Index, costs.IndexProbe+uint64(b.n))
	removed := false
	var prev *int32 // next word of the slot before s; nil while s is the head's
	for s, j := b.first, int32(0); j < b.n; s, j = h.after(s), j+1 {
		nx := h.next.At(int(s))
		if int(s) == slot && *h.keys.At(int(s)) == key {
			if prev == nil {
				b.first = unlink(*nx)
			} else {
				*prev = *nx
			}
			*nx = unmapped
			b.n--
			removed = true
			break
		}
		prev = nx
	}
	h.latches.Release(p, stats.Index, i)
	return removed
}

// LoadInsert adds one mapping during setup or recovery, with no latching or
// cost accounting. Each call writes a random bucket head, so a loader maps
// its loaded slots with LoadAll instead. One goroutine makes all of an
// index's load calls; it may run beside the goroutine writing the rows.
func (h *Hash) LoadInsert(key uint64, slot int) {
	b := h.heads.At(h.bucket(key))
	h.push(b, key, slot)
}

// partShift makes a LoadAll partition 1<<partShift buckets: 32 KiB of heads,
// an L1 data cache's worth.
const partShift = 12

// LoadAll maps slots [0, n), slot s under key(s), and leaves the index
// exactly as
//
//	for s := 0; s < n; s++ { h.LoadInsert(key(s), s) }
//
// would: the same words, the same chain order and, at a slot LoadInsert
// refuses, the same panic once the slots before it are mapped. That loop
// writes a random head of the whole bucket array per slot; LoadAll builds
// the index radix-partitioned (Balkesen et al., "Main-memory hash joins on
// multi-core CPUs", ICDE 2013), so its random writes stay in one partition
// of 4 096 buckets at a time. It makes three passes: keys in slot order,
// counting the slots of each partition (the high bits of the bucket number);
// a stable scatter of (bucket, slot) pairs into a scratch slice, partition
// after partition; and the links, partition by partition. The scratch, 8
// bytes a slot, is garbage when LoadAll returns. Like the loop, it reaches
// only the bucket pages its keys hash to.
func (h *Hash) LoadAll(n int, key func(slot int) uint64) {
	parts := (h.heads.Len() + 1<<partShift - 1) >> partShift
	off := make([]int, parts+1) // slots per partition p at off[p+1], then partition p's first pair at off[p]
	end := 0                    // slots [0, end) are LoadInsert's to map; end is the slot it would refuse, if any
	for lim := min(n, h.next.Len()); end < lim && *h.next.At(end) == unmapped; end++ {
		k := key(end)
		*h.keys.At(end) = k
		off[h.bucket(k)>>partShift+1]++
	}
	for p := 1; p <= parts; p++ {
		off[p] += off[p-1]
	}
	pairs := make([]uint64, end)
	for s := 0; s < end; s++ {
		i := h.bucket(*h.keys.At(s))
		p := i >> partShift
		pairs[off[p]] = uint64(i&(1<<partShift-1))<<32 | uint64(s)
		off[p]++
	}
	// Partition p's pairs now end at off[p]. A partition is one page of
	// heads, or a run of a dense region that is short only where it crosses
	// an extent's end; a partition without pairs is not reached at all.
	first := 0
	for p := 0; p < parts; p++ {
		prs := pairs[first:off[p]]
		first = off[p]
		if len(prs) == 0 {
			continue
		}
		base := p << partShift
		heads := h.heads.Chunk(base, 1<<partShift)
		for _, pr := range prs {
			i, s := int(pr>>32), int32(pr)
			var b *head
			if i < len(heads) {
				b = &heads[i]
			} else {
				b = h.heads.At(base + i)
			}
			*h.next.At(int(s)) = link(b.first)
			b.first = s
			b.n++
		}
	}
	if end < n {
		h.LoadInsert(key(end), end) // panics, naming the slot
	}
}

// LoadLookup probes for key during single-threaded setup or recovery, with
// no latching or cost accounting.
func (h *Hash) LoadLookup(key uint64) (int, bool) {
	b := h.heads.At(h.bucket(key))
	return h.find(b, key)
}

// Range implements Index, in bucket order. It pages no bucket in: a page
// no probe or insert has reached holds no chain, so a checkpoint or state
// dump of an idle database allocates none of its insert-only tables'
// buckets. Buckets are paged from bucket 0 when they are paged at all, so
// a page never reached is the next PageSlots buckets.
func (h *Hash) Range(f func(key uint64, slot int)) {
	for i := 0; i < h.heads.Len(); {
		c := h.heads.Peek(i, slot.PageSlots)
		if c == nil {
			i += slot.PageSlots
			continue
		}
		for k := range c {
			b := &c[k]
			for s, j := b.first, int32(0); j < b.n; s, j = h.after(s), j+1 {
				f(*h.keys.At(int(s)), int(s))
			}
		}
		i += len(c)
	}
}

// CompositeKey packs up to four small ids into one uint64 index key,
// used by TPC-C's multi-column primary keys (e.g. district = (W_ID, D_ID)).
func CompositeKey(a, b, c, d uint64) uint64 {
	return a<<48 | b<<32 | c<<16 | d
}
