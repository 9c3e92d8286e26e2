package index

import (
	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
)

// Entry is one key→slot mapping returned by a range scan, in key order.
type Entry struct {
	Key  uint64
	Slot int32
}

// ordFanout is the maximum entry (leaf) or child (inner) count per node.
// Small enough that a split copies little, large enough that trees stay
// shallow at workload scale.
const ordFanout = 32

// onode is one B+tree node. Leaves chain through next for range scans;
// inner nodes hold len(kids)-1 separator keys (child i covers keys below
// keys[i]; the last child covers the rest). The slices are views of the
// fixed arrays of the leafNode or innerNode the onode is embedded in, so
// they never reallocate: an insert that does not split allocates nothing.
type onode struct {
	leaf  bool
	keys  []uint64
	slots []int32  // leaf only, parallel to keys
	kids  []*onode // inner only, len(keys)+1
	next  *onode   // leaf chain
	id    uint64   // node id for NUCA cache-line placement
}

// leafNode and innerNode are a node with its storage, one allocation each,
// sized for the one entry (or child) past ordFanout a node holds between
// the insert that overfills it and the split that follows.
type leafNode struct {
	onode
	keyStore  [ordFanout + 1]uint64
	slotStore [ordFanout + 1]int32
}

type innerNode struct {
	onode
	keyStore [ordFanout]uint64
	kidStore [ordFanout + 1]*onode
}

// leafChunk is how many leaves an index allocates at a time.
const leafChunk = 64

// Ordered is an ordered secondary index from uint64 keys to row slots: a
// B+tree guarded by one coarse latch per index. Like the hash index, all
// latch and traversal time is billed to the INDEX component — a scan-heavy
// workload pays for its index contention in the paper's breakdown. The
// coarse latch is deliberate: ordered indexes are secondary structures on
// the scan-bearing transactions' path, and serializing their maintenance
// makes the contention visible rather than hidden. Lookups and scans are
// read sections on it (rt.Latches): they exclude inserts and removes, and
// pay for the nodes they read rather than for the latch's line.
//
// Duplicate keys are allowed (entries with equal keys have no defined
// relative order); the workloads use unique keys.
type Ordered struct {
	meta
	latch  rt.Latches // a slab of one
	root   *onode
	count  int
	nextID uint64
	spare  []leafNode // rest of the current chunk, carved under the latch
}

// NewOrdered creates an empty ordered index over table.
func NewOrdered(r rt.Runtime, table *storage.Table) *Ordered {
	o := &Ordered{meta: meta{table: table}}
	o.latch = r.NewLatches(uint64(table.ID)<<48|0xB3<<40, slot.Fixed(1))
	o.root = o.newNode(true)
	return o
}

// Len returns the number of entries.
func (o *Ordered) Len() int { return o.count }

func (o *Ordered) newNode(leaf bool) *onode {
	var n *onode
	if leaf {
		if len(o.spare) == 0 {
			o.spare = make([]leafNode, leafChunk)
		}
		l := &o.spare[0]
		o.spare = o.spare[1:]
		n = &l.onode
		n.keys, n.slots = l.keyStore[:0], l.slotStore[:0]
	} else {
		in := new(innerNode)
		n = &in.onode
		n.keys, n.kids = in.keyStore[:0], in.kidStore[:0]
	}
	n.leaf, n.id = leaf, o.nextID
	o.nextID++
	return n
}

// memKey identifies a node's cache line for NUCA placement.
func (o *Ordered) memKey(id uint64) uint64 {
	return uint64(o.table.ID)<<48 | 0xB2<<40 | id
}

// upperBound returns the number of keys in n that are <= key. It is the
// descent position of an insert in an inner node (a duplicate key goes
// right of its separator, so a split never splits a duplicate run
// leftwards again) and its position in a leaf (past all equal entries).
func upperBound(n *onode, key uint64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the number of keys in n that are < key: the descent
// position for the FIRST entry with that key in an inner node (scans and
// removes use it so a duplicate run straddling a split is found from its
// start) and the first position with an entry >= key in a leaf.
func lowerBound(n *onode, key uint64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert descends from n, inserting key→slot. It returns the new right
// sibling and its separator key when n split, or (nil, 0).
func (o *Ordered) insert(n *onode, key uint64, slot int32) (*onode, uint64) {
	if n.leaf {
		pos := upperBound(n, key)
		n.keys = append(n.keys, 0)
		n.slots = append(n.slots, 0)
		copy(n.keys[pos+1:], n.keys[pos:])
		copy(n.slots[pos+1:], n.slots[pos:])
		n.keys[pos] = key
		n.slots[pos] = slot
		if len(n.keys) <= ordFanout {
			return nil, 0
		}
		mid := len(n.keys) / 2
		right := o.newNode(true)
		right.keys = append(right.keys, n.keys[mid:]...)
		right.slots = append(right.slots, n.slots[mid:]...)
		n.keys = n.keys[:mid]
		n.slots = n.slots[:mid]
		right.next = n.next
		n.next = right
		return right, right.keys[0]
	}
	ci := upperBound(n, key)
	split, sep := o.insert(n.kids[ci], key, slot)
	if split == nil {
		return nil, 0
	}
	n.keys = append(n.keys, 0)
	n.kids = append(n.kids, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	copy(n.kids[ci+2:], n.kids[ci+1:])
	n.keys[ci] = sep
	n.kids[ci+1] = split
	if len(n.kids) <= ordFanout {
		return nil, 0
	}
	mid := len(n.keys) / 2
	up := n.keys[mid]
	right := o.newNode(false)
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.kids = append(right.kids, n.kids[mid+1:]...)
	n.keys = n.keys[:mid]
	n.kids = n.kids[:mid+1]
	return right, up
}

// insertRoot inserts and grows the tree at the root when it splits.
func (o *Ordered) insertRoot(key uint64, slot int32) {
	split, sep := o.insert(o.root, key, slot)
	if split != nil {
		nr := o.newNode(false)
		nr.keys = append(nr.keys, sep)
		nr.kids = append(nr.kids, o.root, split)
		o.root = nr
	}
	o.count++
}

// depth returns the tree height (1 for a lone leaf), used for cost billing.
func (o *Ordered) depth() uint64 {
	d, n := uint64(1), o.root
	for !n.leaf {
		n = n.kids[0]
		d++
	}
	return d
}

// findLeaf descends to the leaf an insert of key targets.
func (o *Ordered) findLeaf(key uint64) *onode {
	n := o.root
	for !n.leaf {
		n = n.kids[upperBound(n, key)]
	}
	return n
}

// findLeafLow descends to the leaf holding the first entry with key >= the
// target (the scan entry point).
func (o *Ordered) findLeafLow(key uint64) *onode {
	n := o.root
	for !n.leaf {
		n = n.kids[lowerBound(n, key)]
	}
	return n
}

// Insert adds a key→slot mapping under the index latch, billing latch and
// traversal time to the INDEX component like the hash index does.
func (o *Ordered) Insert(p rt.Proc, key uint64, slot int) {
	o.latch.Acquire(p, stats.Index, 0)
	p.MemWrite(stats.Index, o.memKey(o.findLeaf(key).id), 16)
	p.Tick(stats.Index, costs.IndexInsert+o.depth())
	o.insertRoot(key, int32(slot))
	o.latch.Release(p, stats.Index, 0)
}

// Remove deletes the key→slot mapping if present (lazy: leaves are never
// merged) and reports whether it removed anything. Like Hash.Remove, it
// has no caller but tests until a transactional row delete (ROADMAP
// H3(b)'s DeleteRow) takes it.
func (o *Ordered) Remove(p rt.Proc, key uint64, slot int) bool {
	o.latch.Acquire(p, stats.Index, 0)
	p.MemWrite(stats.Index, o.memKey(o.findLeaf(key).id), 16)
	p.Tick(stats.Index, costs.IndexProbe+o.depth())
	removed := o.remove(key, int32(slot))
	o.latch.Release(p, stats.Index, 0)
	return removed
}

func (o *Ordered) remove(key uint64, slot int32) bool {
	// Equal keys may span a leaf boundary; walk the chain while keys match.
	for n := o.findLeafLow(key); n != nil; n = n.next {
		for i := lowerBound(n, key); i < len(n.keys) && n.keys[i] == key; i++ {
			if n.slots[i] == slot {
				copy(n.keys[i:], n.keys[i+1:])
				copy(n.slots[i:], n.slots[i+1:])
				n.keys = n.keys[:len(n.keys)-1]
				n.slots = n.slots[:len(n.slots)-1]
				o.count--
				return true
			}
		}
		if len(n.keys) > 0 && n.keys[len(n.keys)-1] > key {
			break
		}
	}
	return false
}

// find returns the slot of the first entry with the given key. The low
// descent lands left of a separator equal to key, while the entry itself —
// the first of the right sibling a split produced — lives one leaf on, so
// an exhausted leaf hands over to the chain (RangeScan does the same).
func (o *Ordered) find(key uint64) (*onode, int, bool) {
	n := o.findLeafLow(key)
	i := lowerBound(n, key)
	for i == len(n.keys) && n.next != nil {
		n, i = n.next, 0
	}
	if i < len(n.keys) && n.keys[i] == key {
		return n, int(n.slots[i]), true
	}
	return n, -1, false
}

// Lookup probes for the first entry with the given key, in a read section
// on the index latch that bills the descent and the leaf's line to INDEX.
func (o *Ordered) Lookup(p rt.Proc, key uint64) (int, bool) {
	o.latch.AcquireRead(p, stats.Index, 0)
	p.Tick(stats.Index, costs.IndexProbe+o.depth())
	n, slot, ok := o.find(key)
	p.MemRead(stats.Index, o.memKey(n.id), 16)
	o.latch.ReleaseRead(p, stats.Index, 0)
	return slot, ok
}

// RangeScan appends every entry with lo <= key <= hi to out, in ascending
// key order, and returns the extended slice. The whole scan is one read
// section on the index latch, and its cost — the descent plus one probe
// unit per entry returned and one cache line per leaf visited — is billed
// to INDEX.
//
// The scan returns the key→slot pairs only; the caller reads the rows
// through the concurrency-control scheme afterwards. Entries inserted
// after the scan's latch window are not seen: range predicates are
// latch-consistent, not serializable — phantoms are possible under every
// scheme (none of the seven implement next-key locking or predicate
// validation; see the chaos workload's documentation).
func (o *Ordered) RangeScan(p rt.Proc, lo, hi uint64, out []Entry) []Entry {
	return o.RangeScanLimit(p, lo, hi, -1, out)
}

// RangeScanLimit is RangeScan capped at max entries (the max lowest-keyed
// matches); max < 0 means unlimited.
func (o *Ordered) RangeScanLimit(p rt.Proc, lo, hi uint64, max int, out []Entry) []Entry {
	if max == 0 || hi < lo {
		return out
	}
	o.latch.AcquireRead(p, stats.Index, 0)
	found := 0
	n := o.findLeafLow(lo)
scan:
	for ; n != nil; n = n.next {
		p.MemRead(stats.Index, o.memKey(n.id), 64)
		for i := lowerBound(n, lo); i < len(n.keys); i++ {
			if n.keys[i] > hi {
				break scan
			}
			out = append(out, Entry{Key: n.keys[i], Slot: n.slots[i]})
			found++
			if max >= 0 && found >= max {
				break scan
			}
		}
	}
	p.Tick(stats.Index, costs.IndexProbe+o.depth()+uint64(found))
	o.latch.ReleaseRead(p, stats.Index, 0)
	return out
}

// LoadInsert adds a mapping during single-threaded setup with no latching
// or cost accounting.
func (o *Ordered) LoadInsert(key uint64, slot int) {
	o.insertRoot(key, int32(slot))
}

// LoadLookup probes for key during single-threaded setup or recovery, with
// no latching or cost accounting.
func (o *Ordered) LoadLookup(key uint64) (int, bool) {
	_, slot, ok := o.find(key)
	return slot, ok
}

// Range implements Index, in ascending key order.
func (o *Ordered) Range(f func(key uint64, slot int)) {
	n := o.root
	for !n.leaf {
		n = n.kids[0]
	}
	for ; n != nil; n = n.next {
		for i := range n.keys {
			f(n.keys[i], int(n.slots[i]))
		}
	}
}
