// Package storage implements the row-oriented in-memory tables of the test
// bed DBMS (§3.2): fixed-width schemas, slab row storage, per-worker insert
// segments (so inserts never contend on a global allocator), and the
// catalog. Per-tuple concurrency-control metadata is owned by the CC scheme
// (per-table arrays indexed by slot), keeping the storage layer
// scheme-agnostic.
//
// Like the paper's per-thread memory pools (§4.1), a table's memory grows
// with the workload rather than being sized for the worst case: its loaded
// rows are one slab — from 16 MiB up, one extent per GOMAXPROCS, zeroed in
// parallel — and the capacity reserved for inserts is paged in 4 096 slots
// at a time as rows land in it (internal/slot). Every structure
// indexed by slot — the scheme's entries and latches, the hash index's chain
// links — follows the same Layout, so a reserved slot that is never inserted
// costs nothing anywhere.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"abyss1000/internal/slot"
)

// Col describes one fixed-width column.
type Col struct {
	Name  string
	Width int // bytes
}

// Schema is an ordered set of fixed-width columns.
type Schema struct {
	Name    string
	Cols    []Col
	offsets []int
	rowSize int
}

// NewSchema builds a schema, computing column offsets.
func NewSchema(name string, cols ...Col) *Schema {
	s := &Schema{Name: name, Cols: cols}
	s.offsets = make([]int, len(cols))
	off := 0
	for i, c := range cols {
		if c.Width <= 0 {
			panic(fmt.Sprintf("storage: column %s.%s has width %d", name, c.Name, c.Width))
		}
		s.offsets[i] = off
		off += c.Width
	}
	s.rowSize = off
	return s
}

// RowSize returns the bytes per row.
func (s *Schema) RowSize() int { return s.rowSize }

// Offset returns the byte offset of column i.
func (s *Schema) Offset(i int) int { return s.offsets[i] }

// ColIndex returns the index of the named column, or panics — schema
// mismatches are programming errors, not runtime conditions.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("storage: no column %q in table %s", name, s.Name))
}

// GetU64 reads column col of row as a little-endian uint64 (the column must
// be at least 8 bytes wide).
func (s *Schema) GetU64(row []byte, col int) uint64 {
	off := s.offsets[col]
	return binary.LittleEndian.Uint64(row[off : off+8])
}

// PutU64 writes column col of row as a little-endian uint64.
func (s *Schema) PutU64(row []byte, col int, v uint64) {
	off := s.offsets[col]
	binary.LittleEndian.PutUint64(row[off:off+8], v)
}

// GetI64 reads column col as an int64 (two's complement).
func (s *Schema) GetI64(row []byte, col int) int64 {
	return int64(s.GetU64(row, col))
}

// PutI64 writes column col as an int64.
func (s *Schema) PutI64(row []byte, col int, v int64) {
	s.PutU64(row, col, uint64(v))
}

// Bytes returns the raw bytes of column col.
func (s *Schema) Bytes(row []byte, col int) []byte {
	off := s.offsets[col]
	return row[off : off+s.Cols[col].Width]
}

// AllCols is the column mask of a whole row: what an access that names no
// columns touches.
const AllCols = ^uint64(0)

// Mask returns the mask of the columns cols names; naming none names the
// whole row (AllCols). Only the first 64 columns can be named.
func (s *Schema) Mask(cols []int) uint64 {
	if len(cols) == 0 {
		return AllCols
	}
	var mask uint64
	for _, c := range cols {
		if c < 0 || c >= 64 || c >= len(s.Cols) {
			panic(fmt.Sprintf("storage: table %s has no nameable column %d", s.Name, c))
		}
		mask |= 1 << c
	}
	return mask
}

// Width returns the bytes of the columns in mask (RowSize for AllCols).
func (s *Schema) Width(mask uint64) int {
	if mask == AllCols {
		return s.rowSize
	}
	width := 0
	for ; mask != 0; mask &= mask - 1 {
		width += s.Cols[bits.TrailingZeros64(mask)].Width
	}
	return width
}

// MaxCapacity is the largest slot count a table may have: hash indexes
// link slots through int32 words.
const MaxCapacity = math.MaxInt32

// Table is a fixed-capacity array of rows. Slots [0, Loaded) are filled
// during setup and allocated with the table; the remaining capacity is
// divided into per-worker segments for runtime inserts, so slot allocation
// is core-local (the paper's per-thread memory pools, §4.1), and is paged in
// as inserts reach it.
type Table struct {
	ID     int
	Schema *Schema

	rows     slot.Array[byte]
	capacity int
	loaded   int // rows populated during setup (single-threaded)

	segBase  []int // per-worker next free slot
	segEnd   []int // per-worker segment end (exclusive)
	segStart []int // per-worker segment start (initial segBase, for recovery)
}

// NewTable creates a table with room for capacity rows, of which the first
// `loaded` will be populated by setup code via LoadRow, and the remainder is
// split into insert segments for nworkers workers. Only the loaded rows are
// allocated here: one slab, or one extent per GOMAXPROCS if they reach
// internal/slot's split size, so that Rows stops at each extent's end.
func NewTable(id int, schema *Schema, capacity, loaded, nworkers int) *Table {
	if capacity > MaxCapacity {
		panic(fmt.Sprintf("storage: table %s capacity %d exceeds the limit of %d slots", schema.Name, capacity, MaxCapacity))
	}
	if loaded > capacity {
		panic(fmt.Sprintf("storage: table %s loaded %d > capacity %d", schema.Name, loaded, capacity))
	}
	if nworkers <= 0 {
		panic(fmt.Sprintf("storage: table %s needs at least one worker for its insert segments, got %d", schema.Name, nworkers))
	}
	t := &Table{ID: id, Schema: schema, capacity: capacity, loaded: loaded}
	t.rows = slot.MakeWith[byte](t.Layout(), schema.RowSize(), nil)
	spare := capacity - loaded
	per := spare / nworkers
	t.segBase = make([]int, nworkers)
	t.segEnd = make([]int, nworkers)
	t.segStart = make([]int, nworkers)
	for w := 0; w < nworkers; w++ {
		t.segBase[w] = loaded + w*per
		t.segEnd[w] = loaded + (w+1)*per
		t.segStart[w] = t.segBase[w]
	}
	t.segEnd[nworkers-1] = capacity
	return t
}

// Capacity returns the total slot count.
func (t *Table) Capacity() int { return t.capacity }

// Loaded returns the number of setup-time rows.
func (t *Table) Loaded() int { return t.loaded }

// Layout is the slot layout of the table's rows, which every per-slot
// structure over the table (CC metadata, hash chain links) shares: the
// loaded rows up front, the insert region paged in on first use.
func (t *Table) Layout() slot.Layout { return slot.Layout{Dense: t.loaded, Cap: t.capacity} }

// Row returns the storage bytes of slot s (shared, live row data).
func (t *Table) Row(s int) []byte { return t.rows.Span(s) }

// LoadRow returns slot i's bytes for single-threaded population at setup.
func (t *Table) LoadRow(i int) []byte { return t.Row(i) }

// Rows returns the raw bytes of the slots [start, start+k) for the largest
// k <= n that are contiguous in memory — all n unless the range crosses the
// end of an extent of the loaded rows or of an insert page — so
// checkpointing and recovery move row ranges a piece at a time. n must be
// positive.
func (t *Table) Rows(start, n int) []byte { return t.rows.Chunk(start, n) }

// AllocSlot carves a fresh slot from worker w's insert segment. It returns
// -1 when the segment is exhausted (the caller sizes capacity to make this
// impossible in a configured run; hitting it is a configuration error
// surfaced by the engine).
func (t *Table) AllocSlot(w int) int {
	if t.segBase[w] >= t.segEnd[w] {
		return -1
	}
	s := t.segBase[w]
	t.segBase[w]++
	return s
}

// FreeSlot hands slot s back to worker w's insert segment. Only the
// segment's last allocated slot can go back, so a worker that frees the
// slots of a failed attempt newest first leaves its cursor where the
// attempt found it. The caller clears the row first: a slot at or past the
// cursor is all zero.
func (t *Table) FreeSlot(w, s int) {
	if s != t.segBase[w]-1 || s < t.segStart[w] {
		panic(fmt.Sprintf("storage: table %s frees slot %d, but worker %d's last allocated slot is %d", t.Schema.Name, s, w, t.segBase[w]-1))
	}
	t.segBase[w] = s
}

// NumSegs returns the number of per-worker insert segments.
func (t *Table) NumSegs() int { return len(t.segBase) }

// SegRange returns worker w's allocated insert range [start, next): the
// slots handed out by AllocSlot so far.
func (t *Table) SegRange(w int) (start, next int) {
	return t.segStart[w], t.segBase[w]
}

// Populated calls f for each populated range [start, end) of t's slots:
// the setup rows as seg -1, then each worker seg's SegRange. State dumps,
// checkpoints and the history capture enumerate every populated slot
// this way.
func (t *Table) Populated(f func(seg, start, end int)) {
	f(-1, 0, t.loaded)
	for w := range t.segBase {
		f(w, t.segStart[w], t.segBase[w])
	}
}

// RestoreSegNext advances worker w's allocation cursor to next (clamped to
// the segment). Recovery uses it to restore checkpointed allocation state
// so replayed inserts land on their original slots. It never rewinds: over
// a state that already holds the rows inserted after the checkpoint (the
// same stream replayed again), their slots stay allocated.
func (t *Table) RestoreSegNext(w, next int) {
	if next < t.segBase[w] {
		next = t.segBase[w]
	}
	if next > t.segEnd[w] {
		next = t.segEnd[w]
	}
	t.segBase[w] = next
}

// MemKey returns the placement key of slot's cache line(s) for the NUCA
// model: tuples hash across L2 slices by (table, slot).
func (t *Table) MemKey(slot int) uint64 {
	return uint64(t.ID)<<40 | uint64(slot)
}

// Catalog is the set of tables in a database.
type Catalog struct {
	tables []*Table
	byName map[string]*Table
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{byName: make(map[string]*Table)}
}

// Add registers a table built from schema and returns it; a name already
// in the catalog panics rather than being overwritten.
func (c *Catalog) Add(schema *Schema, capacity, loaded, nworkers int) *Table {
	if _, dup := c.byName[schema.Name]; dup {
		panic(fmt.Sprintf("storage: table %q already exists", schema.Name))
	}
	t := NewTable(len(c.tables), schema, capacity, loaded, nworkers)
	c.tables = append(c.tables, t)
	c.byName[schema.Name] = t
	return t
}

// Tables returns all tables in id order.
func (c *Catalog) Tables() []*Table { return c.tables }

// Lookup returns the named table and whether it exists.
func (c *Catalog) Lookup(name string) (*Table, bool) {
	t, ok := c.byName[name]
	return t, ok
}

// Table looks a table up by name, or panics (schema mismatches are
// programming errors).
func (c *Catalog) Table(name string) *Table {
	t, ok := c.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("storage: no table %q", name))
	}
	return t
}
