// Package wal implements the durability tier's write-ahead log: a framed,
// CRC-protected record stream with group commit, table checkpointing and
// crash recovery. The package is storage-agnostic — records carry table
// and index ordinals plus raw row images; internal/core owns the mapping
// back onto live tables during replay.
//
// The log is an append-only byte stream. A crash is modeled as a
// truncation of that stream at an arbitrary byte offset (including inside
// a record — a torn tail write); Scan detects the torn suffix via the
// length/CRC framing and recovery replays exactly the complete prefix.
package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Record types. The type byte is part of the CRC-protected body.
const (
	// TypeCommit is one committed transaction's after-images: its
	// in-place/buffered updates and its inserted rows.
	TypeCommit byte = 1

	// TypeEpoch marks the start of a measurement run. Version floors
	// (the timestamp guards used for T/O replay ordering) reset at an
	// epoch boundary, because each run draws timestamps from a fresh
	// allocator.
	TypeEpoch byte = 2

	// TypeCkptBegin opens a checkpoint; its ID must be matched by a
	// TypeCkptEnd for the checkpoint to be complete (a crash mid-
	// checkpoint leaves it incomplete and recovery ignores its span as a
	// starting point, falling back to the previous one).
	TypeCkptBegin byte = 3

	// TypeCkptRows carries a chunk of contiguous row images of one table.
	TypeCkptRows byte = 4

	// TypeCkptAlloc records a table's per-worker insert-segment
	// allocation cursors, so recovery restores slot allocation state.
	TypeCkptAlloc byte = 5

	// TypeCkptIndex carries runtime-inserted index entries (key → slot)
	// of one index, hash or ordered; setup-time entries are rebuilt by
	// workload setup.
	TypeCkptIndex byte = 6

	// TypeCkptEnd closes the checkpoint with the matching ID.
	TypeCkptEnd byte = 7
)

// Magic is the 8-byte stream header identifying a WAL and its format
// version. 03 put hash and ordered indexes into one ordinal space, so an
// older stream is refused with ErrNotWAL rather than misread.
var Magic = [8]byte{'A', 'B', 'Y', 'W', 'A', 'L', '0', '3'}

// Frame layout: u32 body length | body (type byte + payload) | u32 CRC32
// (IEEE) over the body. A record is complete only when all length+8 bytes
// are present and the CRC matches; anything else is a torn tail.
const frameOverhead = 8

// maxBody bounds a single record body. It exists to reject absurd length
// prefixes during scanning (corrupt or adversarial input) before any
// allocation or long skip happens.
const maxBody = 1 << 26 // 64 MiB

// ErrNotWAL is returned by Scan when the stream does not start with the
// WAL magic.
var ErrNotWAL = errors.New("wal: stream does not start with WAL magic")

// Update is one after-image of an existing row.
type Update struct {
	Table int    // storage table ordinal (Table.ID)
	Slot  int    // row slot within the table
	Image []byte // full row image after the transaction
}

// MaxInsertEntries is the most index entries one insert publishes: the
// row's primary index plus one secondary.
const MaxInsertEntries = 2

// InsertEntry is one index entry of an insert: the index by ordinal (its
// registration order in the DB, whatever its kind) and the key.
type InsertEntry struct {
	Index int
	Key   uint64
}

// Insert is one inserted row: replay allocates the slot from the recorded
// worker's insert segment (reproducing the live allocation order) unless
// the first entry's key is already present, in which case the existing
// slot is overwritten — which makes replay idempotent.
type Insert struct {
	Table int    // storage table ordinal
	Image []byte // full row image

	// Entries[:N] are the index entries the row is published under, in
	// publication order; N is in [1, MaxInsertEntries].
	N       int
	Entries [MaxInsertEntries]InsertEntry
}

// Commit is one committed transaction's log record.
type Commit struct {
	// Worker is the committing worker/core id; insert slots are
	// re-allocated from this worker's segments during replay.
	Worker int

	// Ver orders same-slot updates during replay. Timestamp-ordered
	// schemes (TIMESTAMP, MVCC) set it to the transaction timestamp:
	// their same-slot final value is decided by timestamp order, not
	// commit order, so replay applies an update only when Ver is at
	// least the slot's last applied version. Lock- and validation-
	// ordered schemes leave it zero, which makes the guard vacuous and
	// replay order equal to log order (their commit points are logged
	// under the locks/latches that decide serialization).
	Ver uint64

	Updates []Update
	Inserts []Insert
}

// Checkpoint payloads, decoded forms.

// CkptRows is a chunk of contiguous rows of one table.
type CkptRows struct {
	Table   int
	Start   int    // first slot of the chunk
	Count   int    // rows in the chunk
	RowSize int    // bytes per row
	Rows    []byte // Count*RowSize bytes
}

// CkptAlloc is one table's insert-segment cursors.
type CkptAlloc struct {
	Table int
	Next  []int // per-worker next-free slot
}

// CkptIndexEntry is one runtime-inserted index mapping.
type CkptIndexEntry struct {
	Key  uint64
	Slot int
}

// CkptIndex is a chunk of one index's runtime-inserted entries.
type CkptIndex struct {
	Index   int
	Entries []CkptIndexEntry
}

// Record is one decoded log record. Exactly one of the payload pointers
// is non-nil, selected by Type; Epoch and the checkpoint delimiters carry
// only their ID.
type Record struct {
	Type byte

	// Off and End are the record's byte extent in the stream (frame
	// included). End of record i is Off of record i+1; truncating the
	// stream at End keeps records 0..i intact.
	Off int64
	End int64

	// ID is the checkpoint id for TypeCkptBegin/TypeCkptEnd and the
	// epoch sequence for TypeEpoch.
	ID uint64

	Commit *Commit
	Rows   *CkptRows
	Alloc  *CkptAlloc
	Index  *CkptIndex
}

// appendU32/appendU64 are little-endian primitive writers.
func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendCommit encodes c as a framed record appended to dst and returns
// the extended slice. The encoding is length-prefixed throughout, so a
// decoder never reads past its frame.
func AppendCommit(dst []byte, c *Commit) []byte {
	body := encodeCommitBody(nil, c)
	return appendFrame(dst, body)
}

// encodeCommitBody renders the CRC-protected body of a commit record.
func encodeCommitBody(body []byte, c *Commit) []byte {
	body = append(body, TypeCommit)
	body = appendU32(body, uint32(c.Worker))
	body = appendU64(body, c.Ver)
	body = appendU32(body, uint32(len(c.Updates)))
	for i := range c.Updates {
		u := &c.Updates[i]
		body = appendU32(body, uint32(u.Table))
		body = appendU32(body, uint32(u.Slot))
		body = appendU32(body, uint32(len(u.Image)))
		body = append(body, u.Image...)
	}
	body = appendU32(body, uint32(len(c.Inserts)))
	for i := range c.Inserts {
		in := &c.Inserts[i]
		body = appendU32(body, uint32(in.Table))
		body = appendU32(body, uint32(in.N))
		for _, e := range in.Entries[:in.N] {
			body = appendU32(body, uint32(e.Index))
			body = appendU64(body, e.Key)
		}
		body = appendU32(body, uint32(len(in.Image)))
		body = append(body, in.Image...)
	}
	return body
}

// AppendMarker encodes a record that carries only an ID: typ is TypeEpoch,
// TypeCkptBegin or TypeCkptEnd.
func AppendMarker(dst []byte, typ byte, id uint64) []byte {
	return appendFrame(dst, appendU64([]byte{typ}, id))
}

// AppendCkptRows encodes a row-chunk record.
func AppendCkptRows(dst []byte, r *CkptRows) []byte {
	body := []byte{TypeCkptRows}
	body = appendU32(body, uint32(r.Table))
	body = appendU32(body, uint32(r.Start))
	body = appendU32(body, uint32(r.Count))
	body = appendU32(body, uint32(r.RowSize))
	body = append(body, r.Rows...)
	return appendFrame(dst, body)
}

// AppendCkptAlloc encodes a segment-cursor record.
func AppendCkptAlloc(dst []byte, a *CkptAlloc) []byte {
	body := []byte{TypeCkptAlloc}
	body = appendU32(body, uint32(a.Table))
	body = appendU32(body, uint32(len(a.Next)))
	for _, n := range a.Next {
		body = appendU64(body, uint64(n))
	}
	return appendFrame(dst, body)
}

// AppendCkptIndex encodes an index-entry chunk.
func AppendCkptIndex(dst []byte, x *CkptIndex) []byte {
	body := []byte{TypeCkptIndex}
	body = appendU32(body, uint32(x.Index))
	body = appendU32(body, uint32(len(x.Entries)))
	for _, e := range x.Entries {
		body = appendU64(body, e.Key)
		body = appendU64(body, uint64(e.Slot))
	}
	return appendFrame(dst, body)
}

// appendFrame wraps body in the length/CRC frame.
func appendFrame(dst, body []byte) []byte {
	dst = appendU32(dst, uint32(len(body)))
	dst = append(dst, body...)
	return appendU32(dst, crc32.ChecksumIEEE(body))
}

// reader is a bounds-checked little-endian cursor over one record body.
// All reads report failure instead of panicking, which is what makes the
// decoder safe on arbitrary (fuzzed, torn, corrupt) input.
type reader struct {
	b   []byte
	pos int
	bad bool
}

func (r *reader) u32() uint32 {
	if r.bad || r.pos+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.bad || r.pos+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.bad || n < 0 || r.pos+n > len(r.b) {
		r.bad = true
		return nil
	}
	v := r.b[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return v
}

// done reports whether the body was consumed exactly and without error.
func (r *reader) done() bool { return !r.bad && r.pos == len(r.b) }

// decodeBody parses one CRC-validated record body into rec. It returns
// false when the body is structurally invalid (a corrupt record whose CRC
// nevertheless matched cannot crash the decoder; it just fails decode).
func decodeBody(body []byte, rec *Record) bool {
	if len(body) == 0 {
		return false
	}
	rec.Type = body[0]
	r := reader{b: body, pos: 1}
	switch rec.Type {
	case TypeCommit:
		c := &Commit{}
		c.Worker = int(r.u32())
		c.Ver = r.u64()
		nu := r.u32()
		if r.bad || nu > uint32(len(body)) {
			return false
		}
		c.Updates = make([]Update, 0, nu)
		for i := uint32(0); i < nu; i++ {
			var u Update
			u.Table = int(r.u32())
			u.Slot = int(r.u32())
			u.Image = r.bytes(int(r.u32()))
			if r.bad {
				return false
			}
			c.Updates = append(c.Updates, u)
		}
		ni := r.u32()
		if r.bad || ni > uint32(len(body)) {
			return false
		}
		c.Inserts = make([]Insert, 0, ni)
		for i := uint32(0); i < ni; i++ {
			var in Insert
			in.Table = int(r.u32())
			in.N = int(r.u32())
			if r.bad || in.N < 1 || in.N > MaxInsertEntries {
				return false
			}
			for j := 0; j < in.N; j++ {
				in.Entries[j] = InsertEntry{Index: int(r.u32()), Key: r.u64()}
			}
			in.Image = r.bytes(int(r.u32()))
			if r.bad {
				return false
			}
			c.Inserts = append(c.Inserts, in)
		}
		if !r.done() {
			return false
		}
		rec.Commit = c
		return true

	case TypeEpoch, TypeCkptBegin, TypeCkptEnd:
		rec.ID = r.u64()
		return r.done()

	case TypeCkptRows:
		cr := &CkptRows{}
		cr.Table = int(r.u32())
		cr.Start = int(r.u32())
		cr.Count = int(r.u32())
		cr.RowSize = int(r.u32())
		if r.bad || cr.Count < 0 || cr.RowSize < 0 {
			return false
		}
		total := int64(cr.Count) * int64(cr.RowSize)
		if total > int64(len(body)) {
			return false
		}
		cr.Rows = r.bytes(int(total))
		if !r.done() {
			return false
		}
		rec.Rows = cr
		return true

	case TypeCkptAlloc:
		a := &CkptAlloc{}
		a.Table = int(r.u32())
		n := r.u32()
		if r.bad || n > uint32(len(body)) {
			return false
		}
		a.Next = make([]int, 0, n)
		for i := uint32(0); i < n; i++ {
			a.Next = append(a.Next, int(r.u64()))
		}
		if !r.done() {
			return false
		}
		rec.Alloc = a
		return true

	case TypeCkptIndex:
		x := &CkptIndex{}
		x.Index = int(r.u32())
		n := r.u32()
		if r.bad || n > uint32(len(body)) {
			return false
		}
		x.Entries = make([]CkptIndexEntry, 0, n)
		for i := uint32(0); i < n; i++ {
			var e CkptIndexEntry
			e.Key = r.u64()
			e.Slot = int(r.u64())
			if r.bad {
				return false
			}
			x.Entries = append(x.Entries, e)
		}
		if !r.done() {
			return false
		}
		rec.Index = x
		return true

	default:
		return false
	}
}

// ScanInfo describes how a Scan ended.
type ScanInfo struct {
	// Complete is the byte offset just past the last complete record
	// (== len(stream) when nothing was torn).
	Complete int64

	// TornBytes is how many trailing bytes were dropped as an
	// incomplete or corrupt tail (a torn group-commit write).
	TornBytes int64
}

// Scan decodes every complete record of stream (which must start with
// Magic). It stops — without error — at the first incomplete or corrupt
// frame: a crash can tear the tail of the last group write, and the
// complete prefix is exactly the durable state. Scan never panics on any
// input.
func Scan(stream []byte) ([]Record, ScanInfo, error) {
	if len(stream) < len(Magic) || string(stream[:len(Magic)]) != string(Magic[:]) {
		return nil, ScanInfo{}, ErrNotWAL
	}
	var recs []Record
	off := int64(len(Magic))
	for {
		rest := stream[off:]
		if len(rest) < 4 {
			break
		}
		blen := binary.LittleEndian.Uint32(rest)
		if blen == 0 || blen > maxBody {
			break // corrupt length prefix: treat as torn tail
		}
		end := off + 4 + int64(blen) + 4
		if end > int64(len(stream)) {
			break // frame extends past the stream: torn tail
		}
		body := stream[off+4 : off+4+int64(blen)]
		want := binary.LittleEndian.Uint32(stream[end-4:])
		if crc32.ChecksumIEEE(body) != want {
			break // torn or corrupt body
		}
		var rec Record
		if !decodeBody(body, &rec) {
			break // CRC collided with garbage; stop at the clean prefix
		}
		rec.Off = off
		rec.End = end
		recs = append(recs, rec)
		off = end
	}
	return recs, ScanInfo{Complete: off, TornBytes: int64(len(stream)) - off}, nil
}
