package core

import (
	"cmp"
	"errors"
	"slices"

	"abyss1000/internal/index"
	"abyss1000/internal/wal"
)

// Checkpoint chunk sizes: rows per TypeCkptRows record and entries per
// TypeCkptIndex record. Small enough that a torn checkpoint wastes little,
// large enough that framing overhead is noise.
const (
	ckptRowChunk   = 256
	ckptIndexChunk = 1024
)

// ErrNoWAL is returned by Checkpoint and recovery helpers when the DB has
// no attached log.
var ErrNoWAL = errors.New("core: no WAL attached to this DB")

// Checkpoint appends a quiesced snapshot of every table — setup rows,
// runtime-inserted rows, per-worker allocation cursors, and the indexes'
// runtime-inserted entries — to the attached WAL and flushes it. The
// caller must guarantee quiescence (no run in progress); the engine only
// checkpoints between runs. Recovery starts replay at the last complete
// Begin/End pair, so commits logged before it stop being needed; a crash
// mid-checkpoint leaves an incomplete pair that recovery ignores,
// falling back to the previous checkpoint (or the stream start).
//
// scheme is the scheme of the preceding run (nil if none): schemes whose
// committed state lives outside the table slab (CommittedRower — MVCC's
// version chains) have their committed images snapshotted, not the slab.
func Checkpoint(db *DB, scheme Scheme) error {
	w := db.Wal
	if w == nil {
		return ErrNoWAL
	}
	row, live := committedRow(scheme)
	db.walEpoch++
	id := db.walEpoch
	w.Append(wal.AppendMarker(nil, wal.TypeCkptBegin, id))
	var buf, rowBuf []byte
	for _, t := range db.Catalog.Tables() {
		rs := t.Schema.RowSize()
		// chunk returns the images of the slots [start, start+k) for some
		// 0 < k <= n: the live rows a page at a time (see Table.Rows), or
		// all n committed images.
		chunk := func(start, n int) []byte {
			if live {
				return t.Rows(start, n)
			}
			rowBuf = rowBuf[:0]
			for s := start; s < start+n; s++ {
				rowBuf = append(rowBuf, row(t, s)...)
			}
			return rowBuf
		}
		alloc := wal.CkptAlloc{Table: t.ID, Next: make([]int, t.NumSegs())}
		t.Populated(func(seg, start, end int) {
			for s := start; s < end; {
				rows := chunk(s, min(end-s, ckptRowChunk))
				n := len(rows) / rs
				buf = wal.AppendCkptRows(buf[:0], &wal.CkptRows{
					Table: t.ID, Start: s, Count: n, RowSize: rs, Rows: rows,
				})
				w.Append(buf)
				s += n
			}
			if seg >= 0 {
				alloc.Next[seg] = end
			}
		})
		buf = wal.AppendCkptAlloc(buf[:0], &alloc)
		w.Append(buf)
	}
	for ord, x := range db.indexes {
		for entries := runtimeEntries(x); len(entries) > 0; {
			n := min(len(entries), ckptIndexChunk)
			buf = wal.AppendCkptIndex(buf[:0], &wal.CkptIndex{Index: ord, Entries: entries[:n]})
			w.Append(buf)
			entries = entries[n:]
		}
	}
	w.Append(wal.AppendMarker(nil, wal.TypeCkptEnd, id))
	return w.Flush()
}

// runtimeEntries returns x's entries for runtime-inserted rows (slots past
// the loaded prefix; setup rebuilds the rest before recovery), sorted:
// live insertion order and replay order arrange equal entry sets
// differently, and checkpoints and state dumps must depend only on the set.
func runtimeEntries(x index.Index) []wal.CkptIndexEntry {
	loaded := x.Table().Loaded()
	var entries []wal.CkptIndexEntry
	x.Range(func(key uint64, slot int) {
		if slot >= loaded {
			entries = append(entries, wal.CkptIndexEntry{Key: key, Slot: slot})
		}
	})
	slices.SortFunc(entries, func(a, b wal.CkptIndexEntry) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Slot, b.Slot))
	})
	return entries
}
