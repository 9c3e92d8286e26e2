package core

import (
	"fmt"

	"abyss1000/internal/index"
	"abyss1000/internal/slot"
	"abyss1000/internal/storage"
	"abyss1000/internal/wal"
)

// RecoverInfo summarizes what a recovery replayed.
type RecoverInfo struct {
	// Records is the number of complete log records scanned.
	Records int

	// TornBytes is the length of the incomplete tail dropped by the scan
	// (non-zero exactly when the log was torn by a crash).
	TornBytes int64

	// Checkpoint is the ID of the complete checkpoint recovery started
	// from, or zero when replay started at the head of the stream.
	Checkpoint uint64

	// Commits, Updates and Inserts count the replayed work (commits
	// whose updates were all superseded by newer versions still count).
	Commits, Updates, Inserts int
}

// Recover replays the log stream onto db, which must be freshly set up by
// the same deterministic workload setup that produced the logged run
// (same tables in the same order, same loaded rows, same indexes in the
// same registration order). After Recover the tables hold exactly the
// state the complete log prefix commits to: the durable pre-crash
// committed state.
//
// Recovery is idempotent — replaying the same stream onto an
// already-recovered db reaches the same state, because updates rewrite
// the same images and inserts find their keys already present and
// overwrite in place instead of allocating again.
func Recover(db *DB, stream []byte) (RecoverInfo, error) {
	recs, scan, err := wal.Scan(stream)
	if err != nil {
		return RecoverInfo{}, err
	}
	ri := RecoverInfo{Records: len(recs), TornBytes: scan.TornBytes}
	tables := db.Catalog.Tables()

	// Find the last COMPLETE checkpoint: a Begin whose matching End also
	// made it into the complete prefix. An unmatched Begin is a crash
	// mid-checkpoint; its partial data is skipped entirely.
	begin, end := -1, -1
	open := make(map[uint64]int)
	for i, r := range recs {
		switch r.Type {
		case wal.TypeCkptBegin:
			open[r.ID] = i
		case wal.TypeCkptEnd:
			if b, ok := open[r.ID]; ok {
				begin, end = b, i
				ri.Checkpoint = r.ID
			}
		}
	}

	// floors[t] holds the highest replay version applied to each slot;
	// allocated lazily per table, only when versioned (T/O) records show
	// up. An epoch record resets them: a new run draws fresh timestamps.
	floors := make([]*slot.Array[uint64], len(tables))

	if end >= 0 {
		for i := begin; i <= end; i++ {
			if err := applyCkptRecord(db, tables, &recs[i]); err != nil {
				return ri, err
			}
		}
	}
	for i := end + 1; i < len(recs); i++ {
		r := &recs[i]
		switch r.Type {
		case wal.TypeEpoch:
			for t := range floors {
				floors[t] = nil
			}
		case wal.TypeCommit:
			if err := applyCommit(db, tables, floors, r.Commit, &ri); err != nil {
				return ri, err
			}
		default:
			// Partial data of an incomplete (torn) later checkpoint: the
			// commit records since the last complete checkpoint already
			// cover everything it would restore.
		}
	}
	return ri, nil
}

// applyCkptRecord restores one checkpoint record's payload.
func applyCkptRecord(db *DB, tables []*storage.Table, r *wal.Record) error {
	switch r.Type {
	case wal.TypeCkptRows:
		cr := r.Rows
		if cr.Table < 0 || cr.Table >= len(tables) {
			return fmt.Errorf("core: recover: checkpoint rows for unknown table %d", cr.Table)
		}
		t := tables[cr.Table]
		if cr.RowSize != t.Schema.RowSize() || cr.Start < 0 || cr.Start+cr.Count > t.Capacity() {
			return fmt.Errorf("core: recover: checkpoint rows of table %d do not fit its schema (start %d count %d rowsize %d)", cr.Table, cr.Start, cr.Count, cr.RowSize)
		}
		for s, src := cr.Start, cr.Rows; len(src) > 0; { // len(src) is a multiple of the row size
			n := copy(t.Rows(s, len(src)/cr.RowSize), src)
			s, src = s+n/cr.RowSize, src[n:]
		}
	case wal.TypeCkptAlloc:
		a := r.Alloc
		if a.Table < 0 || a.Table >= len(tables) {
			return fmt.Errorf("core: recover: checkpoint cursors for unknown table %d", a.Table)
		}
		t := tables[a.Table]
		if len(a.Next) > t.NumSegs() {
			return fmt.Errorf("core: recover: checkpoint has %d insert segments for table %d, DB has %d", len(a.Next), a.Table, t.NumSegs())
		}
		for w, next := range a.Next {
			t.RestoreSegNext(w, next)
		}
	case wal.TypeCkptIndex:
		if r.Index.Index < 0 || r.Index.Index >= len(db.indexes) {
			return fmt.Errorf("core: recover: checkpoint entries for unknown index %d", r.Index.Index)
		}
		x := db.indexes[r.Index.Index]
		tcap := x.Table().Capacity()
		for _, e := range r.Index.Entries {
			if e.Slot < 0 || e.Slot >= tcap {
				return fmt.Errorf("core: recover: checkpoint index %d maps key %d to slot %d outside table capacity %d", r.Index.Index, e.Key, e.Slot, tcap)
			}
			restoreEntry(x, e.Key, e.Slot)
		}
	}
	return nil
}

// restoreEntry publishes key→slot into x unless x already maps key: the
// one idempotence rule for every index entry recovery restores, of either
// kind, from a checkpoint or a commit record. A present key can stand for
// "this very entry" because keys are unique per index and replay reproduces
// the live slot assignment. Only recovering a stream onto a state that
// already holds its effects reaches the skip — replaying twice, or
// restoring a checkpoint over a recovered catalogue — and there it decides
// as both guards it replaced did (hash: key absent; ordered: key absent or
// mapped to another slot, which no such log produces).
func restoreEntry(x index.Index, key uint64, slot int) {
	if _, ok := x.LoadLookup(key); !ok {
		x.LoadInsert(key, slot)
	}
}

// applyCommit replays one committed transaction.
func applyCommit(db *DB, tables []*storage.Table, floors []*slot.Array[uint64], c *wal.Commit, ri *RecoverInfo) error {
	ri.Commits++
	for i := range c.Updates {
		u := &c.Updates[i]
		if u.Table < 0 || u.Table >= len(tables) {
			return fmt.Errorf("core: recover: update of unknown table %d", u.Table)
		}
		t := tables[u.Table]
		if u.Slot < 0 || u.Slot >= t.Capacity() || len(u.Image) != t.Schema.RowSize() {
			return fmt.Errorf("core: recover: update of table %d slot %d (image %d bytes) does not fit", u.Table, u.Slot, len(u.Image))
		}
		if c.Ver > 0 {
			// Timestamp-ordered commit: keep the highest version. Log
			// order already equals commit-point order for Ver==0 records.
			if floors[u.Table] == nil {
				fl := slot.Make[uint64](t.Layout())
				floors[u.Table] = &fl
			}
			fl := floors[u.Table].At(u.Slot)
			if c.Ver < *fl {
				continue
			}
			*fl = c.Ver
		}
		copy(t.Row(u.Slot), u.Image)
		ri.Updates++
	}
	for i := range c.Inserts {
		in := &c.Inserts[i]
		var ent [wal.MaxInsertEntries]index.Index
		for j, e := range in.Entries[:in.N] {
			if e.Index < 0 || e.Index >= len(db.indexes) || db.indexes[e.Index].Table().ID != in.Table {
				return fmt.Errorf("core: recover: insert into table %d names index %d, which is unknown or over another table", in.Table, e.Index)
			}
			ent[j] = db.indexes[e.Index]
		}
		t := ent[0].Table()
		if len(in.Image) != t.Schema.RowSize() {
			return fmt.Errorf("core: recover: insert into table %d carries a %d-byte image, rows are %d", t.ID, len(in.Image), t.Schema.RowSize())
		}
		// The first entry decides where the row lives: over an already-
		// recovered (or checkpointed) state its key is found and the row
		// overwritten in place, which is what makes recovery idempotent;
		// otherwise the committing worker's segment yields the live slot.
		slot, ok := ent[0].LoadLookup(in.Entries[0].Key)
		if !ok {
			if slot = t.AllocSlot(c.Worker); slot < 0 {
				return fmt.Errorf("core: recover: insert segment of table %d worker %d exhausted", t.ID, c.Worker)
			}
		}
		copy(t.Row(slot), in.Image)
		for j, e := range in.Entries[:in.N] {
			restoreEntry(ent[j], e.Key, slot)
		}
		ri.Inserts++
	}
	return nil
}
