package core

import (
	"fmt"
	"strings"

	"abyss1000/internal/storage"
)

// CommittedRower is implemented by schemes whose latest committed row
// image is not the table slab's bytes (MVCC keeps current state in its
// version chains). DumpState consults it when present; for every other
// scheme the live row IS the committed image on a quiescent database.
type CommittedRower interface {
	LatestCommitted(t *storage.Table, slot int) []byte
}

// committedRow returns the reader of a quiesced database's committed row
// images after a run of scheme (nil for none), and whether that reader is
// the live row: the table slab holds the committed state for every scheme
// but a CommittedRower.
func committedRow(scheme Scheme) (row func(t *storage.Table, slot int) []byte, live bool) {
	cr, _ := scheme.(CommittedRower) // nil for a nil scheme too
	if cr == nil {
		return (*storage.Table).Row, true
	}
	return func(t *storage.Table, slot int) []byte {
		if img := cr.LatestCommitted(t, slot); img != nil {
			return img
		}
		return t.Row(slot)
	}, false
}

// DumpState serializes db's committed user-visible state — every
// populated row of every table (setup rows plus runtime inserts),
// per-worker allocation cursors, and the indexes' runtime-inserted
// entries — into a deterministic text form. Two databases with equal
// dumps hold identical committed states; the crash harness compares a
// recovered database against the original this way. scheme may be nil
// (e.g. for a freshly recovered database, where the slab is the state).
//
// Quiesced use only: it reads rows and walks indexes with no latches.
func DumpState(db *DB, scheme Scheme) string {
	row, _ := committedRow(scheme)
	var b strings.Builder
	for _, t := range db.Catalog.Tables() {
		fmt.Fprintf(&b, "table %d %s loaded=%d\n", t.ID, t.Schema.Name, t.Loaded())
		t.Populated(func(seg, start, end int) {
			if seg >= 0 {
				fmt.Fprintf(&b, " seg %d next=%d\n", seg, end)
			}
			for s := start; s < end; s++ {
				fmt.Fprintf(&b, "  %d %x\n", s, row(t, s))
			}
		})
	}
	for ord, x := range db.indexes {
		fmt.Fprintf(&b, "index %d\n", ord)
		for _, e := range runtimeEntries(x) {
			fmt.Fprintf(&b, "  %d -> %d\n", e.Key, e.Slot)
		}
	}
	return b.String()
}
