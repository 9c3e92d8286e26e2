package abyss1000_test

// The log's safety net: joins the write-ahead log to the captured history
// of the same run. walprop_test.go checks that the whole log recovers the
// live state and that torn logs reduce to their complete prefix; this file
// checks what each such prefix holds. Every prefix ending on a record
// boundary must be a set of committed transactions that includes the
// writer of every version any of them read (closed under reads-from), and
// recovering it must leave each slot it touches at the image of the
// highest captured version in the set — "highest" being commit-point
// order for counter schemes and timestamp order for TIMESTAMP and MVCC,
// whose replay keeps the highest timestamp rather than the last record.

import (
	"bytes"
	"testing"

	"abyss1000/abyss"
	"abyss1000/internal/wal"
)

// capturedWriters returns the captured transactions of db's run that
// wrote — exactly those whose commit appended a log record — keyed by
// worker, each list in that worker's commit order (DB.History keeps it).
func capturedWriters(t *testing.T, db *abyss.DB) map[int][]*abyss.HistoryTxn {
	t.Helper()
	h, err := db.History()
	if err != nil {
		t.Fatal(err)
	}
	by := map[int][]*abyss.HistoryTxn{}
	for i := range h.Txns {
		if tx := &h.Txns[i]; len(tx.Writes) > 0 {
			by[tx.Worker] = append(by[tx.Worker], tx)
		}
	}
	return by
}

// TestLogPrefixesAreReadsFromClosed runs the prefix property on every
// paper scheme and both runtimes, over write-heavy YCSB and the full
// TPC-C mix (whose log also carries inserts).
func TestLogPrefixesAreReadsFromClosed(t *testing.T) {
	for _, workload := range recoveryWorkloads {
		for _, runtime := range []string{abyss.RuntimeSim, abyss.RuntimeNative} {
			for _, scheme := range abyss.PaperSchemes() {
				t.Run(subtestName(workload, runtime, scheme), func(t *testing.T) {
					p := recoveryParams(t, workload, scheme)
					p.ReadPct = 0.2 // YCSB: four writes to every read; TPC-C ignores it
					live, stream, _ := durableRun(t, workload, runtime, scheme, p)
					checkLogPrefixes(t, workload, scheme, live, stream)
				})
			}
		}
	}
}

// version names one captured row version.
type version struct {
	table, slot int
	ver         uint64
}

// checkLogPrefixes maps each worker's commit records, in log order, to
// that worker's captured writers in commit order — LogCommit captures and
// appends in the same call — and checks every record-boundary prefix of
// stream against the history of the run that produced it.
func checkLogPrefixes(t *testing.T, workload, scheme string, live *abyss.DB, stream []byte) {
	t.Helper()
	h, err := live.History()
	if err != nil {
		t.Fatal(err)
	}
	writerOf := map[version]int{}
	for i := range h.Txns {
		for _, w := range h.Txns[i].Writes {
			writerOf[version{w.Table, w.Slot, w.Ver}] = h.Txns[i].ID
		}
	}
	pending := capturedWriters(t, live)
	recs, info, err := wal.Scan(stream)
	if err != nil || info.TornBytes != 0 {
		t.Fatalf("scan: %+v, %v", info, err)
	}

	// Reads-from closure is checked at every boundary. Recovery is too,
	// except under -short and for TPC-C (records ~10x YCSB's, so the
	// quadratic replay would dominate the suite), where it is checked at
	// 24 evenly spread boundaries and the last. One catalog recovers them
	// all: each Recover replays its whole prefix, and replay rewrites
	// every slot the prefix touches (inserts find their keys and
	// overwrite in place), so the result equals a fresh catalog's.
	stride := 1
	if testing.Short() || workload == "tpcc" {
		stride = len(recs)/24 + 1
	}
	rec, _ := recoverFresh(t, workload, scheme, stream[:len(wal.Magic)])
	tables := map[int]*abyss.Table{}
	for _, ht := range h.Tables {
		if tables[ht.ID], err = rec.Table(ht.Name); err != nil {
			t.Fatal(err)
		}
	}

	in := map[int]bool{}                    // txn IDs the prefix holds
	want := map[[2]int]abyss.HistoryWrite{} // (table, slot) → highest version in the prefix
	for i := range recs {
		r := &recs[i]
		if r.Type == wal.TypeCommit {
			c := r.Commit
			q := pending[c.Worker]
			if len(q) == 0 {
				t.Fatalf("record %d: worker %d logged more commits than it has captured writers", i, c.Worker)
			}
			tx := q[0]
			pending[c.Worker] = q[1:]
			if len(tx.Writes) != len(c.Updates)+len(c.Inserts) {
				t.Fatalf("record %d: logs %d updates + %d inserts, its transaction T%d wrote %d slots", i, len(c.Updates), len(c.Inserts), tx.ID, len(tx.Writes))
			}
			for _, u := range c.Updates {
				if !wroteImage(tx, u.Table, u.Slot, u.Image) {
					t.Fatalf("record %d logs table %d slot %d with an image T%d did not write there", i, u.Table, u.Slot, tx.ID)
				}
			}
			in[tx.ID] = true
			for _, rd := range tx.Reads {
				if rd.Ver == 0 {
					continue // the loaded image
				}
				w, ok := writerOf[version{rd.Table, rd.Slot, rd.Ver}]
				if !ok {
					t.Fatalf("T%d read table %d slot %d version %d, which no captured transaction wrote", tx.ID, rd.Table, rd.Slot, rd.Ver)
				}
				if !in[w] {
					t.Fatalf("the log prefix ending at record %d holds T%d, which read table %d slot %d version %d from T%d, not yet logged",
						i, tx.ID, rd.Table, rd.Slot, rd.Ver, w)
				}
			}
			for _, w := range tx.Writes {
				k := [2]int{w.Table, w.Slot}
				if cur, ok := want[k]; !ok || w.Ver > cur.Ver {
					want[k] = w
				}
			}
		}
		if i%stride != 0 && i != len(recs)-1 {
			continue
		}
		if _, err := rec.Recover(stream[:r.End]); err != nil {
			t.Fatalf("recover through record %d: %v", i, err)
		}
		for k, w := range want {
			if !bytes.Equal(tables[k[0]].Row(k[1]), w.Image) {
				t.Fatalf("recovering through record %d: table %d slot %d differs from its highest version in the prefix, v%d",
					i, k[0], k[1], w.Ver)
			}
		}
	}
	for worker, q := range pending {
		if len(q) > 0 {
			t.Fatalf("worker %d has %d captured writers the log never recorded", worker, len(q))
		}
	}
}

// wroteImage reports whether tx wrote image at (table, slot).
func wroteImage(tx *abyss.HistoryTxn, table, slot int, image []byte) bool {
	for _, w := range tx.Writes {
		if w.Table == table && w.Slot == slot && bytes.Equal(w.Image, image) {
			return true
		}
	}
	return false
}
