package wal

import (
	"bytes"
	"reflect"
	"testing"
)

// sampleStream builds a stream exercising every record type and returns it
// with the records it encodes.
func sampleStream() ([]byte, []Commit) {
	commits := []Commit{
		{Worker: 3, Ver: 0, Updates: []Update{
			{Table: 0, Slot: 17, Image: []byte("row-seventeen---")},
			{Table: 1, Slot: 2, Image: bytes.Repeat([]byte{0xab}, 100)},
		}},
		{Worker: 0, Ver: 42, Inserts: []Insert{
			{Table: 2, Image: []byte("inserted row"), N: 1, Entries: [2]InsertEntry{{Index: 1, Key: 0xdeadbeef}}},
			{Table: 2, Image: []byte("ordered row"), N: 2, Entries: [2]InsertEntry{{Index: 1, Key: 7}, {Index: 11, Key: 0xfeedface}}},
		}},
		{Worker: 7, Ver: 9, Updates: []Update{{Table: 0, Slot: 0, Image: nil}}},
	}
	s := append([]byte(nil), Magic[:]...)
	s = AppendMarker(s, TypeEpoch, 1)
	s = AppendMarker(s, TypeCkptBegin, 5)
	s = AppendCkptRows(s, &CkptRows{Table: 0, Start: 8, Count: 3, RowSize: 4, Rows: []byte("aaaabbbbcccc")})
	s = AppendCkptAlloc(s, &CkptAlloc{Table: 0, Next: []int{10, 20, 30}})
	s = AppendCkptIndex(s, &CkptIndex{Index: 2, Entries: []CkptIndexEntry{{Key: 9, Slot: 4}, {Key: 11, Slot: 5}}})
	s = AppendCkptIndex(s, &CkptIndex{Index: 11, Entries: []CkptIndexEntry{{Key: 3, Slot: 6}}})
	s = AppendMarker(s, TypeCkptEnd, 5)
	for i := range commits {
		s = AppendCommit(s, &commits[i])
	}
	return s, commits
}

func TestRoundTrip(t *testing.T) {
	stream, commits := sampleStream()
	recs, info, err := Scan(stream)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if info.TornBytes != 0 || info.Complete != int64(len(stream)) {
		t.Fatalf("clean stream reported torn: %+v", info)
	}
	wantTypes := []byte{TypeEpoch, TypeCkptBegin, TypeCkptRows, TypeCkptAlloc, TypeCkptIndex, TypeCkptIndex, TypeCkptEnd, TypeCommit, TypeCommit, TypeCommit}
	if len(recs) != len(wantTypes) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantTypes))
	}
	for i, r := range recs {
		if r.Type != wantTypes[i] {
			t.Fatalf("record %d type = %d, want %d", i, r.Type, wantTypes[i])
		}
	}
	if recs[0].ID != 1 || recs[1].ID != 5 || recs[6].ID != 5 {
		t.Fatalf("delimiter IDs wrong: %d %d %d", recs[0].ID, recs[1].ID, recs[5].ID)
	}
	cr := recs[2].Rows
	if cr.Table != 0 || cr.Start != 8 || cr.Count != 3 || cr.RowSize != 4 || string(cr.Rows) != "aaaabbbbcccc" {
		t.Fatalf("ckpt rows mismatch: %+v", cr)
	}
	if !reflect.DeepEqual(recs[3].Alloc, &CkptAlloc{Table: 0, Next: []int{10, 20, 30}}) {
		t.Fatalf("ckpt alloc mismatch: %+v", recs[3].Alloc)
	}
	if !reflect.DeepEqual(recs[4].Index, &CkptIndex{Index: 2, Entries: []CkptIndexEntry{{Key: 9, Slot: 4}, {Key: 11, Slot: 5}}}) {
		t.Fatalf("ckpt index mismatch: %+v", recs[4].Index)
	}
	if !reflect.DeepEqual(recs[5].Index, &CkptIndex{Index: 11, Entries: []CkptIndexEntry{{Key: 3, Slot: 6}}}) {
		t.Fatalf("second ckpt index mismatch: %+v", recs[5].Index)
	}
	for i, want := range commits {
		got := recs[7+i].Commit
		if got.Worker != want.Worker || got.Ver != want.Ver {
			t.Fatalf("commit %d header mismatch: %+v", i, got)
		}
		if len(got.Updates) != len(want.Updates) || len(got.Inserts) != len(want.Inserts) {
			t.Fatalf("commit %d shape mismatch: %+v", i, got)
		}
		for j := range want.Updates {
			g, w := got.Updates[j], want.Updates[j]
			if g.Table != w.Table || g.Slot != w.Slot || !bytes.Equal(g.Image, w.Image) {
				t.Fatalf("commit %d update %d mismatch", i, j)
			}
		}
		for j := range want.Inserts {
			g, w := got.Inserts[j], want.Inserts[j]
			// One- and two-entry inserts name their indexes in the single
			// ordinal space; slots of Entries past N stay zero.
			if g.Table != w.Table || g.N != w.N || g.Entries != w.Entries || !bytes.Equal(g.Image, w.Image) {
				t.Fatalf("commit %d insert %d mismatch", i, j)
			}
		}
	}
	// Record extents tile the stream exactly.
	off := int64(len(Magic))
	for i, r := range recs {
		if r.Off != off {
			t.Fatalf("record %d Off = %d, want %d", i, r.Off, off)
		}
		off = r.End
	}
	if off != int64(len(stream)) {
		t.Fatalf("extents end at %d, stream is %d", off, len(stream))
	}
}

// TestScanTruncation truncates the sample stream at EVERY byte offset and
// asserts Scan returns exactly the records whose frames fit entirely in
// the prefix — the core torn-tail property recovery depends on.
func TestScanTruncation(t *testing.T) {
	stream, _ := sampleStream()
	full, _, err := Scan(stream)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(Magic); cut <= len(stream); cut++ {
		want := 0
		for _, r := range full {
			if r.End <= int64(cut) {
				want++
			}
		}
		recs, info, err := Scan(stream[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != want {
			t.Fatalf("cut %d: got %d records, want %d", cut, len(recs), want)
		}
		if int(info.Complete)+int(info.TornBytes) != cut {
			t.Fatalf("cut %d: info doesn't cover prefix: %+v", cut, info)
		}
		if want > 0 && info.Complete != recs[want-1].End {
			t.Fatalf("cut %d: Complete=%d, last End=%d", cut, info.Complete, recs[want-1].End)
		}
	}
}

func TestScanRejectsBadMagic(t *testing.T) {
	if _, _, err := Scan([]byte("NOTAWAL!extra")); err != ErrNotWAL {
		t.Fatalf("bad magic: err = %v, want ErrNotWAL", err)
	}
	if _, _, err := Scan(nil); err != ErrNotWAL {
		t.Fatalf("nil stream: err = %v, want ErrNotWAL", err)
	}
	// The previous format version kept ordered indexes in their own ordinal
	// space: reading it as 03 would misattribute entries, so it is refused.
	stream, _ := sampleStream()
	old := append([]byte("ABYWAL02"), stream[len(Magic):]...)
	if _, _, err := Scan(old); err != ErrNotWAL {
		t.Fatalf("ABYWAL02 stream: err = %v, want ErrNotWAL", err)
	}
}

// TestInsertEntryCountBounds: an insert must name one or two entries; a
// frame claiming otherwise fails decode and ends the clean prefix, like any
// corrupt record.
func TestInsertEntryCountBounds(t *testing.T) {
	head := append([]byte(nil), Magic[:]...)
	for _, n := range []uint32{0, MaxInsertEntries + 1} {
		body := []byte{TypeCommit}
		body = appendU32(body, 0) // worker
		body = appendU64(body, 0) // ver
		body = appendU32(body, 0) // updates
		body = appendU32(body, 1) // inserts
		body = appendU32(body, 2) // table
		body = appendU32(body, n) // entry count
		for i := uint32(0); i < n; i++ {
			body = appendU64(appendU32(body, i), 7)
		}
		body = appendU32(body, 0) // empty image
		recs, info, err := Scan(appendFrame(head, body))
		if err != nil || len(recs) != 0 || info.Complete != int64(len(Magic)) {
			t.Fatalf("insert with %d entries: %d records, %+v, %v", n, len(recs), info, err)
		}
	}
}

func TestScanStopsOnCorruption(t *testing.T) {
	stream, _ := sampleStream()
	recs, _, _ := Scan(stream)
	// Flip a byte inside the 3rd record's body: scan keeps the first two.
	mut := append([]byte(nil), stream...)
	mut[recs[2].Off+6] ^= 0xff
	got, info, err := Scan(mut)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("corrupt 3rd record: got %d records, want 2", len(got))
	}
	if info.Complete != recs[1].End {
		t.Fatalf("Complete = %d, want %d", info.Complete, recs[1].End)
	}
	// A zero length prefix also stops the scan cleanly.
	zl := append(append([]byte(nil), stream[:recs[1].End]...), 0, 0, 0, 0)
	got, _, err = Scan(zl)
	if err != nil || len(got) != 2 {
		t.Fatalf("zero-length frame: %d records, err %v", len(got), err)
	}
}
