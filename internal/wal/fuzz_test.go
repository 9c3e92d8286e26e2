package wal

import (
	"bytes"
	"testing"
)

// FuzzScan feeds arbitrary byte streams to the decoder. The properties:
// Scan never panics, never reads past the input, and on any prefix of a
// valid stream returns records whose re-encoding is bit-identical to the
// bytes it attributed to them (frames tile the complete prefix).
func FuzzScan(f *testing.F) {
	stream, _ := sampleStream()
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	f.Add([]byte(nil))
	f.Add(Magic[:])
	f.Add(append(append([]byte(nil), Magic[:]...), 0xff, 0xff, 0xff, 0x7f))
	corrupt := append([]byte(nil), stream...)
	corrupt[20] ^= 0x40
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, info, err := Scan(data)
		if err != nil {
			if err != ErrNotWAL {
				t.Fatalf("unexpected error: %v", err)
			}
			return
		}
		if info.Complete+info.TornBytes != int64(len(data)) {
			t.Fatalf("scan info does not cover input: %+v vs %d", info, len(data))
		}
		off := int64(len(Magic))
		for i, r := range recs {
			if r.Off != off || r.End <= r.Off || r.End > int64(len(data)) {
				t.Fatalf("record %d extent [%d,%d) invalid at off %d", i, r.Off, r.End, off)
			}
			off = r.End
		}
		if off != info.Complete {
			t.Fatalf("extents end at %d, Complete=%d", off, info.Complete)
		}
		// Valid commit records round-trip byte-exactly.
		for _, r := range recs {
			if r.Type != TypeCommit {
				continue
			}
			re := AppendCommit(nil, r.Commit)
			if !bytes.Equal(re, data[r.Off:r.End]) {
				t.Fatalf("commit record did not round-trip")
			}
		}
	})
}

// FuzzCommitRoundTrip drives structured commit records from raw fuzz input
// and asserts encode→scan→re-encode is a fixed point.
func FuzzCommitRoundTrip(f *testing.F) {
	f.Add(uint16(3), uint64(42), []byte("images and keys and slots"))
	f.Add(uint16(0), uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, worker uint16, ver uint64, blob []byte) {
		c := &Commit{Worker: int(worker), Ver: ver}
		// Carve blob into a few update images and insert keys.
		for i := 0; i+2 <= len(blob) && i < 12; i += 2 {
			n := int(blob[i]) % (len(blob) + 1)
			if blob[i+1]%2 == 0 {
				c.Updates = append(c.Updates, Update{Table: int(blob[i] % 4), Slot: int(blob[i+1]), Image: blob[:n]})
			} else {
				in := Insert{Table: int(blob[i] % 4), Image: blob[:n], N: 1 + int(blob[i+1]/2%2)}
				for j := 0; j < in.N; j++ {
					in.Entries[j] = InsertEntry{Index: int(blob[i+1] % 3), Key: uint64(blob[i]) << (i + j)}
				}
				c.Inserts = append(c.Inserts, in)
			}
		}
		stream := AppendCommit(append([]byte(nil), Magic[:]...), c)
		recs, info, err := Scan(stream)
		if err != nil || len(recs) != 1 || info.TornBytes != 0 {
			t.Fatalf("scan of encoded commit: %d recs, %+v, %v", len(recs), info, err)
		}
		re := AppendCommit(append([]byte(nil), Magic[:]...), recs[0].Commit)
		if !bytes.Equal(re, stream) {
			t.Fatal("re-encoded commit differs")
		}
	})
}
