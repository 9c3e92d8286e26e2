package index

import (
	"sync/atomic"
	"testing"

	"abyss1000/internal/costs"
	"abyss1000/internal/mesh"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
)

// TestHashProbeMovesNoLine counts a probe's INDEX bill on the simulator.
// Core 1 inserts into bucket b, which takes b's latch line to core 1. Core
// 0 then probes b: a probe is a read section, so it pays the bucket's line
// (an L2 access plus 16 bytes), the probe itself and the chain, and leaves
// the latch line with core 1 — which core 1's second insert into b shows
// by paying a local hit, not a transfer, on both ends of its section.
func TestHashProbeMovesNoLine(t *testing.T) {
	const buckets = 16
	eng := sim.New(2, 1)
	chip := eng.Chip()
	schema := storage.NewSchema("T", storage.Col{Name: "K", Width: 8})
	h := New(eng, storage.NewTable(0, schema, 64, 64, 2), buckets)
	var keys []uint64 // two keys of bucket b
	for k := uint64(1); len(keys) < 2; k++ {
		if Bucket(k, buckets) == Bucket(1, buckets) {
			keys = append(keys, k)
		}
	}
	b := h.bucket(keys[0])
	bucketHome := chip.HomeTile(h.memKey(b))
	var probe, insert uint64
	eng.Run(func(p rt.Proc) {
		if p.ID() == 1 {
			h.Insert(p, keys[0], 10)
			p.Tick(stats.Useful, 20_000) // past core 0's probe and every line's busy window
			bill := p.Stats().Get(stats.Index)
			h.Insert(p, keys[1], 11)
			insert = p.Stats().Get(stats.Index) - bill
			return
		}
		p.Tick(stats.Useful, 10_000) // after core 1's first insert
		if s, ok := h.Lookup(p, keys[0]); !ok || s != 10 {
			t.Errorf("Lookup = %d, %v; want 10, true", s, ok)
		}
		probe = p.Stats().Get(stats.Index)
	})
	if want := chip.L2Access(0, bucketHome) + 16/16 + costs.IndexProbe + 1; probe != want {
		t.Errorf("core 0's probe billed %d INDEX cycles, want %d: L2 access, 16 bytes, IndexProbe and a chain of 1", probe, want)
	}
	if want := mesh.L1Cycles + chip.L2Access(1, bucketHome) + 16/8 + costs.IndexInsert + mesh.L1Cycles; insert != want {
		t.Errorf("core 1's second insert billed %d INDEX cycles, want %d: the latch line moved to the prober", insert, want)
	}
}

// TestReadSectionsBesideWritersNative races Hash and Ordered lookups and
// range scans against inserts and removes on real goroutines (run it under
// -race). Two writers each own every other slot and map it, unmap it and
// map it again under key(slot) in both indexes; two readers probe and scan
// throughout. Every entry a reader sees must be one a writer inserted: a
// key of the form key(s) found at slot s, in ascending order within the
// scanned range, and no key that was never inserted.
func TestReadSectionsBesideWritersNative(t *testing.T) {
	const (
		writers, readers = 2, 2
		slots            = 512
		rounds           = 3
	)
	key := func(s int) uint64 { return uint64(s)*7 + 3 }
	run := native.New(writers+readers, 1)
	schema := storage.NewSchema("T", storage.Col{Name: "K", Width: 8})
	tab := storage.NewTable(0, schema, slots, 0, writers+readers)
	h, o := New(run, tab, 64), NewOrdered(run, tab)
	var done atomic.Int32
	run.Run(func(p rt.Proc) {
		if p.ID() < writers {
			defer done.Add(1)
			for r := 0; r < rounds; r++ {
				for s := p.ID(); s < slots; s += writers {
					h.Insert(p, key(s), s)
					o.Insert(p, key(s), s)
				}
				for s := p.ID(); s < slots; s += 2 * writers {
					if !h.Remove(p, key(s), s) || !o.Remove(p, key(s), s) {
						t.Errorf("writer %d: slot %d was not mapped", p.ID(), s)
					}
				}
				for s := p.ID(); s < slots; s += 2 * writers {
					h.Insert(p, key(s), s)
					o.Insert(p, key(s), s)
				}
				for s := p.ID(); s < slots; s += writers {
					if !h.Remove(p, key(s), s) || !o.Remove(p, key(s), s) {
						t.Errorf("writer %d: slot %d was not mapped", p.ID(), s)
					}
				}
			}
			return
		}
		var out []Entry
		for n := 0; done.Load() < writers || n < 100; n++ {
			s := p.Rand().Intn(slots)
			if got, ok := h.Lookup(p, key(s)); ok && got != s {
				t.Errorf("Hash.Lookup(%d) found slot %d, want %d", key(s), got, s)
				return
			}
			if got, ok := o.Lookup(p, key(s)); ok && got != s {
				t.Errorf("Ordered.Lookup(%d) found slot %d, want %d", key(s), got, s)
				return
			}
			if _, ok := h.Lookup(p, key(s)+1); ok {
				t.Errorf("Hash.Lookup found never-inserted key %d", key(s)+1)
				return
			}
			lo, hi := key(s), key(s)+200
			out = o.RangeScan(p, lo, hi, out[:0])
			for i, e := range out {
				if e.Key < lo || e.Key > hi || (i > 0 && e.Key <= out[i-1].Key) || e.Key != key(int(e.Slot)) {
					t.Errorf("RangeScan[%d, %d] returned %v", lo, hi, out)
					return
				}
			}
		}
	})
	if o.Len() != 0 {
		t.Fatalf("%d ordered entries after the run, want 0", o.Len())
	}
	h.Range(func(k uint64, s int) { t.Errorf("hash still maps %d→%d", k, s) })
}
