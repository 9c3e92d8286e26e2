package sim

import (
	"strings"
	"testing"

	"abyss1000/internal/mesh"
	"abyss1000/internal/rt"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
)

// runPanic runs body on a fresh 2-core engine and returns the panic that
// unwinds out of Run, or nil.
func runPanic(body func(e *Engine, ls *latches, p rt.Proc)) (got any) {
	e := New(2, 1)
	ls := e.NewLatches(7<<40, slot.Fixed(2)).(*latches)
	defer func() { got = recover() }()
	e.Run(func(p rt.Proc) { body(e, ls, p) })
	return nil
}

// TestReadSectionRefusesOrderingPoints: a read section's body may reach no
// ordering point, because under simulation a reader that yields could be
// overtaken by a writer of what it reads. Sync, Park, ParkTimeout and a
// latch Acquire (which Syncs) inside one panic; the same calls after
// ReleaseRead do not.
func TestReadSectionRefusesOrderingPoints(t *testing.T) {
	for _, c := range []struct {
		name string
		call func(ls *latches, p rt.Proc)
	}{
		{"Sync", func(ls *latches, p rt.Proc) { p.Sync(stats.Index, 1) }},
		{"Park", func(ls *latches, p rt.Proc) { p.Park(stats.Index) }},
		{"ParkTimeout", func(ls *latches, p rt.Proc) { p.ParkTimeout(stats.Index, 10) }},
		{"Acquire", func(ls *latches, p rt.Proc) { ls.Acquire(p, stats.Index, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := runPanic(func(e *Engine, ls *latches, p rt.Proc) {
				if p.ID() != 0 {
					return
				}
				ls.AcquireRead(p, stats.Index, 0)
				c.call(ls, p)
				ls.ReleaseRead(p, stats.Index, 0)
			})
			if msg, _ := got.(string); !strings.Contains(msg, "read section") {
				t.Fatalf("%s inside a read section: recovered %#v, want a read-section panic", c.name, got)
			}
			if got := runPanic(func(e *Engine, ls *latches, p rt.Proc) {
				if p.ID() != 0 {
					return
				}
				ls.AcquireRead(p, stats.Index, 0)
				ls.ReleaseRead(p, stats.Index, 0)
				e.Unpark(nil, p) // a permit, so that Park returns
				c.call(ls, p)
			}); got != nil {
				t.Fatalf("%s after ReleaseRead panicked: %v", c.name, got)
			}
		})
	}
}

// TestReadSectionOnHeldLatchPanics: a reader that finds the latch held
// means an exclusive section of it reached an ordering point, which breaks
// the contract that makes a read section free of line traffic.
func TestReadSectionOnHeldLatchPanics(t *testing.T) {
	got := runPanic(func(e *Engine, ls *latches, p rt.Proc) {
		if p.ID() == 0 {
			ls.Acquire(p, stats.Manager, 0)
			p.Sync(stats.Useful, 1000) // hold across a yield
			ls.Release(p, stats.Manager, 0)
			return
		}
		p.Tick(stats.Useful, 100)
		ls.AcquireRead(p, stats.Index, 0)
		ls.ReleaseRead(p, stats.Index, 0)
	})
	if msg, _ := got.(string); !strings.Contains(msg, "held latch") {
		t.Fatalf("recovered %#v, want a held-latch panic", got)
	}
}

// TestReadSectionMovesNoLine: core 1 takes and releases a latch, which
// leaves its line owned by core 1 and busy until the release completes;
// core 0's read section on it, issued inside that busy window, leaves the
// line exactly as it was and bills nothing — the section's own MemReads
// are all a reader pays.
func TestReadSectionMovesNoLine(t *testing.T) {
	e := New(2, 1)
	ls := e.NewLatches(7<<40, slot.Fixed(1)).(*latches)
	var before mesh.Line
	e.Run(func(p rt.Proc) {
		if p.ID() == 1 {
			ls.Acquire(p, stats.Index, 0)
			ls.Release(p, stats.Index, 0)
			before = ls.At(0).line
			return
		}
		p.Tick(stats.Useful, 1) // runs after core 1's release, inside its window
		t0, bill := p.Now(), p.Stats().Get(stats.Index)
		ls.AcquireRead(p, stats.Index, 0)
		ls.ReleaseRead(p, stats.Index, 0)
		if d := p.Now() - t0; d != 0 {
			t.Errorf("read section advanced the clock by %d cycles", d)
		}
		if d := p.Stats().Get(stats.Index) - bill; d != 0 {
			t.Errorf("read section billed %d INDEX cycles", d)
		}
	})
	if ls.At(0).line.Owner() != 1 {
		t.Fatalf("test setup: core 1 does not own the line")
	}
	if got := ls.At(0).line; got != before {
		t.Fatalf("read section changed the latch's line: %+v, was %+v", got, before)
	}
	if ls.At(0).line.Spare[holder] != 0 {
		t.Fatalf("read section left a holder")
	}
}
