package to

import (
	"slices"
	"testing"
	"unsafe"
)

// The timestamp word is 40 bytes; a stray field shows up here as a one-line
// diff.
func TestTupleTSSize(t *testing.T) {
	if got := unsafe.Sizeof(tupleTS{}); got != 40 {
		t.Fatalf("tupleTS is %d bytes, want 40", got)
	}
}

// TestPendListMatchesSlice: three ascending prewrites, the middle one
// withdrawn, then the rest — the inline-first/spilled list reads as the plain
// slice it replaced (append on prewrite, shift-delete on resolution) after
// every step, and the minimum that readers block on is always its head.
// (The protocol itself never has two prewrites outstanding on a tuple — a
// later writer waits for the earlier one and an earlier one is rejected by
// rts — so only the entry can be driven this far.)
func TestPendListMatchesSlice(t *testing.T) {
	a, b, c := &txnState{}, &txnState{}, &txnState{}
	var e tupleTS
	var model []pend
	check := func(step string) {
		t.Helper()
		if !slices.Equal(e.pends(), model) {
			t.Fatalf("%s: pends %v, slice model %v", step, e.pends(), model)
		}
		if want := len(model) > 0 && model[0].ts < 25; blockedBy(&e, 25) != want {
			t.Fatalf("%s: blockedBy(25) = %v with pends %v", step, !want, model)
		}
	}
	check("empty")
	e.addPend(pend{ts: 10, st: a})
	model = append(model, pend{ts: 10, st: a})
	check("first prewrite")
	if e.spill != nil {
		t.Fatal("a single prewrite must live in the entry, with no spill")
	}
	for _, pd := range []pend{{ts: 20, st: b}, {ts: 30, st: c}} {
		e.addPend(pd)
		model = append(model, pd)
		check("further prewrite")
	}
	if e.spill == nil {
		t.Fatal("a second prewrite must attach the spill")
	}
	for _, st := range []*txnState{b, a, c} { // abort the middle one first
		e.removePend(st)
		model = slices.DeleteFunc(model, func(pd pend) bool { return pd.st == st })
		check("resolution")
	}
	// The spill is kept, and keeps working, once the tuple goes quiet.
	e.addPend(pend{ts: 40, st: a})
	if e.first[0].st != nil || !slices.Equal(e.pends(), []pend{{ts: 40, st: a}}) {
		t.Fatal("a spilled entry must keep its list behind the spill")
	}
}
