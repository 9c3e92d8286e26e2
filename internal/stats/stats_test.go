package stats

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestComponentNames(t *testing.T) {
	want := map[Component]string{
		Useful:  "Useful Work",
		Abort:   "Abort",
		TsAlloc: "Ts Alloc.",
		Index:   "Index",
		Wait:    "Wait",
		Manager: "Manager",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), name)
		}
	}
	if !strings.Contains(Component(99).String(), "99") {
		t.Error("out-of-range component should render its number")
	}
}

func TestAddAndTotal(t *testing.T) {
	var b Breakdown
	b.Add(Useful, 100)
	b.Add(Wait, 50)
	b.Add(Useful, 25)
	if b.Get(Useful) != 125 || b.Get(Wait) != 50 {
		t.Fatalf("buckets wrong: %d/%d", b.Get(Useful), b.Get(Wait))
	}
	if b.Total() != 175 {
		t.Fatalf("total = %d, want 175", b.Total())
	}
}

func TestAbortAttemptRebillsWastedWork(t *testing.T) {
	var b Breakdown
	b.BeginAttempt()
	b.Add(Useful, 100)
	b.Add(Index, 40)
	b.Add(Manager, 10)
	b.Add(Wait, 30)
	b.Add(TsAlloc, 5)
	b.AbortAttempt()

	if b.Get(Useful) != 0 || b.Get(Index) != 0 || b.Get(Manager) != 0 {
		t.Fatalf("wasted work not re-billed: useful=%d index=%d manager=%d",
			b.Get(Useful), b.Get(Index), b.Get(Manager))
	}
	if b.Get(Abort) != 150 {
		t.Fatalf("abort bucket = %d, want 150", b.Get(Abort))
	}
	// Wait and TsAlloc keep their own buckets, as the paper reports them.
	if b.Get(Wait) != 30 || b.Get(TsAlloc) != 5 {
		t.Fatalf("wait/tsalloc clobbered: %d/%d", b.Get(Wait), b.Get(TsAlloc))
	}
	if b.Total() != 185 {
		t.Fatalf("total changed by abort re-billing: %d", b.Total())
	}
}

func TestCommitAttemptKeepsBilling(t *testing.T) {
	var b Breakdown
	b.BeginAttempt()
	b.Add(Useful, 70)
	b.CommitAttempt()
	if b.Get(Useful) != 70 || b.Get(Abort) != 0 {
		t.Fatal("commit should not move cycles")
	}
}

func TestAttemptsAreIndependent(t *testing.T) {
	var b Breakdown
	b.BeginAttempt()
	b.Add(Useful, 10)
	b.AbortAttempt()
	b.BeginAttempt()
	b.Add(Useful, 20)
	b.CommitAttempt()
	if b.Get(Useful) != 20 {
		t.Fatalf("useful = %d, want 20 (first attempt re-billed only)", b.Get(Useful))
	}
	if b.Get(Abort) != 10 {
		t.Fatalf("abort = %d, want 10", b.Get(Abort))
	}
}

func TestOutsideAttemptBillingSticks(t *testing.T) {
	var b Breakdown
	b.Add(Useful, 33) // no attempt open
	b.BeginAttempt()
	b.AbortAttempt()
	if b.Get(Useful) != 33 {
		t.Fatal("billing outside an attempt must not be re-billed by a later abort")
	}
}

func TestMergeAndReset(t *testing.T) {
	var a, b Breakdown
	a.Add(Useful, 5)
	b.Add(Useful, 7)
	b.Add(Wait, 3)
	a.Merge(&b)
	if a.Get(Useful) != 12 || a.Get(Wait) != 3 {
		t.Fatal("merge wrong")
	}
	a.Reset()
	if a.Total() != 0 {
		t.Fatal("reset did not zero")
	}
}

func TestFractionsSumToOne(t *testing.T) {
	f := func(vals [NumComponents]uint16) bool {
		var b Breakdown
		total := uint64(0)
		for i, v := range vals {
			b.Add(Component(i), uint64(v))
			total += uint64(v)
		}
		fr := b.Fractions()
		if total == 0 {
			for _, x := range fr {
				if x != 0 {
					return false
				}
			}
			return true
		}
		sum := 0.0
		for _, x := range fr {
			if x < 0 || x > 1 {
				return false
			}
			sum += x
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormatBreakdownMentionsAllComponents(t *testing.T) {
	var b Breakdown
	b.Add(Useful, 50)
	b.Add(Wait, 50)
	s := FormatBreakdown(&b)
	for c := Component(0); c < NumPaperComponents; c++ {
		if !strings.Contains(s, c.String()) {
			t.Fatalf("format missing %s: %s", c, s)
		}
	}
	if !strings.Contains(s, "50.0%") {
		t.Fatalf("format missing percentage: %s", s)
	}
	// Extension components (Log) appear only when non-zero, so existing
	// output stays byte-identical with durability off.
	if strings.Contains(s, Log.String()) {
		t.Fatalf("zero Log bucket should be omitted: %s", s)
	}
	b.Add(Log, 1)
	if s := FormatBreakdown(&b); !strings.Contains(s, Log.String()) {
		t.Fatalf("non-zero Log bucket missing: %s", s)
	}
	// Same omission rule for Idle (open-loop extension).
	if s := FormatBreakdown(&b); strings.Contains(s, Idle.String()) {
		t.Fatalf("zero Idle bucket should be omitted: %s", s)
	}
	b.Add(Idle, 1)
	if s := FormatBreakdown(&b); !strings.Contains(s, Idle.String()) {
		t.Fatalf("non-zero Idle bucket missing: %s", s)
	}
}

func TestComponentKeyStable(t *testing.T) {
	want := []string{"useful", "abort", "ts_alloc", "index", "wait", "manager", "log", "idle"}
	for c := Component(0); c < NumComponents; c++ {
		if c.Key() != want[c] {
			t.Errorf("Component(%d).Key() = %q, want %q", int(c), c.Key(), want[c])
		}
	}
	if Component(99).Key() != "component_99" {
		t.Errorf("out-of-range key = %q", Component(99).Key())
	}
}

func TestBreakdownJSONRoundTrip(t *testing.T) {
	var b Breakdown
	for c := Component(0); c < NumComponents; c++ {
		b.Add(c, uint64(7*(int(c)+1)))
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	// Keys appear in Component order with the stable identifiers.
	wantOrder := `{"useful":7,"abort":14,"ts_alloc":21,"index":28,"wait":35,"manager":42,"log":49,"idle":56}`
	if string(data) != wantOrder {
		t.Fatalf("breakdown JSON = %s, want %s", data, wantOrder)
	}
	var back Breakdown
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for c := Component(0); c < NumComponents; c++ {
		if back.Get(c) != b.Get(c) {
			t.Errorf("%s: got %d, want %d", c, back.Get(c), b.Get(c))
		}
	}
}

// TestBreakdownJSONDropsAttemptState documents that the wire format
// carries only committed buckets: an open attempt is not serialized, and
// an unmarshaled Breakdown starts with no attempt in progress.
func TestBreakdownJSONDropsAttemptState(t *testing.T) {
	var b Breakdown
	b.Add(Useful, 10)
	b.BeginAttempt()
	b.Add(Useful, 5)
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var back Breakdown
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Get(Useful) != 15 {
		t.Fatalf("useful = %d, want 15", back.Get(Useful))
	}
	// The restored breakdown must behave as if no attempt were open:
	// an AbortAttempt re-bills nothing.
	back.AbortAttempt()
	if back.Get(Useful) != 15 || back.Get(Abort) != 0 {
		t.Fatal("restored breakdown re-billed cycles from a phantom attempt")
	}
}
