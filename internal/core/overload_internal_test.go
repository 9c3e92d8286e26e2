package core

import (
	"math"
	"strings"
	"testing"

	"abyss1000/internal/costs"
)

func TestBackoffMean(t *testing.T) {
	cases := []struct {
		base, cap uint64
		attempt   int
		want      uint64
	}{
		{0, 0, 1, 0}, // backoff disabled
		{0, 0, livelockAborts - 1, 0},
		{0, 0, livelockAborts, costs.BackoffBase}, // the livelock guard
		{0, 0, livelockAborts + 2, 4 * costs.BackoffBase},
		{0, 16000, livelockAborts + 20, livelockCap}, // the guard keeps its own cap
		{1000, 0, 1, 1000},                           // no cap: mean stays base forever
		{1000, 0, 7, 1000},
		{1000, 16000, 1, 1000}, // exponential: base << (attempt-1)
		{1000, 16000, 2, 2000},
		{1000, 16000, 4, 8000},
		{1000, 16000, 5, 16000},  // hits the cap exactly
		{1000, 16000, 9, 16000},  // stays capped
		{1000, 3000, 3, 3000},    // cap between powers
		{1000, 500, 1, 500},      // cap below base clamps immediately
		{1000, 16000, 63, 16000}, // deep attempts must not overflow
	}
	for _, c := range cases {
		if got := backoffMean(c.base, c.cap, c.attempt); got != c.want {
			t.Errorf("backoffMean(%d, %d, %d) = %d, want %d", c.base, c.cap, c.attempt, got, c.want)
		}
	}
}

func TestArrivalGenDeterministicAndRateAccurate(t *testing.T) {
	a := Arrivals{Process: ArrivalPoisson, RateTPS: 1e6, Seed: 123}
	const freq = 1e9
	gen := func() []uint64 {
		g := NewArrivalStream(a, 3, 4, freq)
		out := make([]uint64, 2000)
		for i := range out {
			out[i] = g.Take()
		}
		return out
	}
	first, second := gen(), gen()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("arrival %d differs between identical generators: %d vs %d", i, first[i], second[i])
		}
	}
	// Monotone non-decreasing.
	for i := 1; i < len(first); i++ {
		if first[i] < first[i-1] {
			t.Fatalf("arrivals regressed at %d: %d < %d", i, first[i], first[i-1])
		}
	}
	// Mean interarrival ≈ freq / (rate / nworkers) = 4000 cycles; with
	// 2000 exponential draws the sample mean lands within a few percent.
	mean := float64(first[len(first)-1]) / float64(len(first))
	if math.Abs(mean-4000) > 400 {
		t.Fatalf("per-worker mean interarrival = %.0f cycles, want ~4000", mean)
	}
	// Workers draw independent streams.
	other := NewArrivalStream(a, 0, 4, freq)
	if other.Take() == first[0] {
		t.Fatal("different workers should not share an arrival stream")
	}
}

func TestAdmitQueueRing(t *testing.T) {
	q := newAdmitQueue(3)
	for i := uint64(1); i <= 3; i++ {
		if !q.push(i) {
			t.Fatalf("push %d rejected below bound", i)
		}
	}
	if q.push(4) {
		t.Fatal("push above bound must be rejected")
	}
	if q.depth() != 3 {
		t.Fatalf("depth = %d, want 3", q.depth())
	}
	if v, ok := q.pop(); !ok || v != 1 {
		t.Fatalf("pop = %d,%v, want 1,true", v, ok)
	}
	if !q.push(4) {
		t.Fatal("push after pop should fit")
	}
	for want := uint64(2); want <= 4; want++ {
		if v, ok := q.pop(); !ok || v != want {
			t.Fatalf("FIFO order broken: got %d, want %d", v, want)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop from empty queue")
	}

	// Unbounded queues grow and preserve order across the growth.
	u := newAdmitQueue(0)
	for i := uint64(0); i < 200; i++ {
		if !u.push(i) {
			t.Fatalf("unbounded push %d rejected", i)
		}
	}
	for i := uint64(0); i < 200; i++ {
		if v, ok := u.pop(); !ok || v != i {
			t.Fatalf("unbounded FIFO broken at %d: %d,%v", i, v, ok)
		}
	}
}

func TestHighWater(t *testing.T) {
	if highWater(16) != 8 || highWater(1) != 1 || highWater(0) != 64 {
		t.Fatalf("high-water marks wrong: %d %d %d", highWater(16), highWater(1), highWater(0))
	}
}

type twoTypes struct{}

func (twoTypes) TxnTypes() []string { return []string{"alpha", "beta"} }
func (twoTypes) TxnTypeOf(Txn) int  { return 0 }

func TestShedMaskFor(t *testing.T) {
	for _, c := range []struct {
		typer   TxnTyper
		spec    string
		want    uint64
		wantErr string
	}{
		{nil, "", 0, ""},
		{twoTypes{}, "", 0, ""},
		{twoTypes{}, "beta", 2, ""},
		{twoTypes{}, "alpha, beta", 3, ""},
		{nil, "alpha", 0, "TxnTyper"},
		{twoTypes{}, "gamma", 0, `ShedTypes names "gamma", which is not one of the workload's transaction types (alpha, beta)`},
		{twoTypes{}, "alpha,", 0, `ShedTypes names ""`},
	} {
		got, err := shedMaskFor(c.typer, c.spec)
		if c.wantErr == "" && (err != nil || got != c.want) {
			t.Errorf("shedMaskFor(%v, %q) = %b, %v; want %b", c.typer, c.spec, got, err, c.want)
		}
		if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("shedMaskFor(%v, %q) error = %v, want one containing %q", c.typer, c.spec, err, c.wantErr)
		}
	}
}
