package mesh

import (
	"testing"
	"testing/quick"
)

func TestNewChipDims(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {8, 3, 3}, {9, 3, 3},
		{16, 4, 4}, {64, 8, 8}, {256, 16, 16}, {1024, 32, 32},
		{100, 10, 10}, {48, 7, 7}, {3, 2, 2},
	}
	for _, c := range cases {
		chip := NewChip(c.n)
		if chip.W*chip.H < c.n {
			t.Fatalf("n=%d: grid %dx%d too small", c.n, chip.W, chip.H)
		}
		if c.n == 1 || c.n == 4 || c.n == 16 || c.n == 64 || c.n == 256 || c.n == 1024 {
			if chip.W != c.w || chip.H != c.h {
				t.Errorf("n=%d: got %dx%d, want %dx%d", c.n, chip.W, chip.H, c.w, c.h)
			}
		}
	}
}

func TestNewChipPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	NewChip(0)
}

func TestHopsSymmetricAndTriangle(t *testing.T) {
	chip := NewChip(64)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%64, int(b)%64, int(c)%64
		if chip.Hops(x, y) != chip.Hops(y, x) {
			return false
		}
		if chip.Hops(x, x) != 0 {
			return false
		}
		return chip.Hops(x, z) <= chip.Hops(x, y)+chip.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiameter(t *testing.T) {
	chip := NewChip(1024) // 32x32
	if got, want := chip.Diameter(), 62; got != want {
		t.Fatalf("diameter = %d, want %d", got, want)
	}
	// Tile 0 to tile 1023 spans the full diagonal.
	if got := chip.Hops(0, 1023); got != 62 {
		t.Fatalf("corner distance = %d, want 62", got)
	}
}

func TestHomeTileInRangeAndSpread(t *testing.T) {
	chip := NewChip(64)
	seen := make(map[int]int)
	for k := uint64(0); k < 10000; k++ {
		h := chip.HomeTile(k)
		if h < 0 || h >= 64 {
			t.Fatalf("home tile %d out of range", h)
		}
		seen[h]++
	}
	if len(seen) < 60 {
		t.Fatalf("home tiles poorly spread: only %d/64 tiles used", len(seen))
	}
}

func TestCenterTileMinimizesAverageDistance(t *testing.T) {
	chip := NewChip(64)
	center := chip.CenterTile()
	avg := func(tile int) float64 {
		sum := 0
		for i := 0; i < chip.N; i++ {
			sum += chip.Hops(tile, i)
		}
		return float64(sum) / float64(chip.N)
	}
	centerAvg := avg(center)
	for _, corner := range []int{0, chip.N - 1} {
		if avg(corner) <= centerAvg {
			t.Fatalf("corner %d avg distance %.2f <= center %.2f", corner, avg(corner), centerAvg)
		}
	}
}

func TestLineSerializesExclusiveOps(t *testing.T) {
	chip := NewChip(4)
	l := NewLine(chip, 7)
	// Two cores issue at the same instant: the second must start after the
	// first completes.
	d0 := l.Exclusive(chip, 0, 100)
	if d0 < 100 {
		t.Fatalf("completion %d before issue", d0)
	}
	d1 := l.Exclusive(chip, 1, 100)
	if d1 <= d0 {
		t.Fatalf("second op completed at %d, not after first at %d", d1, d0)
	}
	if l.Owner() != 1 {
		t.Fatalf("owner = %d, want 1", l.Owner())
	}
}

func TestLineLocalReuseIsCheap(t *testing.T) {
	chip := NewChip(64)
	l := NewLine(chip, 9)
	d1 := l.Exclusive(chip, 5, 0)
	d2 := l.Exclusive(chip, 5, d1)
	if d2-d1 != L1Cycles {
		t.Fatalf("local re-acquire cost %d, want %d", d2-d1, uint64(L1Cycles))
	}
}

func TestLineTransferGrowsWithDistance(t *testing.T) {
	chip := NewChip(1024)
	home := chip.CenterTile()
	near := chip.TransferCost(home, home, chip.W+1) // one tile off center
	far := chip.TransferCost(home, 0, 1023)         // corner to corner via center
	if far <= near {
		t.Fatalf("far transfer %d should exceed near %d", far, near)
	}
	if far < uint64(HopCycles*chip.Diameter()) {
		t.Fatalf("diagonal transfer %d below one-way bound", far)
	}
	if got := chip.TransferCost(home, 5, 5); got != L1Cycles {
		t.Fatalf("local reuse cost %d, want %d", got, uint64(L1Cycles))
	}
}

// TestTransferIndirectsThroughHome verifies the directory model: moving a
// line between adjacent tiles still pays the trip to a distant home — the
// reason a hot timestamp counter costs ~100 cycles on a big chip even
// when consecutive requesters are neighbors.
func TestTransferIndirectsThroughHome(t *testing.T) {
	chip := NewChip(1024)
	farHome := 1023
	adjacent := chip.TransferCost(farHome, 0, 1)
	direct := uint64(LineOpCycles + HopCycles*chip.Hops(0, 1))
	if adjacent <= direct {
		t.Fatalf("adjacent transfer %d should pay home indirection (> %d)", adjacent, direct)
	}
}

func TestCenterServiceThroughputBound(t *testing.T) {
	chip := NewChip(1024)
	s := NewCenterService(chip)
	// Saturate: many requests at time 0 from the same tile; service must
	// pipeline at 1 cycle apart.
	var last uint64
	for i := 0; i < 100; i++ {
		last = s.Request(0, 0)
	}
	lat := uint64(HopCycles * chip.Hops(0, chip.CenterTile()))
	if want := 100*HWCounterServiceCycles + 2*lat; last != uint64(want) {
		t.Fatalf("100 saturating requests complete at %d, want %d", last, want)
	}
}

func TestL2AccessLocalVsRemote(t *testing.T) {
	chip := NewChip(64)
	local := chip.L2Access(0, 0)
	remote := chip.L2Access(0, 63)
	if local != L2BaseCycles {
		t.Fatalf("local L2 = %d, want %d", local, uint64(L2BaseCycles))
	}
	if remote <= local {
		t.Fatalf("remote L2 %d should exceed local %d", remote, local)
	}
}
