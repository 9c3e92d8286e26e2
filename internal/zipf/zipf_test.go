package zipf

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadParams(t *testing.T) {
	for _, bad := range []struct {
		n     uint64
		theta float64
	}{
		{0, 0.5}, {100, -0.1}, {100, 1.0}, {100, 1.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %v) did not panic", bad.n, bad.theta)
				}
			}()
			New(bad.n, bad.theta)
		}()
	}
}

func TestNextInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, thetaRaw uint8) bool {
		theta := float64(thetaRaw%95) / 100.0
		g := New(1000, theta)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			v := g.Next(r)
			if v >= 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rng, MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformWhenThetaZero(t *testing.T) {
	const n, draws = 100, 200_000
	g := New(n, 0)
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[g.Next(rng)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > want*0.25 {
			t.Fatalf("theta=0 key %d drawn %d times, want ~%.0f", k, c, want)
		}
	}
}

// TestSkewMatchesPaper verifies the paper's §3.3 calibration: at
// theta=0.6 the hottest 10%% of keys receive ~40%% of accesses, and at
// theta=0.8 ~60%%.
func TestSkewMatchesPaper(t *testing.T) {
	const n, draws = 10_000, 500_000
	cases := []struct {
		theta   float64
		wantHot float64
		tol     float64
	}{
		{0.6, 0.40, 0.08},
		{0.8, 0.60, 0.08},
	}
	for _, c := range cases {
		g := New(n, c.theta)
		rng := rand.New(rand.NewSource(13))
		hot := 0
		for i := 0; i < draws; i++ {
			// Rank < n/10 is the hottest 10% (ranks are by
			// popularity in the Gray generator).
			if g.Next(rng) < n/10 {
				hot++
			}
		}
		got := float64(hot) / draws
		if math.Abs(got-c.wantHot) > c.tol {
			t.Errorf("theta=%.1f: hot-10%% share = %.3f, want ~%.2f", c.theta, got, c.wantHot)
		}
	}
}

func TestMonotoneSkew(t *testing.T) {
	// Higher theta concentrates more mass on rank 0.
	const n, draws = 1000, 100_000
	prev := -1.0
	for _, theta := range []float64{0.2, 0.5, 0.8} {
		g := New(n, theta)
		rng := rand.New(rand.NewSource(3))
		zero := 0
		for i := 0; i < draws; i++ {
			if g.Next(rng) == 0 {
				zero++
			}
		}
		share := float64(zero) / draws
		if share <= prev {
			t.Fatalf("rank-0 share did not grow with theta: %.4f then %.4f", prev, share)
		}
		prev = share
	}
}

func TestZetaMemoized(t *testing.T) {
	a := zeta(5000, 0.75)
	b := zeta(5000, 0.75)
	if a != b {
		t.Fatal("memoized zeta returned different values")
	}
	// Analytic check for small n: zeta(3, 0.5) = 1 + 1/sqrt(2) + 1/sqrt(3).
	want := 1 + 1/math.Sqrt(2) + 1/math.Sqrt(3)
	if got := zeta(3, 0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("zeta(3, 0.5) = %v, want %v", got, want)
	}
}

// TestNewConcurrent builds generators for fresh (n, theta) pairs on
// several goroutines at once, as parallel bench jobs do; under -race it
// fails if the zeta memo is shared without synchronization.
func TestNewConcurrent(t *testing.T) {
	const workers = 8
	gens := make([]*Generator, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gens[w] = New(uint64(1000+w%2), 0.31)
		}()
	}
	wg.Wait()
	for w, g := range gens {
		if want := zeta(uint64(1000+w%2), 0.31); g.zetan != want {
			t.Errorf("worker %d: zetan %v, want %v", w, g.zetan, want)
		}
	}
}

func TestScrambleStaysInRange(t *testing.T) {
	f := func(rank uint64, nRaw uint16) bool {
		n := uint64(nRaw) + 1
		return Scramble(rank, n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScrambleSpreadsHotKeys(t *testing.T) {
	// Consecutive ranks should not map to consecutive positions.
	const n = 1 << 20
	adjacent := 0
	for r := uint64(0); r < 100; r++ {
		a, b := Scramble(r, n), Scramble(r+1, n)
		d := int64(a) - int64(b)
		if d < 0 {
			d = -d
		}
		if d <= 1 {
			adjacent++
		}
	}
	if adjacent > 2 {
		t.Fatalf("%d/100 consecutive ranks stayed adjacent after scrambling", adjacent)
	}
}

// TestMix64IsSplitMix64 pins Mix64 to the reference SplitMix64 stream
// seeded with 0: its k-th output is Mix64((k-1) × gamma).
func TestMix64IsSplitMix64(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	for k, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := Mix64(uint64(k) * gamma); got != want {
			t.Errorf("output %d: Mix64 = %#x, want %#x", k+1, got, want)
		}
	}
}

func TestGeneratorAccessors(t *testing.T) {
	g := New(42, 0.6)
	if g.N() != 42 || g.Theta() != 0.6 {
		t.Fatalf("accessors: N=%d theta=%v", g.N(), g.Theta())
	}
}

func BenchmarkNextSkewed(b *testing.B) {
	g := New(1<<20, 0.8)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next(rng)
	}
}

func BenchmarkNextUniform(b *testing.B) {
	g := New(1<<20, 0)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next(rng)
	}
}
