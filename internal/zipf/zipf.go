// Package zipf implements the YCSB Zipfian key generator (Gray et al.,
// "Quickly generating billion-record synthetic databases", SIGMOD '94),
// parameterized the same way as the paper's workloads: a theta in [0, 1)
// where theta=0 is uniform, theta=0.6 is the paper's "medium contention"
// (10% of tuples receive ~40% of accesses) and theta=0.8 is "high
// contention" (~60% of accesses).
package zipf

import (
	"math/rand"
	"sync"
)

// Generator produces Zipf-distributed values in [0, n). It is not safe for
// concurrent use; each worker owns one, seeded from its private RNG.
type Generator struct {
	n     uint64
	theta float64

	// Precomputed constants from the Gray et al. algorithm.
	alpha   float64
	zetan   float64
	eta     float64
	zeta2   float64
	halfPow float64 // 0.5^theta, hoisted out of every skewed Next draw
	uniform bool
}

// zetaCacheKey memoizes the expensive zeta(n, theta) sum, which is O(n) and
// shared by every worker using the same table size and skew.
type zetaCacheKey struct {
	n     uint64
	theta float64
}

var (
	zetaMu    sync.Mutex
	zetaCache = map[zetaCacheKey]float64{}
)

// zeta computes sum_{i=1..n} 1/i^theta. It is safe for concurrent use:
// the bench runner builds workloads on several goroutines at once. The
// sum is computed outside the lock; two callers racing on one key store
// the same value.
func zeta(n uint64, theta float64) float64 {
	key := zetaCacheKey{n, theta}
	zetaMu.Lock()
	v, ok := zetaCache[key]
	zetaMu.Unlock()
	if ok {
		return v
	}
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / pow(float64(i), theta)
	}
	zetaMu.Lock()
	zetaCache[key] = sum
	zetaMu.Unlock()
	return sum
}

// pow is math.Pow specialized to avoid importing math for the common
// theta=0 path.
func pow(x, y float64) float64 {
	if y == 0 {
		return 1
	}
	return mathPow(x, y)
}

// New creates a generator over [0, n) with skew theta. theta must be in
// [0, 1); theta=0 yields the uniform distribution.
//
// New precomputes zeta(n, theta), which costs O(n) on first use for a given
// (n, theta) pair; subsequent generators reuse the memoized value. New may
// be called from several goroutines at once.
func New(n uint64, theta float64) *Generator {
	if n == 0 {
		panic("zipf: empty domain")
	}
	if theta < 0 || theta >= 1 {
		panic("zipf: theta must be in [0, 1)")
	}
	g := &Generator{n: n, theta: theta}
	if theta == 0 {
		g.uniform = true
		return g
	}
	g.zetan = zeta(n, theta)
	g.zeta2 = zeta(2, theta)
	g.alpha = 1.0 / (1.0 - theta)
	g.eta = (1.0 - mathPow(2.0/float64(n), 1.0-theta)) / (1.0 - g.zeta2/g.zetan)
	g.halfPow = mathPow(0.5, theta)
	return g
}

// N returns the domain size.
func (g *Generator) N() uint64 { return g.n }

// Theta returns the skew parameter.
func (g *Generator) Theta() float64 { return g.theta }

// Next draws the next value using rng. Rank 0 is the hottest key; callers
// that want hot keys scattered across the key space should scramble the
// result (see Scramble).
func (g *Generator) Next(rng *rand.Rand) uint64 {
	if g.uniform {
		return uint64(rng.Int63n(int64(g.n)))
	}
	u := rng.Float64()
	uz := u * g.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+g.halfPow {
		return 1
	}
	return uint64(float64(g.n) * mathPow(g.eta*u-g.eta+1.0, g.alpha))
}

// Scramble maps a Zipf rank to a pseudo-random position in [0, n) so that
// hot keys are spread over the table rather than clustered at low ids,
// matching YCSB's scrambled-zipfian behaviour. The mapping is a fixed
// bijection-like hash reduced mod n (collisions merely relocate hot spots,
// which is what YCSB's FNV scramble does too).
func Scramble(rank, n uint64) uint64 { return Mix64(rank) % n }

// Mix64 is SplitMix64's output for state x: x advanced by the golden
// gamma, then put through its finalizer — a bijection that spreads every
// input bit over the whole word.
func Mix64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ z>>31
}
