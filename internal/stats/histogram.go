package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// NumHistBuckets is the number of log2 latency buckets: bucket 0 holds the
// value 0, bucket i (1 <= i <= 64) holds values in [2^(i-1), 2^i).
const NumHistBuckets = 65

// Histogram is an allocation-free log2-bucketed histogram of cycle counts,
// used for transaction latency. Record is a handful of integer operations
// on a fixed-size array — cheap enough for the per-commit hot path — and
// recording never bills simulated time, so enabling latency accounting
// cannot perturb a simulated schedule. Like Breakdown, a Histogram is
// owned by one worker and merged after (or during) a run.
//
// The zero value is an empty histogram, ready to use.
type Histogram struct {
	counts [NumHistBuckets]uint64
	total  uint64
	sum    uint64
	max    uint64
}

// HistBucket returns the bucket index for value v.
func HistBucket(v uint64) int { return bits.Len64(v) }

// HistBucketBounds returns bucket i's half-open value range [lo, hi).
// Bucket 64's upper bound saturates at MaxUint64 (its true bound, 2^64,
// is not representable).
func HistBucketBounds(i int) (lo, hi uint64) {
	if i <= 0 {
		return 0, 1
	}
	lo = uint64(1) << (i - 1)
	if i >= 64 {
		return lo, math.MaxUint64
	}
	return lo, uint64(1) << i
}

// Record adds one observation of v.
func (h *Histogram) Record(v uint64) {
	h.counts[bits.Len64(v)]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all recorded values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the average recorded value, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Bucket returns the observation count in bucket i (see HistBucketBounds).
func (h *Histogram) Bucket(i int) uint64 {
	if i < 0 || i >= NumHistBuckets {
		return 0
	}
	return h.counts[i]
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Quantile returns an estimate of the q'th quantile (q in [0, 1]) by
// linear interpolation within the containing log2 bucket, clamped to the
// observed maximum. An empty histogram returns 0; q >= 1 returns Max.
// The estimate's relative error is bounded by the bucket width (a factor
// of 2), which is ample for the p50/p95/p99 tail-latency figures.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b := 0; b < NumHistBuckets; b++ {
		c := h.counts[b]
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := HistBucketBounds(b)
			// The top occupied bucket cannot extend past the observed
			// maximum.
			if h.max < math.MaxUint64 && hi > h.max+1 && h.max >= lo {
				hi = h.max + 1
			}
			if hi <= lo+1 {
				return lo
			}
			v := lo + uint64(float64(rank-cum)/float64(c)*float64(hi-lo))
			if v >= hi {
				v = hi - 1
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}

// P50 returns the estimated median.
func (h *Histogram) P50() uint64 { return h.Quantile(0.50) }

// P95 returns the estimated 95th percentile.
func (h *Histogram) P95() uint64 { return h.Quantile(0.95) }

// P99 returns the estimated 99th percentile.
func (h *Histogram) P99() uint64 { return h.Quantile(0.99) }

// histogramJSON is the stable wire format: scalar totals plus the sparse
// non-empty buckets as [index, count] pairs in ascending index order.
type histogramJSON struct {
	Count   uint64      `json:"count"`
	Sum     uint64      `json:"sum"`
	Max     uint64      `json:"max"`
	Buckets [][2]uint64 `json:"buckets"`
}

// MarshalJSON serializes the histogram with stable keys. Empty buckets are
// omitted, so the document stays small while remaining lossless.
func (h Histogram) MarshalJSON() ([]byte, error) {
	v := histogramJSON{Count: h.total, Sum: h.sum, Max: h.max, Buckets: [][2]uint64{}}
	for i, c := range h.counts {
		if c != 0 {
			v.Buckets = append(v.Buckets, [2]uint64{uint64(i), c})
		}
	}
	return json.Marshal(v)
}

// UnmarshalJSON restores a histogram written by MarshalJSON. The total
// count is recomputed from the buckets, so the redundant "count" key can
// never disagree with them.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var v histogramJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*h = Histogram{sum: v.Sum, max: v.Max}
	for _, b := range v.Buckets {
		if b[0] >= NumHistBuckets {
			return fmt.Errorf("stats: histogram bucket index %d out of range [0, %d)", b[0], NumHistBuckets)
		}
		h.counts[b[0]] += b[1]
		h.total += b[1]
	}
	return nil
}
