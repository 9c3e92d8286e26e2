package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestHistBucketBoundaries pins the log2 bucketing: 0 is its own bucket,
// every power of two starts a new bucket, and HistBucketBounds inverts
// HistBucket.
func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 62, 63}, {1<<63 - 1, 63}, {1 << 63, 64}, {math.MaxUint64, 64},
	}
	for _, c := range cases {
		if got := HistBucket(c.v); got != c.bucket {
			t.Errorf("HistBucket(%d) = %d, want %d", c.v, got, c.bucket)
		}
		lo, hi := HistBucketBounds(c.bucket)
		if c.v < lo || (c.v >= hi && !(c.bucket == 64 && c.v == math.MaxUint64)) {
			t.Errorf("value %d outside its bucket %d bounds [%d, %d)", c.v, c.bucket, lo, hi)
		}
	}
	var h Histogram
	for _, c := range cases {
		h.Record(c.v)
	}
	for _, c := range cases {
		if h.Bucket(c.bucket) == 0 {
			t.Errorf("bucket %d empty after recording %d", c.bucket, c.v)
		}
	}
}

// TestHistogramZeroValue pins that the zero value is a safe empty
// histogram: every accessor returns 0 and Merge works.
func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("zero histogram not empty: %+v", h)
	}
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %d, want 0", q, got)
		}
	}
	if h.Bucket(-1) != 0 || h.Bucket(NumHistBuckets) != 0 {
		t.Error("out-of-range Bucket should return 0")
	}
	var other Histogram
	h.Merge(&other) // merging two empties must not panic or corrupt
	if h.Count() != 0 {
		t.Fatal("merge of empties recorded something")
	}
}

// TestHistogramMerge pins that Merge is equivalent to recording both
// streams into one histogram.
func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	for i := uint64(0); i < 100; i++ {
		a.Record(i * 3)
		both.Record(i * 3)
	}
	for i := uint64(0); i < 50; i++ {
		b.Record(1 << (i % 20))
		both.Record(1 << (i % 20))
	}
	a.Merge(&b)
	if a != both {
		t.Fatalf("merge diverged from direct recording:\nmerged %+v\ndirect %+v", a, both)
	}
	if a.Count() != 150 {
		t.Fatalf("merged count = %d, want 150", a.Count())
	}
}

// TestHistogramQuantileEdges pins quantile behaviour at the edges: single
// values are returned exactly, q=1 is the max, quantiles are monotone in
// q, and interpolated estimates stay inside the containing bucket.
func TestHistogramQuantileEdges(t *testing.T) {
	var single Histogram
	single.Record(1000)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := single.Quantile(q); got != 1000 {
			t.Errorf("single-value Quantile(%g) = %d, want 1000", q, got)
		}
	}

	var zeros Histogram
	zeros.Record(0)
	zeros.Record(0)
	if got := zeros.Quantile(0.5); got != 0 {
		t.Errorf("all-zero Quantile(0.5) = %d, want 0", got)
	}

	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Record(uint64(100 + i)) // uniform over [100, 1100)
	}
	if got := h.Quantile(1); got != h.Max() {
		t.Errorf("Quantile(1) = %d, want max %d", got, h.Max())
	}
	prev := uint64(0)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Errorf("quantiles not monotone: Quantile(%g) = %d < previous %d", q, v, prev)
		}
		if v > h.Max() {
			t.Errorf("Quantile(%g) = %d exceeds max %d", q, v, h.Max())
		}
		prev = v
	}
	// The true p50 of uniform [100, 1100) is ~600 (bucket [512, 1024));
	// interpolation must land in that bucket, not at its edge.
	if p50 := h.P50(); p50 < 512 || p50 >= 1024 {
		t.Errorf("p50 = %d, want within bucket [512, 1024)", p50)
	}
	if h.P50() > h.P95() || h.P95() > h.P99() || h.P99() > h.Max() {
		t.Errorf("percentile accessors not ordered: p50 %d p95 %d p99 %d max %d",
			h.P50(), h.P95(), h.P99(), h.Max())
	}
}

// TestHistogramJSONRoundTrip pins the stable wire format: totals plus
// sparse buckets, lossless across marshal/unmarshal.
func TestHistogramJSONRoundTrip(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 1, 7, 900, 900, 900, 1 << 40} {
		h.Record(v)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"count"`, `"sum"`, `"max"`, `"buckets"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("histogram JSON missing key %s: %s", key, b)
		}
	}
	var back Histogram
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip changed the histogram:\norig %+v\nback %+v", h, back)
	}

	// The empty histogram round-trips too (its buckets array is empty,
	// not null, so consumers can range over it unconditionally).
	eb, err := json.Marshal(Histogram{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(eb), `"buckets":[]`) {
		t.Errorf("empty histogram should serialize an empty bucket list: %s", eb)
	}
	var eBack Histogram
	if err := json.Unmarshal(eb, &eBack); err != nil {
		t.Fatal(err)
	}
	if eBack != (Histogram{}) {
		t.Fatalf("empty round trip produced %+v", eBack)
	}

	// Out-of-range bucket indexes are rejected, not silently dropped.
	if err := new(Histogram).UnmarshalJSON([]byte(`{"count":1,"sum":1,"max":1,"buckets":[[65,1]]}`)); err == nil {
		t.Fatal("bucket index 65 should be rejected")
	}
}
