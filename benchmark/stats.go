package main

import (
	"math"
	"sort"
)

// Every wall-clock number this benchmark reports is a median of rounds or
// of windows, never one long mean: on a shared machine interference comes
// in bursts, and a median ignores a burst that a mean averages in.

// median returns the median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// geomean is the geometric mean of xs, the average that weighs a relative
// change in any one scheme of a rotation equally. Non-positive inputs
// have no geometric mean; they yield 0 so the caller's "every end-to-end
// value is positive" check trips instead of a NaN escaping into JSON.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// iqrShare is the distance between the first and third quartile of xs as
// a share of their median — the spread statistic the acceptance rule is
// written in. It follows Python's statistics.quantiles(xs, n=4), the
// exclusive method, so the numbers match the driver's.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}

func ns2us(ns float64) float64 { return ns / 1e3 }

// latency summarises one window's exact latency samples. None of the four
// is gated: on a shared machine the median sits in the valley of a bimodal
// round trip, the 99th percentile on a handful of descheduled calls, and
// the mean and the 95th move with the neighbours (see README, "Noise").
type latency struct{ mean, p50, p95, p99 float64 }

func summarize(xs []float64) latency {
	if len(xs) == 0 {
		return latency{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 { return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)] }
	return latency{mean: mean(s), p50: at(0.50), p95: at(0.95), p99: at(0.99)}
}

// latencies is a column view over window summaries.
type latencies []latency

func (ls latencies) col(f func(latency) float64) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = f(l)
	}
	return out
}

func latMean(l latency) float64 { return l.mean }
func latP50(l latency) float64  { return l.p50 }
func latP95(l latency) float64  { return l.p95 }
func latP99(l latency) float64  { return l.p99 }
