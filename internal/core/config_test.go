package core

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"abyss1000/internal/rt"
)

// drainedSource is a RequestSource with nothing to serve.
type drainedSource struct{}

func (drainedSource) Next(rt.Proc) (Request, bool) { return Request{}, false }

// TestConfigValidate drives every rule of the one validator: each row
// breaks a valid configuration in one way and names the keyword the
// rejection must carry (the public abyss entry points return the same
// text, which abyss's tests match on).
func TestConfigValidate(t *testing.T) {
	base := Config{WarmupCycles: 1000, MeasureCycles: 300_000, AbortBackoff: 1000}
	obs := ObserverFunc(func(Sample) {})
	poisson := Arrivals{Process: ArrivalPoisson, RateTPS: 1000}

	bad := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero window", func(c *Config) { c.MeasureCycles = 0 }, "MeasureCycles"},
		{"observer without interval", func(c *Config) { c.Observer = obs }, "SampleEvery"},
		{"interval without sink", func(c *Config) { c.SampleEvery = 50_000 }, "sink"},
		{"interval longer than window", func(c *Config) { c.Observer, c.SampleEvery = obs, c.MeasureCycles+1 }, "MeasureCycles"},
		{"interval beyond the cap", func(c *Config) { c.Observer, c.SampleEvery = obs, 1 }, "coarser"},
		{"rate on closed loop", func(c *Config) { c.Arrivals.RateTPS = 100 }, "closed loop"},
		{"poisson without rate", func(c *Config) { c.Arrivals.Process = ArrivalPoisson }, "RateTPS"},
		{"poisson NaN rate", func(c *Config) { c.Arrivals = Arrivals{Process: ArrivalPoisson, RateTPS: math.NaN()} }, "RateTPS"},
		{"poisson infinite rate", func(c *Config) { c.Arrivals = Arrivals{Process: ArrivalPoisson, RateTPS: math.Inf(1)} }, "RateTPS"},
		{"mmpp without burst rate", func(c *Config) { c.Arrivals = Arrivals{Process: ArrivalMMPP, RateTPS: 100} }, "BurstRateTPS"},
		{"mmpp infinite calm rate", func(c *Config) {
			c.Arrivals = Arrivals{Process: ArrivalMMPP, RateTPS: math.Inf(1), BurstRateTPS: 200, CalmCycles: 10, BurstCycles: 10}
		}, "RateTPS"},
		{"mmpp infinite burst rate", func(c *Config) {
			c.Arrivals = Arrivals{Process: ArrivalMMPP, RateTPS: 100, BurstRateTPS: math.Inf(1), CalmCycles: 10, BurstCycles: 10}
		}, "BurstRateTPS"},
		{"mmpp without dwell", func(c *Config) {
			c.Arrivals = Arrivals{Process: ArrivalMMPP, RateTPS: 100, BurstRateTPS: 200, CalmCycles: 10}
		}, "dwell"},
		{"unknown process", func(c *Config) { c.Arrivals = Arrivals{Process: ArrivalProcess(9), RateTPS: 1} }, "Process"},
		{"negative queue depth", func(c *Config) { c.Arrivals, c.QueueDepth = poisson, -1 }, "QueueDepth"},
		{"negative retry limit", func(c *Config) { c.RetryLimit = -1 }, "RetryLimit"},
		{"queue depth without arrivals", func(c *Config) { c.QueueDepth = 4 }, "QueueDepth"},
		{"shed types without arrivals", func(c *Config) { c.ShedTypes = "ycsb" }, "ShedTypes"},
		{"source with a window", func(c *Config) { *c = c.WithSource(drainedSource{}) }, "serving run"},
		{"source with warmup only", func(c *Config) { *c = Config{WarmupCycles: 1}.WithSource(drainedSource{}) }, "serving run"},
		{"source with arrivals", func(c *Config) { *c = Config{Arrivals: poisson}.WithSource(drainedSource{}) }, "serving run"},
		{"source with shed types", func(c *Config) { *c = Config{ShedTypes: "ycsb"}.WithSource(drainedSource{}) }, "serving run"},
		{"source with sampling", func(c *Config) {
			*c = Config{SampleEvery: 50_000, Observer: obs}.WithSource(drainedSource{})
		}, "serving run"},
		{"source with observer only", func(c *Config) { *c = Config{Observer: obs}.WithSource(drainedSource{}) }, "serving run"},
		{"source with negative queue depth", func(c *Config) { *c = Config{QueueDepth: -1}.WithSource(drainedSource{}) }, "QueueDepth"},
	}
	for _, tc := range bad {
		cfg := base
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error mentioning %q, got %v", tc.name, tc.want, err)
		}
	}

	good := map[string]Config{
		"windowed":       {WarmupCycles: 300_000, MeasureCycles: 1_500_000, AbortBackoff: 1000},
		"minimal window": {MeasureCycles: 1},
		"sampled":        {MeasureCycles: 300_000, SampleEvery: 50_000, Observer: obs},
		"at the cap":     {MeasureCycles: MaxSampleIntervals, SampleEvery: 1, Observer: obs},
		"serving":        Config{}.WithSource(drainedSource{}).WithStop(new(atomic.Bool)),
		"serving, tuned": Config{QueueDepth: 4, Deadline: 1000, RetryLimit: 3, AbortBackoff: 100, BackoffCap: 800, Check: true}.WithSource(drainedSource{}),
	}
	for name, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: valid config rejected: %v", name, err)
		}
	}
}

// TestRunPanicsWithValidateText pins the engine side of the validator's
// contract: Run refuses an invalid config by panicking with exactly the
// error Validate returns (abyss's TestOverloadValidation pins the same
// for db.Run).
func TestRunPanicsWithValidateText(t *testing.T) {
	cfg := Config{MeasureCycles: 1000, QueueDepth: 4}
	want := cfg.Validate()
	if want == nil {
		t.Fatal("config should be invalid")
	}
	defer func() {
		if err, _ := recover().(error); err == nil || err.Error() != "core: "+want.Error() {
			t.Fatalf("Run panicked with %v, want the Validate error %q", err, want)
		}
	}()
	Run(nil, nil, nil, cfg)
	t.Fatal("Run accepted an invalid config")
}

// TestResultRateGuards pins that the derived rates of a zero-value (or
// hand-built) Result are 0, never NaN or Inf — they are serialized into
// JSON/CSV reports where NaN is not even representable.
func TestResultRateGuards(t *testing.T) {
	for _, r := range []Result{
		{},                                  // zero window and frequency
		{Commits: 10, Aborts: 3, Tuples: 7}, // counts without a window
		{Commits: 10, MeasureCycles: 1000},  // window without a frequency
		{Commits: 10, Frequency: 1e9},       // frequency without a window
	} {
		for name, v := range map[string]float64{
			"Throughput":   r.Throughput(),
			"TuplesPerSec": r.TuplesPerSec(),
			"AbortsPerSec": r.AbortsPerSec(),
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s of %+v = %v, want 0", name, r, v)
			}
			if v != 0 {
				t.Fatalf("%s of %+v = %v, want 0", name, r, v)
			}
		}
		// String() renders through the same accessors; it must be safe
		// to call on any Result.
		_ = r.String()
	}

	r := Result{Commits: 1000, Tuples: 8000, Aborts: 500, MeasureCycles: 1_000_000, Frequency: 1e9}
	if got := r.Throughput(); got != 1e6 {
		t.Fatalf("Throughput = %v, want 1e6", got)
	}
	if got := r.TuplesPerSec(); got != 8e6 {
		t.Fatalf("TuplesPerSec = %v, want 8e6", got)
	}
	if got := r.AbortsPerSec(); got != 5e5 {
		t.Fatalf("AbortsPerSec = %v, want 5e5", got)
	}
}
