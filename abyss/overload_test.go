package abyss_test

// Public-surface tests for the overload tier: validation errors at the
// abyss boundary, open-loop determinism on the simulator, a native-runtime
// open-loop smoke (exercised under -race in CI), and Interrupt/Interrupted
// — all through the abyss facade only.

import (
	"reflect"
	"strings"
	"testing"

	"abyss1000/abyss"
)

// overloadRunConfig is an open-loop configuration well past the capacity
// of the 8-core simulated machine openYCSB builds, with every overload
// knob engaged.
func overloadRunConfig() abyss.RunConfig {
	return abyss.RunConfig{
		WarmupCycles:  50_000,
		MeasureCycles: 300_000,
		AbortBackoff:  1000,
		Arrivals:      abyss.Arrivals{Process: abyss.ArrivalPoisson, RateTPS: 5_000_000, Seed: 11},
		QueueDepth:    8,
		Deadline:      40_000,
		RetryLimit:    4,
		BackoffCap:    8_000,
	}
}

// TestOverloadValidation pins the rejection of every inconsistent
// overload configuration at the abyss boundary — the error is
// RunConfig.Validate's, the same rule text the engine itself refuses the
// config with — and that failed validations do not consume the DB's
// single measurement.
func TestOverloadValidation(t *testing.T) {
	db, wl, scheme := openYCSB(t)
	base := ycsbRunConfig()

	cases := []struct {
		name string
		mut  func(*abyss.RunConfig)
		want string
	}{
		{"queue depth without arrivals", func(c *abyss.RunConfig) { c.QueueDepth = 8 }, "QueueDepth"},
		{"shed types without arrivals", func(c *abyss.RunConfig) { c.ShedTypes = "ycsb" }, "ShedTypes"},
		{"rate on closed loop", func(c *abyss.RunConfig) { c.Arrivals.RateTPS = 1000 }, "closed loop"},
		{"poisson without rate", func(c *abyss.RunConfig) { c.Arrivals.Process = abyss.ArrivalPoisson }, "RateTPS"},
		{"mmpp without burst rate", func(c *abyss.RunConfig) {
			c.Arrivals = abyss.Arrivals{Process: abyss.ArrivalMMPP, RateTPS: 1000}
		}, "BurstRateTPS"},
		{"mmpp without dwell", func(c *abyss.RunConfig) {
			c.Arrivals = abyss.Arrivals{Process: abyss.ArrivalMMPP, RateTPS: 1000, BurstRateTPS: 2000}
		}, "dwell"},
		{"negative queue depth", func(c *abyss.RunConfig) {
			c.Arrivals = abyss.Arrivals{Process: abyss.ArrivalPoisson, RateTPS: 1000}
			c.QueueDepth = -1
		}, "QueueDepth"},
		{"negative retry limit", func(c *abyss.RunConfig) { c.RetryLimit = -1 }, "RetryLimit"},
		{"unknown process", func(c *abyss.RunConfig) { c.Arrivals.Process = abyss.ArrivalProcess(99) }, "Process"},
	}
	for _, c := range cases {
		cfg := base
		c.mut(&cfg)
		_, err := db.Run(scheme, wl, cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want error mentioning %q, got %v", c.name, c.want, err)
		} else if rule := cfg.Validate(); rule == nil || err.Error() != "abyss: "+rule.Error() {
			t.Errorf("%s: Run said %q, Validate says %v", c.name, err, rule)
		}
	}

	// The rejections above must not have consumed the measurement.
	res, err := db.Run(scheme, wl, base)
	if err != nil {
		t.Fatalf("valid run after failed validations: %v", err)
	}
	if res.Commits == 0 {
		t.Fatal("no commits from the valid run")
	}
	if res.Offered != 0 || res.Shed != 0 || res.Deadlined != 0 {
		t.Fatalf("closed loop must not report overload accounting: %+v", res)
	}
}

// TestShedTypesUnknownName: a ShedTypes entry the workload does not
// declare fails the run with an error that names the field and lists the
// workload's types, instead of silently turning priority shedding off.
func TestShedTypesUnknownName(t *testing.T) {
	db, wl, scheme := openYCSB(t)
	cfg := overloadRunConfig()
	cfg.ShedTypes = "NoSuchTxn"
	_, err := db.Run(scheme, wl, cfg)
	if err == nil || !strings.Contains(err.Error(), "ShedTypes") || !strings.Contains(err.Error(), "ycsb") {
		t.Fatalf("want an error naming ShedTypes and the valid type ycsb, got %v", err)
	}
}

// TestOpenLoopRunDeterminism pins that an open-loop run with the full
// knob set is deterministic on the simulator — two fresh DBs produce
// deep-equal Results — and that its overload accounting is live: offered
// load exceeds goodput and admission control sheds work.
func TestOpenLoopRunDeterminism(t *testing.T) {
	run := func() abyss.Result {
		db, wl, scheme := openYCSB(t)
		res, err := db.Run(scheme, wl, overloadRunConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("open-loop run is nondeterministic:\n%+v\n%+v", a, b)
	}
	if a.Offered == 0 || a.Commits == 0 {
		t.Fatalf("dead run: %+v", a)
	}
	if a.Shed == 0 {
		t.Fatal("2.5x+ overload with a bounded queue should shed")
	}
	if a.OfferedTPS() <= a.Throughput() {
		t.Fatalf("offered %.0f tps should exceed goodput %.0f tps under overload",
			a.OfferedTPS(), a.Throughput())
	}
	if a.QueueDepth.Count() == 0 || a.QueueDepth.Max() > 8 {
		t.Fatalf("queue depth histogram out of bounds: count %d max %d",
			a.QueueDepth.Count(), a.QueueDepth.Max())
	}
}

// TestOpenLoopNativeSmoke runs the open-loop path on the native runtime —
// real goroutines, real nanoseconds — so the admission queue, arrival
// generator, and fault injector see the race detector in CI's -race run.
func TestOpenLoopNativeSmoke(t *testing.T) {
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	params, err := abyss.DefaultWorkloadParams("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	params.Rows = 4096
	wl, err := db.BuildWorkload("ycsb", params)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := abyss.NewScheme("NO_WAIT")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Run(scheme, wl, abyss.RunConfig{
		WarmupCycles:  2_000_000,  // ns
		MeasureCycles: 20_000_000, // ns
		AbortBackoff:  500,
		Arrivals:      abyss.Arrivals{Process: abyss.ArrivalPoisson, RateTPS: 200_000, Seed: 3},
		QueueDepth:    16,
		Deadline:      5_000_000,
		RetryLimit:    8,
		BackoffCap:    4_000,
		Fault:         abyss.LatencySpikeFault(5_000_000, 200_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 || res.Offered == 0 {
		t.Fatalf("native open loop produced nothing: %+v", res)
	}
	if res.QueueDepth.Max() > 16 {
		t.Fatalf("admission bound violated: max depth %d", res.QueueDepth.Max())
	}
}

// TestInterrupt pins the graceful-interruption surface: Interrupted
// reflects Interrupt, and a run interrupted from an Observer returns a
// partial Result instead of running the window out.
func TestInterrupt(t *testing.T) {
	db, wl, scheme := openYCSB(t)
	if db.Interrupted() {
		t.Fatal("fresh DB reports interrupted")
	}

	full, err := db.Run(scheme, wl, ycsbRunConfig())
	if err != nil {
		t.Fatal(err)
	}

	db2, wl2, scheme2 := openYCSB(t)
	cfg := ycsbRunConfig()
	cfg.SampleEvery = 50_000
	n := 0
	cfg.Observer = abyss.ObserverFunc(func(abyss.Sample) {
		n++
		if n == 2 {
			db2.Interrupt()
		}
	})
	partial, err := db2.Run(scheme2, wl2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !db2.Interrupted() {
		t.Fatal("Interrupted() false after Interrupt()")
	}
	if partial.Commits == 0 {
		t.Fatal("interrupted run lost all work")
	}
	if partial.Commits >= full.Commits {
		t.Fatalf("interrupt at interval 2 of 6 should cut commits: partial %d, full %d",
			partial.Commits, full.Commits)
	}
}
