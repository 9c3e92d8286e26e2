package bench

import (
	"reflect"
	"strings"
	"testing"

	"abyss1000/internal/core"
	"abyss1000/internal/tsalloc"
)

// tinyParams keeps runner tests fast: a few thousand simulated events per
// point.
func tinyParams() Params {
	return Params{
		MaxCores:      4,
		WarmupCycles:  20_000,
		MeasureCycles: 100_000,
		Rows:          1024,
		FieldSize:     20,
		Seed:          7,
	}
}

// equivalenceExperiments covers every sim-backed job kind: plain YCSB
// sweeps, the Fig. 4/5 timeout scheme, the Fig. 6 tsalloc
// micro-benchmark, the malloc ablation's global allocator, and TPC-C.
// Fig. 3 is excluded on purpose: its native points measure wall-clock
// time and are not run-to-run deterministic.
func equivalenceExperiments(t *testing.T) []Experiment {
	t.Helper()
	var es []Experiment
	for _, id := range []string{"5", "6", "malloc", "16"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, e)
	}
	return es
}

// TestSerialParallelEquivalence pins the central determinism contract of
// the runner: -parallel 1 (a pool of one, points in job-list order) and
// -parallel 8 produce byte-identical figure text, JSON and CSV.
func TestSerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~60 small simulations twice")
	}
	p := tinyParams()
	es := equivalenceExperiments(t)

	serialFigs := BuildAll(es, p, nil)
	parallelFigs := BuildAll(es, p, &Runner{Workers: 8})

	meta := RunMeta{Paper: "test", Scale: "tiny", Params: p}
	serialRep := NewReport(meta, es, serialFigs)
	parallelRep := NewReport(meta, es, parallelFigs)

	for i := range es {
		st, pt := serialFigs[i].Format(), parallelFigs[i].Format()
		if st != pt {
			t.Errorf("experiment %s: serial and parallel figure text differ:\nserial:\n%s\nparallel:\n%s", es[i].ID, st, pt)
		}
	}
	sj, err := serialRep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := parallelRep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Error("serial and parallel JSON reports differ")
	}
	if serialRep.CSV() != parallelRep.CSV() {
		t.Error("serial and parallel CSV reports differ")
	}
}

// TestSampledUnsampledEquivalence pins that Runner.SampleEvery is
// accounting-only: a run with interval sampling enabled produces
// byte-identical figure text, JSON and CSV to a run without — the same
// equivalence the CI smoke step checks end-to-end through abyss-bench
// -sample. Both a wide pool and the serial pool of one are covered.
func TestSampledUnsampledEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~40 small simulations twice")
	}
	p := tinyParams()
	es := equivalenceExperiments(t)
	meta := RunMeta{Paper: "test", Scale: "tiny", Params: p}

	for _, workers := range []int{1, 4} {
		plain := NewReport(meta, es, BuildAll(es, p, &Runner{Workers: workers}))
		sampled := NewReport(meta, es, BuildAll(es, p, &Runner{Workers: workers, SampleEvery: p.MeasureCycles / 8}))
		pj, err := plain.JSON()
		if err != nil {
			t.Fatal(err)
		}
		sj, err := sampled.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(pj) != string(sj) {
			t.Errorf("workers=%d: sampling changed the JSON report", workers)
		}
		if plain.CSV() != sampled.CSV() {
			t.Errorf("workers=%d: sampling changed the CSV report", workers)
		}
	}
}

// TestValidateSampling pins abyss-bench's -sample gate: the period must
// suit both windows of the scale, and zero (sampling off) always does.
func TestValidateSampling(t *testing.T) {
	p := Quick()
	for _, ok := range []uint64{0, p.MeasureCycles / 8, p.MeasureCycles} {
		if err := p.ValidateSampling(ok); err != nil {
			t.Errorf("ValidateSampling(%d) = %v, want nil", ok, err)
		}
	}
	if err := p.ValidateSampling(p.MeasureCycles + 1); err == nil || !strings.Contains(err.Error(), "MeasureCycles") {
		t.Errorf("a period longer than the simulated window: got %v", err)
	}
	if err := p.ValidateSampling(1); err == nil || !strings.Contains(err.Error(), "coarser") {
		t.Errorf("a period beyond the interval cap: got %v", err)
	}
}

// TestJobsEnumerate checks that every registered experiment enumerates a
// non-empty, fully-described job list without running any simulation.
func TestJobsEnumerate(t *testing.T) {
	p := tinyParams()
	for _, e := range Registry {
		jobs := e.Jobs(p)
		if len(jobs) == 0 {
			t.Errorf("experiment %s enumerated no jobs", e.ID)
		}
		for i, j := range jobs {
			if j.Experiment != e.ID {
				t.Errorf("experiment %s job %d stamped %q", e.ID, i, j.Experiment)
			}
			if j.Cores < 1 {
				t.Errorf("experiment %s job %d has %d cores", e.ID, i, j.Cores)
			}
			if j.Seed != p.Seed {
				t.Errorf("experiment %s job %d has seed %d, want %d", e.ID, i, j.Seed, p.Seed)
			}
			if j.Kind == JobNativeYCSB && !j.Exclusive {
				t.Errorf("experiment %s job %d: native jobs must be exclusive", e.ID, i)
			}
			if j.Label() == "" {
				t.Errorf("experiment %s job %d has no label", e.ID, i)
			}
		}
	}
}

// TestJobsOneJobPerPoint cross-checks the enumeration against the built
// figure: one job per simulated data point.
func TestJobsOneJobPerPoint(t *testing.T) {
	p := tinyParams()
	e, err := Lookup("6")
	if err != nil {
		t.Fatal(err)
	}
	jobs := e.Jobs(p)
	fig := e.Build(p, nil)
	points := 0
	for _, s := range fig.Series {
		points += len(s.Points)
	}
	if len(jobs) != points {
		t.Fatalf("enumerated %d jobs but figure has %d points", len(jobs), points)
	}
}

// TestRunnerProgress checks completion counting and that results land at
// their job's index regardless of execution order.
func TestRunnerProgress(t *testing.T) {
	p := tinyParams()
	var jobs []Job
	for _, c := range []int{1, 2, 4, 2, 1, 3} {
		jobs = append(jobs, p.tsallocJob(tsalloc.Atomic, c))
	}
	var events []Progress
	r := &Runner{Workers: 3, OnProgress: func(pr Progress) { events = append(events, pr) }}
	results := r.Execute(jobs)

	if len(events) != len(jobs) {
		t.Fatalf("got %d progress events, want %d", len(events), len(jobs))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(jobs) {
			t.Errorf("event %d: done/total = %d/%d", i, ev.Done, ev.Total)
		}
	}
	for i, res := range results {
		if res.Workers != jobs[i].Cores {
			t.Errorf("result %d has %d workers, want %d (misrouted result)", i, res.Workers, jobs[i].Cores)
		}
	}
	// Identical jobs must produce identical results wherever they ran.
	if !reflect.DeepEqual(results[0], results[4]) || !reflect.DeepEqual(results[1], results[3]) {
		t.Error("identical jobs produced different results across workers")
	}
}

// TestRunnerExclusiveOrdering checks exclusive jobs still return results
// in job order.
func TestRunnerExclusiveOrdering(t *testing.T) {
	p := tinyParams()
	jobs := []Job{
		p.tsallocJob(tsalloc.Atomic, 2),
		{Kind: JobTsAlloc, Cores: 3, Seed: p.Seed, TsMethod: tsalloc.Atomic, Exclusive: true,
			Cfg: core.Config{MeasureCycles: p.MeasureCycles}},
		p.tsallocJob(tsalloc.Atomic, 4),
	}
	results := (&Runner{Workers: 2}).Execute(jobs)
	for i, want := range []int{2, 3, 4} {
		if results[i].Workers != want {
			t.Errorf("result %d has %d workers, want %d", i, results[i].Workers, want)
		}
	}
}

// TestBuildSerialEqualsDirectCall ensures Experiment.Build with a nil
// runner — a pool of one — yields the complete figure (labels, breakdowns
// and all).
func TestBuildSerialEqualsDirectCall(t *testing.T) {
	p := tinyParams()
	e, err := Lookup("6")
	if err != nil {
		t.Fatal(err)
	}
	fig := e.Build(p, nil)
	if len(fig.Series) == 0 {
		t.Fatal("no series")
	}
	if !strings.Contains(fig.Format(), "Fig 6") {
		t.Fatal("unexpected figure")
	}
}
