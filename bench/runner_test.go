package bench

import (
	"reflect"
	"strings"
	"testing"

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

// TestRunnerExclusiveOrdering checks that a native job runs alone after
// the pool's jobs drain and that its result still lands at its own index.
func TestRunnerExclusiveOrdering(t *testing.T) {
	p := tinyParams()
	p.NativeWarmupNS, p.NativeMeasureNS = 100_000, 1_000_000
	jobs := []Job{
		p.tsallocJob(tsalloc.Atomic, 2),
		p.nativeJob("NO_WAIT", 3, p.ycsb(0.9, 0.6)),
		p.tsallocJob(tsalloc.Atomic, 4),
	}
	var last Job
	results := (&Runner{Workers: 2, OnProgress: func(pr Progress) { last = pr.Last }}).Execute(jobs)
	if last != jobs[1] {
		t.Errorf("last job to complete was %s, want the native job", last.Label())
	}
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
