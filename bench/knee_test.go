package bench

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"abyss1000/internal/core"
	"abyss1000/internal/tsalloc"
)

// TestKneeExperiment smoke-runs the overload-knee extension at tiny scale
// and checks its defining shape: below the knee nearly everything offered
// commits; far past it admission control sheds and goodput stays well
// under the offered load.
func TestKneeExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~40 small open-loop simulations")
	}
	p := tinyParams()
	e, err := Lookup("knee")
	if err != nil {
		t.Fatal(err)
	}
	fig := e.Build(p, nil)
	// Goodput series first, then two latency series per scheme.
	if want := len(SchemeNames) * (1 + len(kneeLatencySuffixes)); len(fig.Series) != want {
		t.Fatalf("knee has %d series, want %d", len(fig.Series), want)
	}
	for _, s := range fig.Series[:len(SchemeNames)] {
		if len(s.Points) != len(kneeOffered) {
			t.Fatalf("series %s has %d points, want %d", s.Name, len(s.Points), len(kneeOffered))
		}
		lo, hi := s.Points[0].Res, s.Points[len(s.Points)-1].Res
		if lo.Offered == 0 || hi.Offered == 0 {
			t.Fatalf("series %s offered nothing: lo %+v hi %+v", s.Name, lo, hi)
		}
		if f := lo.ShedFraction(); f > 0.1 {
			t.Errorf("series %s sheds %.0f%% at the bottom of the ladder", s.Name, f*100)
		}
		if hi.Shed == 0 {
			t.Errorf("series %s sheds nothing at %.0f offered txn/s", s.Name, kneeOffered[len(kneeOffered)-1])
		}
		if hi.GoodputTPS() >= kneeOffered[len(kneeOffered)-1]/2 {
			t.Errorf("series %s goodput %.0f did not fall below half the offered %.0f",
				s.Name, hi.GoodputTPS(), kneeOffered[len(kneeOffered)-1])
		}
		if hi.QueueDepth.Max() > kneeQueueDepth {
			t.Errorf("series %s queue depth %d exceeds the %d bound", s.Name, hi.QueueDepth.Max(), kneeQueueDepth)
		}
	}
	// The latency series reuse the goodput runs' Results: names are the
	// stable "<scheme>:lat_p50"/"<scheme>:lat_p99" keys, p99 dominates
	// p50, and committed points carry nonzero latency.
	for i, name := range SchemeNames {
		p50 := fig.Series[len(SchemeNames)+2*i]
		p99 := fig.Series[len(SchemeNames)+2*i+1]
		if p50.Name != name+":lat_p50" || p99.Name != name+":lat_p99" {
			t.Fatalf("latency series for %s named %q/%q", name, p50.Name, p99.Name)
		}
		if len(p50.Points) != len(kneeOffered) || len(p99.Points) != len(kneeOffered) {
			t.Fatalf("latency series for %s have %d/%d points, want %d",
				name, len(p50.Points), len(p99.Points), len(kneeOffered))
		}
		for j := range p50.Points {
			goodput := fig.Series[i].Points[j]
			if p50.Points[j].Res.Commits != goodput.Res.Commits {
				t.Fatalf("series %s point %d does not reuse the goodput run's Result", p50.Name, j)
			}
			if p99.Points[j].Y < p50.Points[j].Y {
				t.Errorf("series %s point %d: p99 %.3f < p50 %.3f", name, j, p99.Points[j].Y, p50.Points[j].Y)
			}
			if goodput.Res.Commits > 0 && p50.Points[j].Y <= 0 {
				t.Errorf("series %s point %d committed %d txns with zero p50 latency", name, j, goodput.Res.Commits)
			}
		}
	}
	// The knee figure is a pure sweep: serial and pooled builds agree.
	par := e.Build(p, &Runner{Workers: 4})
	if fig.Format() != par.Format() {
		t.Error("knee figure differs between serial and parallel builds")
	}
}

// TestKneeOutputKeys pins the knee figure's JSON/CSV surface: the latency
// series keys are stable, and the figure round-trips through its JSON
// form point for point.
func TestKneeOutputKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("runs small open-loop simulations")
	}
	p := tinyParams()
	e, err := Lookup("knee")
	if err != nil {
		t.Fatal(err)
	}
	fig := e.Build(p, nil)
	rep := NewReport(RunMeta{Paper: "test"}, []Experiment{e}, []*Figure{fig})

	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"NO_WAIT:lat_p50"`, `"NO_WAIT:lat_p99"`, `"MVCC:lat_p50"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("report JSON missing series key %s", key)
		}
	}
	csv := rep.CSV()
	if !strings.Contains(csv, "NO_WAIT:lat_p99") {
		t.Error("report CSV missing the NO_WAIT:lat_p99 series rows")
	}

	var back Figure
	if err := json.Unmarshal(mustMarshal(t, fig), &back); err != nil {
		t.Fatalf("figure round trip: %v", err)
	}
	if back.Format() != fig.Format() {
		t.Error("figure diverged through the JSON round trip")
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunnerStopDrains pins the graceful-interruption contract of the
// pool: once Stop is raised, in-flight jobs drain normally, undispatched
// jobs yield zero Results, and the completed prefix is intact.
func TestRunnerStopDrains(t *testing.T) {
	p := tinyParams()
	var jobs []Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, p.tsallocJob(tsalloc.Atomic, 2))
	}
	var stop atomic.Bool
	r := &Runner{Workers: 1, Stop: &stop, OnProgress: func(pr Progress) {
		if pr.Done == 1 {
			stop.Store(true)
		}
	}}
	results := r.Execute(jobs)
	if results[0].Commits == 0 {
		t.Fatal("first job should have completed before the stop")
	}
	// With one worker, the stop raised during job 0's completion is
	// visible at latest when job 2 would dispatch.
	for i := 2; i < len(jobs); i++ {
		if results[i].Commits != 0 {
			t.Errorf("job %d ran after the stop", i)
		}
	}
}

// TestSerialStopSkipsRemainingPoints pins the same contract through
// Experiment.Build on a pool of one (the serial build): a stop raised
// after the first point completes zeroes the undispatched points, and the
// figure is still rendered with every point.
func TestSerialStopSkipsRemainingPoints(t *testing.T) {
	p := tinyParams()
	e := Experiment{ID: "stoptest", spec: func(p Params) *spec {
		s := &spec{head: Figure{ID: "stoptest"}}
		commits := func(r core.Result) float64 { return float64(r.Commits) }
		s.sweep("n", commits, []float64{0, 1, 2, 3}, func(float64) Job {
			return p.tsallocJob(tsalloc.Atomic, 1)
		})
		return s
	}}
	var stop atomic.Bool
	fig := e.Build(p, &Runner{Workers: 1, Stop: &stop, OnProgress: func(pr Progress) {
		if pr.Done == 1 {
			stop.Store(true)
		}
	}})
	pts := fig.Series[0].Points
	if len(pts) != 4 {
		t.Fatalf("figure has %d points, want 4", len(pts))
	}
	if pts[0].Res.Commits == 0 {
		t.Fatal("first point should have run")
	}
	// As in TestRunnerStopDrains, point 1 may already have been handed to
	// the worker when the stop landed.
	for i := 2; i < len(pts); i++ {
		if pts[i].Res.Commits != 0 {
			t.Errorf("point %d ran after the stop", i)
		}
	}
}
