package abyss1000_test

import (
	"encoding/json"
	"slices"
	"testing"

	"abyss1000/abyss"
	"abyss1000/internal/core"
)

// TestAbortCauses runs every paper scheme on both runtimes over contended
// YCSB and checks that the abort causes account for the aborts exactly:
// they sum to Aborts in total and per transaction type, the per-type
// causes sum to the aggregate ones cause by cause, and each scheme reports
// only the rules it has. On the simulator, whose runs repeat exactly,
// every scheme but H-STORE (which waits instead of aborting) must abort,
// so no check there passes empty; how often native workers collide
// depends on the host, so there the checks alone apply.
func TestAbortCauses(t *testing.T) {
	own := map[string][]core.AbortCause{
		"DL_DETECT": {core.CauseDeadlock, core.CauseLockTimeout},
		"NO_WAIT":   {core.CauseNoWait},
		"WAIT_DIE":  {core.CauseWaitDie},
		"TIMESTAMP": {core.CauseTOReadTooLate, core.CauseTOWriteTooLate},
		"MVCC":      {core.CauseMVCCVersionGone, core.CauseMVCCWriteTooLate},
		"OCC":       {core.CauseOCCValidation},
		"HSTORE":    nil,
	}
	runs := []struct {
		runtime string
		cfg     abyss.RunConfig
	}{
		{abyss.RuntimeSim, abyss.RunConfig{WarmupCycles: 50_000, MeasureCycles: 2_000_000, AbortBackoff: 1000}},
		{abyss.RuntimeNative, abyss.RunConfig{WarmupCycles: 2_000_000, MeasureCycles: 20_000_000, AbortBackoff: 500}}, // ns
	}
	for _, run := range runs {
		t.Run(run.runtime, func(t *testing.T) {
			for _, scheme := range abyss.PaperSchemes() {
				t.Run(scheme, func(t *testing.T) {
					res := contendedYCSB(t, run.runtime, scheme, run.cfg)
					causes, _ := json.Marshal(res.AbortCauses)
					t.Logf("%d commits, %d aborts: %s", res.Commits, res.Aborts, causes)
					checkAbortCauses(t, res, own[scheme])
					if run.runtime == abyss.RuntimeSim && scheme != "HSTORE" && res.Aborts == 0 {
						t.Fatalf("no aborts in %d commits: the workload is not contended", res.Commits)
					}
				})
			}
		})
	}
}

// contendedYCSB runs scheme on a small, skewed, write-heavy YCSB table
// (partitioned for H-STORE, with multi-partition transactions).
func contendedYCSB(t *testing.T, runtime string, scheme string, cfg abyss.RunConfig) abyss.Result {
	t.Helper()
	db, err := abyss.Open(abyss.Options{Runtime: runtime, Cores: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p, err := abyss.DefaultWorkloadParams("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	p.Rows, p.ReqPerTxn, p.ReadPct, p.Theta = 256, 16, 0.5, 0.9
	if scheme == "HSTORE" {
		p.Partitioned, p.MPFraction, p.MPParts = true, 0.5, 2
	}
	wl, err := db.BuildWorkload("ycsb", p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := abyss.NewScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Run(s, wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkAbortCauses checks res's causes against its aborts and against
// own, the causes its scheme may report.
func checkAbortCauses(t *testing.T, res abyss.Result, own []core.AbortCause) {
	t.Helper()
	if got := res.AbortCauses.Total(); got != res.Aborts {
		t.Errorf("causes sum to %d, want Aborts = %d (%v)", got, res.Aborts, res.AbortCauses)
	}
	var perType core.AbortCauses
	for _, ts := range res.PerTxn {
		if got := ts.AbortCauses.Total(); got != ts.Aborts {
			t.Errorf("%s: causes sum to %d, want Aborts = %d", ts.Name, got, ts.Aborts)
		}
		for c, n := range ts.AbortCauses {
			perType[c] += n
		}
	}
	if len(res.PerTxn) == 0 {
		t.Error("no per-type results")
	} else if perType != res.AbortCauses {
		t.Errorf("per-type causes sum to %v, want %v", perType, res.AbortCauses)
	}
	for c, n := range res.AbortCauses {
		cause := core.AbortCause(c)
		if n > 0 && !slices.Contains(own, cause) {
			t.Errorf("%d aborts for %s, not a rule of %s (its own: %v)", n, cause, res.Scheme, own)
		}
	}
}
