package abyss_test

import (
	"strings"
	"testing"

	"abyss1000/abyss"
)

// panicTxn is a transaction body with a bug.
type panicTxn struct{}

func (panicTxn) Run(tx *abyss.TxnCtx) error { panic("panicTxn: body bug") }
func (panicTxn) Partitions() []int          { return nil }

// TestSimRunReportsWorkerPanic pins what Run and RunStream promise under
// RuntimeSim: a panic raised on a simulated core — the engine reporting a
// misconfiguration, or a bug in a transaction body — comes back as the
// run's error instead of killing the process.
func TestSimRunReportsWorkerPanic(t *testing.T) {
	open := func(t *testing.T) *abyss.DB {
		t.Helper()
		db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeSim, Cores: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	scheme := func(t *testing.T) abyss.Scheme {
		t.Helper()
		s, err := abyss.NewScheme("NO_WAIT")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	wantErr := func(t *testing.T, err error, want string) {
		t.Helper()
		if err == nil || !strings.HasPrefix(err.Error(), "abyss: run failed: ") || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want \"abyss: run failed: ...%s...\"", err, want)
		}
	}
	panicMix := func(t *testing.T, db *abyss.DB) abyss.Workload {
		t.Helper()
		mix, err := db.NewMix(abyss.TxnSpec{Name: "bug", Weight: 1, New: func(int) abyss.Txn { return panicTxn{} }})
		if err != nil {
			t.Fatal(err)
		}
		return mix
	}

	t.Run("insert segment exhausted", func(t *testing.T) {
		db := open(t)
		p, err := abyss.DefaultWorkloadParams("tpcc")
		if err != nil {
			t.Fatal(err)
		}
		p.InsertsPerWorker = 8 // HISTORY room for 8 Payments per core; the window runs more
		wl, err := db.BuildWorkload("tpcc", p)
		if err != nil {
			t.Fatal(err)
		}
		_, err = db.Run(scheme(t), wl, db.DefaultRunConfig())
		wantErr(t, err, "insert segment exhausted")
	})
	t.Run("txn body panics in Run", func(t *testing.T) {
		db := open(t)
		_, err := db.Run(scheme(t), panicMix(t, db), db.DefaultRunConfig())
		wantErr(t, err, "panicTxn: body bug")
	})
	t.Run("txn body panics in RunStream", func(t *testing.T) {
		db := open(t)
		rc := db.DefaultRunConfig()
		rc.SampleEvery = rc.MeasureCycles / 4
		samples, wait := db.RunStream(scheme(t), panicMix(t, db), rc)
		for range samples {
		}
		_, err := wait()
		wantErr(t, err, "panicTxn: body bug")
	})
}
