package abyss1000_test

import (
	"testing"

	"abyss1000/abyss"
	_ "abyss1000/workloads/chaos"
	_ "abyss1000/workloads/smallbank"
	_ "abyss1000/workloads/tatp"
)

// TestHSTORESerializableOnEveryWorkload runs H-STORE with history capture
// on every built-in workload, on both runtimes, and checks the committed
// history. Each workload declares per transaction whether it may roll
// back (YCSB, TATP and four TPC-C procedures never; NewOrder, two
// SmallBank procedures and chaos's abort-prone draws sometimes), and
// H-STORE keeps before-images only for those that may: a rollback that
// left a write behind shows here as a cycle or a lost version.
func TestHSTORESerializableOnEveryWorkload(t *testing.T) {
	workloads := []struct {
		name   string
		params func(p *abyss.WorkloadParams)
	}{
		{"ycsb", func(p *abyss.WorkloadParams) { p.Rows, p.Partitioned, p.MPFraction, p.MPParts = 1024, true, 0.2, 2 }},
		{"tpcc", func(p *abyss.WorkloadParams) { p.Mix, p.Warehouses, p.InsertsPerWorker = "full", 2, 1024 }},
		{"smallbank", func(p *abyss.WorkloadParams) { p.Accounts = 1024 }},
		{"tatp", func(p *abyss.WorkloadParams) { p.Subscribers = 1024 }},
		{"chaos", func(*abyss.WorkloadParams) {}},
	}
	const cores = 4
	for _, runtime := range []string{abyss.RuntimeSim, abyss.RuntimeNative} {
		for _, w := range workloads {
			t.Run(runtime+"/"+w.name, func(t *testing.T) {
				db, err := abyss.Open(abyss.Options{Runtime: runtime, Cores: cores, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				p, err := abyss.DefaultWorkloadParams(w.name)
				if err != nil {
					t.Fatal(err)
				}
				w.params(&p)
				wl, err := db.BuildWorkload(w.name, p)
				if err != nil {
					t.Fatal(err)
				}
				s, err := abyss.NewScheme("HSTORE")
				if err != nil {
					t.Fatal(err)
				}
				rc := abyss.RunConfig{MeasureCycles: 300_000, Check: true}
				if runtime == abyss.RuntimeNative {
					// Bounded by nativeDraws (walprop_test.go); the
					// window (ns) is only a backstop.
					rc.MeasureCycles = 40_000_000
					wl = &drawLimited{Workload: wl, db: db, drawn: make([]int, cores)}
				}
				res, err := db.Run(s, wl, rc)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := db.CheckSerializability()
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK() {
					t.Fatalf("not serializable after %d commits:\n%s", res.Commits, rep)
				}
				if res.Commits == 0 {
					t.Fatal("committed nothing")
				}
			})
		}
	}
}
