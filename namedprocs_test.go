package abyss1000_test

import (
	"errors"
	"slices"
	"testing"

	"abyss1000/abyss"
	_ "abyss1000/workloads/chaos"
	_ "abyss1000/workloads/smallbank"
	_ "abyss1000/workloads/tatp"
)

// TestEveryProcedureWorkloadInvokesByName: every built-in procedure
// workload is its Mix, so a session on it invokes each of its procedures
// by name — the names Procedures lists, which are the workload's
// TxnTypes — and the drained Result attributes every invocation to its
// procedure.
func TestEveryProcedureWorkloadInvokesByName(t *testing.T) {
	const per = 3
	for _, tc := range []struct {
		name, workload string
		params         func(*abyss.WorkloadParams)
	}{
		{"smallbank", "smallbank", func(p *abyss.WorkloadParams) { p.Accounts = 1024 }},
		{"tatp", "tatp", func(p *abyss.WorkloadParams) { p.Subscribers = 1000 }},
		{"chaos", "chaos", func(*abyss.WorkloadParams) {}},
		{"tpcc-paper", "tpcc", func(p *abyss.WorkloadParams) { p.Warehouses = 2 }},
		{"tpcc-full", "tpcc", func(p *abyss.WorkloadParams) { p.Warehouses = 2; p.Mix = "full" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: 2, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			p, err := abyss.DefaultWorkloadParams(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			tc.params(&p)
			wl, err := db.BuildWorkload(tc.workload, p)
			if err != nil {
				t.Fatal(err)
			}
			scheme, err := abyss.NewScheme("NO_WAIT")
			if err != nil {
				t.Fatal(err)
			}
			s, err := db.Serve(scheme, wl, abyss.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Drain()

			names := s.Procedures()
			typer, ok := wl.(abyss.TxnTyper)
			if !ok {
				t.Fatalf("%T declares no transaction types", wl)
			}
			if len(names) == 0 || !slices.Equal(names, typer.TxnTypes()) {
				t.Fatalf("Procedures = %v, want the workload's TxnTypes %v", names, typer.TxnTypes())
			}
			for _, name := range names {
				for range per {
					if _, err := s.Invoke(abyss.Invocation{Proc: name}); err != nil && !errors.Is(err, abyss.ErrUserAbort) {
						t.Fatalf("Invoke %s: %v", name, err)
					}
				}
			}
			res, err := s.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.PerTxn) != len(names) {
				t.Fatalf("PerTxn has %d types, want %d", len(res.PerTxn), len(names))
			}
			for i, ts := range res.PerTxn {
				if ts.Name != names[i] || ts.Commits != per {
					t.Errorf("PerTxn[%d] = %s with %d commits, want %s with %d", i, ts.Name, ts.Commits, names[i], per)
				}
			}
		})
	}
}
