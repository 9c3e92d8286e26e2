package smallbank_test

// SmallBank conformance: the workload must run under every registered
// paper scheme on both runtimes, conserve money under its transfer-only
// mix, and stay deterministic on the simulator. The test file, like the
// workload, imports only the public abyss package — it doubles as the
// proof that an external workload needs nothing from internal/.

import (
	"sync"
	"testing"

	"abyss1000/abyss"
	"abyss1000/workloads/smallbank"
)

func smallConfig() smallbank.Config {
	cfg := smallbank.DefaultConfig()
	cfg.Accounts = 4096
	cfg.HotAccounts = 16
	cfg.HotPct = 0.9
	return cfg
}

// runSim builds and runs one SmallBank measurement on a fresh simulated
// DB.
func runSim(t *testing.T, scheme string, cores int, cfg smallbank.Config, rc abyss.RunConfig) (abyss.Result, *smallbank.Workload) {
	t.Helper()
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeSim, Cores: cores, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := smallbank.Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := abyss.NewScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Run(s, wl, rc)
	if err != nil {
		t.Fatal(err)
	}
	return res, wl
}

// assertPerTxnConformance checks the per-transaction-type sub-results
// against the aggregate: one entry per active procedure in mix order,
// commits and aborts summing exactly to the Result's counts, and one
// latency observation per completed transaction.
func assertPerTxnConformance(t *testing.T, res abyss.Result) {
	t.Helper()
	if len(res.PerTxn) != len(smallbank.Procedures) {
		t.Fatalf("PerTxn has %d entries, want %d", len(res.PerTxn), len(smallbank.Procedures))
	}
	var commits, aborts, latCount uint64
	for i := range res.PerTxn {
		ts := &res.PerTxn[i]
		if ts.Name != smallbank.Procedures[i] {
			t.Errorf("PerTxn[%d].Name = %q, want %q", i, ts.Name, smallbank.Procedures[i])
		}
		if ts.Latency.Count() != ts.Commits {
			t.Errorf("%s: latency count %d != commits %d", ts.Name, ts.Latency.Count(), ts.Commits)
		}
		if ts.Latency.Max() > res.Latency.Max() {
			t.Errorf("%s: per-type max latency %d exceeds aggregate max %d", ts.Name, ts.Latency.Max(), res.Latency.Max())
		}
		commits += ts.Commits
		aborts += ts.Aborts
		latCount += ts.Latency.Count()
	}
	if commits != res.Commits || aborts != res.Aborts {
		t.Fatalf("per-txn sums (%d commits, %d aborts) != aggregate (%d, %d)", commits, aborts, res.Commits, res.Aborts)
	}
	if latCount != res.Latency.Count() {
		t.Fatalf("per-txn latency observations %d != aggregate %d", latCount, res.Latency.Count())
	}
}

func TestSmallBankAllSchemesSim(t *testing.T) {
	rc := abyss.RunConfig{WarmupCycles: 100_000, MeasureCycles: 500_000, AbortBackoff: 500}
	for _, name := range abyss.PaperSchemes() {
		t.Run(name, func(t *testing.T) {
			res, _ := runSim(t, name, 8, smallConfig(), rc)
			if res.Commits == 0 {
				t.Fatalf("%s committed nothing: %+v", name, res)
			}
			assertPerTxnConformance(t, res)
			t.Logf("%s", res.String())
		})
	}
}

func TestSmallBankAllSchemesNative(t *testing.T) {
	rc := abyss.RunConfig{WarmupCycles: 2_000_000, MeasureCycles: 20_000_000, AbortBackoff: 500} // ns
	for _, name := range abyss.PaperSchemes() {
		t.Run(name, func(t *testing.T) {
			db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: 4, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			wl, err := smallbank.Build(db, smallConfig())
			if err != nil {
				t.Fatal(err)
			}
			s, err := abyss.NewScheme(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Run(s, wl, rc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits == 0 {
				t.Fatalf("%s committed nothing natively", name)
			}
			assertPerTxnConformance(t, res)
		})
	}
}

// TestSmallBankServedSerializable puts the serving path under the
// serializability checker: a Session with RunConfig.Check set, driven by
// concurrent routed invocations, must leave a history whose dependency
// graph is acyclic and whose oracle replay reproduces the final state,
// under every paper scheme.
func TestSmallBankServedSerializable(t *testing.T) {
	const submitters, per = 4, 300
	for _, name := range abyss.PaperSchemes() {
		t.Run(name, func(t *testing.T) {
			db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: 2, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			wl, err := smallbank.Build(db, smallConfig())
			if err != nil {
				t.Fatal(err)
			}
			scheme, err := abyss.NewScheme(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := db.Serve(scheme, wl, abyss.RunConfig{Check: true, AbortBackoff: 500})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for c := 0; c < submitters; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						inv := abyss.Invocation{Routed: true, Partition: (c + i) % s.Workers()}
						if _, err := s.Invoke(inv); err != nil && err != abyss.ErrUserAbort {
							t.Errorf("Invoke: %v", err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			res, err := s.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits != submitters*per {
				t.Fatalf("Commits = %d, want %d", res.Commits, submitters*per)
			}
			rep, err := db.CheckSerializability()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("served %s history not serializable: %v", name, rep)
			}
		})
	}
}

func TestSmallBankDeterministicSim(t *testing.T) {
	rc := abyss.RunConfig{WarmupCycles: 50_000, MeasureCycles: 300_000, AbortBackoff: 500}
	for _, name := range abyss.PaperSchemes() {
		t.Run(name, func(t *testing.T) {
			a, _ := runSim(t, name, 4, smallConfig(), rc)
			b, _ := runSim(t, name, 4, smallConfig(), rc)
			if a.Commits != b.Commits || a.Aborts != b.Aborts || a.Tuples != b.Tuples {
				t.Fatalf("nondeterministic: %+v vs %+v", a, b)
			}
		})
	}
}

// latestCommitted is implemented by schemes whose committed state lives
// outside the live row (MVCC's version chains).
type latestCommitted interface {
	LatestCommitted(t *abyss.Table, slot int) []byte
}

// committedTotal sums every balance as the scheme committed it.
func committedTotal(s abyss.Scheme, wl *smallbank.Workload, accounts int) int64 {
	read := func(t *abyss.Table, slot int) []byte {
		if lc, ok := s.(latestCommitted); ok {
			return lc.LatestCommitted(t, slot)
		}
		return t.Row(slot)
	}
	var total int64
	for _, t := range []*abyss.Table{wl.Savings(), wl.Checking()} {
		for slot := 0; slot < accounts; slot++ {
			total += t.Schema.GetI64(read(t, slot), 1)
		}
	}
	return total
}

// TestSmallBankConservation runs a transfer-only mix (Amalgamate +
// SendPayment + Balance — no deposits or checks, so total money is an
// invariant) under every paper scheme and verifies the committed balances
// still sum to the initial total. A violation means a scheme produced a
// non-serializable (or non-atomic) history on the pairwise-transfer
// contention profile.
func TestSmallBankConservation(t *testing.T) {
	cfg := smallConfig()
	cfg.Weights = [6]float64{20, 0, 0, 40, 0, 40}
	rc := abyss.RunConfig{WarmupCycles: 50_000, MeasureCycles: 400_000, AbortBackoff: 500}
	want := smallbank.InitialTotal(cfg.Accounts)
	for _, name := range abyss.PaperSchemes() {
		t.Run(name, func(t *testing.T) {
			db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeSim, Cores: 8, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			wl, err := smallbank.Build(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := abyss.NewScheme(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Run(s, wl, rc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits == 0 {
				t.Fatalf("%s committed nothing", name)
			}
			if got := committedTotal(s, wl, cfg.Accounts); got != want {
				t.Fatalf("%s lost money: committed total %d, want %d (diff %d cents over %d commits)",
					name, got, want, got-want, res.Commits)
			}
		})
	}
}

// TestSmallBankRegistry exercises the registered entry point: defaults
// round-trip, invalid parameters error, and the registry build matches a
// direct Build.
func TestSmallBankRegistry(t *testing.T) {
	found := false
	for _, name := range abyss.Workloads() {
		if name == "smallbank" {
			found = true
		}
	}
	if !found {
		t.Fatalf("smallbank not in workload registry: %v", abyss.Workloads())
	}

	p, err := abyss.DefaultWorkloadParams("smallbank")
	if err != nil {
		t.Fatal(err)
	}
	def := smallbank.DefaultConfig()
	if p.Accounts != def.Accounts || p.HotAccounts != def.HotAccounts || p.HotPct != def.HotPct {
		t.Fatalf("registry defaults %+v do not match smallbank.DefaultConfig() %+v", p, def)
	}

	db, err := abyss.Open(abyss.Options{Cores: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Accounts = 1 // transactions need two distinct customers
	if _, err := db.BuildWorkload("smallbank", p); err == nil {
		t.Fatal("Accounts=1 should be rejected")
	}
	p.Accounts = 256
	p.HotPct = 1.5
	if _, err := db.BuildWorkload("smallbank", p); err == nil {
		t.Fatal("HotPct=1.5 should be rejected")
	}
	// A drawable set of one customer would make the two-customer
	// transactions spin forever looking for a distinct counterparty.
	p.HotPct = 1
	p.HotAccounts = 1
	if _, err := db.BuildWorkload("smallbank", p); err == nil {
		t.Fatal("HotPct=1 with HotAccounts=1 should be rejected")
	}
	p.HotPct = 0.5
	p.HotAccounts = 8
	wl, err := db.BuildWorkload("smallbank", p)
	if err != nil {
		t.Fatal(err)
	}
	if wl == nil {
		t.Fatal("registry build returned nil workload")
	}
}
