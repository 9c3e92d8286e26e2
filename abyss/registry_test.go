package abyss_test

import (
	"math"
	"strings"
	"testing"

	"abyss1000/abyss"
)

// goldenSchemes is the scheme set the engine's determinism golden
// (bench.GoldenSignature / testdata/golden_sim.txt) and the smoke tests
// are built around: the paper's seven, in Table 1 order. The registry's
// paper tier must stay exactly in sync with it.
var goldenSchemes = []string{"DL_DETECT", "NO_WAIT", "WAIT_DIE", "TIMESTAMP", "MVCC", "OCC", "HSTORE"}

// TestSchemeRegistryCompleteness checks that every registered scheme
// constructs, round-trips its name, and that the paper tier matches the
// golden/smoke scheme set.
func TestSchemeRegistryCompleteness(t *testing.T) {
	paper := abyss.PaperSchemes()
	if len(paper) != len(goldenSchemes) {
		t.Fatalf("paper schemes = %v, want %v", paper, goldenSchemes)
	}
	for i, want := range goldenSchemes {
		if paper[i] != want {
			t.Fatalf("paper schemes = %v, want %v", paper, goldenSchemes)
		}
	}

	all := abyss.Schemes()
	if len(all) < len(paper) {
		t.Fatalf("Schemes() %v shorter than PaperSchemes() %v", all, paper)
	}
	for _, name := range all {
		s, err := abyss.NewScheme(name)
		if err != nil {
			t.Fatalf("NewScheme(%q): %v", name, err)
		}
		if got := s.Name(); got != name {
			t.Fatalf("NewScheme(%q).Name() = %q: registry name does not round-trip", name, got)
		}
		// A second instance must be distinct: registry constructors may
		// not cache (schemes carry per-DB state).
		s2, err := abyss.NewScheme(name)
		if err != nil {
			t.Fatalf("NewScheme(%q) second call: %v", name, err)
		}
		if s == s2 {
			t.Fatalf("NewScheme(%q) returned the same instance twice", name)
		}
	}

	// Every info entry matches its position and has a description.
	for i, info := range abyss.SchemeInfos() {
		if info.Name != all[i] {
			t.Fatalf("SchemeInfos()[%d] = %q, want %q", i, info.Name, all[i])
		}
		if info.Desc == "" {
			t.Fatalf("scheme %q has no description", info.Name)
		}
	}
}

// TestSchemeRegistryErrors checks unknown names and duplicate
// registration are rejected with the valid set in the message.
func TestSchemeRegistryErrors(t *testing.T) {
	_, err := abyss.NewScheme("2PL")
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if !strings.Contains(err.Error(), "DL_DETECT") {
		t.Fatalf("unknown-scheme error should list valid names, got: %v", err)
	}
	if err := abyss.RegisterScheme(abyss.SchemeInfo{
		Name: "MVCC",
		New:  func(abyss.SchemeConfig) abyss.Scheme { return nil },
	}); err == nil {
		t.Fatal("duplicate scheme registration accepted")
	}
	if err := abyss.RegisterScheme(abyss.SchemeInfo{Name: "NEW_SCHEME"}); err == nil {
		t.Fatal("scheme registration without constructor accepted")
	}
}

// TestWorkloadRegistry checks the built-in workloads build at tiny scale
// and that defaults and errors behave.
func TestWorkloadRegistry(t *testing.T) {
	names := abyss.Workloads()
	for _, want := range []string{"ycsb", "tpcc"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("workload %q missing from registry %v", want, names)
		}
	}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			db, err := abyss.Open(abyss.Options{Cores: 2, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			p, err := abyss.DefaultWorkloadParams(name)
			if err != nil {
				t.Fatal(err)
			}
			// Shrink the big knobs so registry-wide builds stay fast.
			if p.Rows > 1024 {
				p.Rows = 1024
			}
			if p.Accounts > 1024 {
				p.Accounts = 1024
			}
			if p.Warehouses > 1 {
				p.Warehouses = 1
			}
			wl, err := db.BuildWorkload(name, p)
			if err != nil {
				t.Fatalf("BuildWorkload(%q) with defaults: %v", name, err)
			}
			if wl == nil {
				t.Fatalf("BuildWorkload(%q) returned nil", name)
			}
		})
	}

	db, err := abyss.Open(abyss.Options{Cores: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildWorkload("tatp", abyss.WorkloadParams{}); err == nil {
		t.Fatal("unknown workload accepted")
	} else if !strings.Contains(err.Error(), "ycsb") {
		t.Fatalf("unknown-workload error should list valid names, got: %v", err)
	}
	if _, err := abyss.DefaultWorkloadParams("nope"); err == nil {
		t.Fatal("DefaultWorkloadParams accepted an unknown name")
	}
}

// TestWorkloadValidation checks out-of-range parameters become errors,
// not NaNs or panics.
func TestWorkloadValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*abyss.WorkloadParams)
	}{
		{"ycsb", func(p *abyss.WorkloadParams) { p.ReadPct = 1.5 }},
		{"ycsb", func(p *abyss.WorkloadParams) { p.Theta = 1.0 }},
		{"ycsb", func(p *abyss.WorkloadParams) { p.Theta = -0.1 }},
		{"ycsb", func(p *abyss.WorkloadParams) { p.MPFraction = 2 }},
		{"ycsb", func(p *abyss.WorkloadParams) { p.Rows = 0 }},
		{"ycsb", func(p *abyss.WorkloadParams) { p.ReqPerTxn = 0 }},
		{"tpcc", func(p *abyss.WorkloadParams) { p.Warehouses = 0 }},
		{"tpcc", func(p *abyss.WorkloadParams) { p.PaymentPct = -0.5 }},
	}
	for _, c := range cases {
		db, err := abyss.Open(abyss.Options{Cores: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		p, err := abyss.DefaultWorkloadParams(c.name)
		if err != nil {
			t.Fatal(err)
		}
		c.mut(&p)
		if _, err := db.BuildWorkload(c.name, p); err == nil {
			t.Fatalf("%s with %+v should be rejected", c.name, p)
		}
	}
}

// TestTSMethodRegistry checks every advertised method parses and
// round-trips through an allocator.
func TestTSMethodRegistry(t *testing.T) {
	names := abyss.TSMethodNames()
	methods := abyss.TSMethods()
	if len(names) != len(methods) {
		t.Fatalf("TSMethodNames (%d) and TSMethods (%d) disagree", len(names), len(methods))
	}
	db, err := abyss.Open(abyss.Options{Cores: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		m, err := abyss.ParseTSMethod(n)
		if err != nil {
			t.Fatalf("ParseTSMethod(%q): %v", n, err)
		}
		if m != methods[i] {
			t.Fatalf("ParseTSMethod(%q) = %v, want %v (order mismatch)", n, m, methods[i])
		}
		if a := db.NewTimestampAllocator(m); a.Method() != m {
			t.Fatalf("allocator for %q reports method %v", n, a.Method())
		}
	}
	if _, err := abyss.ParseTSMethod("sundial"); err == nil {
		t.Fatal("unknown ts method accepted")
	} else if !strings.Contains(err.Error(), "atomic") {
		t.Fatalf("unknown-method error should list valid names, got: %v", err)
	}
}

// TestOpenValidation checks Options validation.
func TestOpenValidation(t *testing.T) {
	if _, err := abyss.Open(abyss.Options{Cores: 0}); err == nil {
		t.Fatal("Cores=0 accepted")
	}
	if _, err := abyss.Open(abyss.Options{Cores: abyss.MaxCores + 1}); err == nil {
		t.Fatal("Cores beyond MaxCores accepted")
	}
	if _, err := abyss.Open(abyss.Options{Cores: 4, Runtime: "graphite"}); err == nil {
		t.Fatal("unknown runtime accepted")
	}
	db, err := abyss.Open(abyss.Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if db.Options().Runtime != abyss.RuntimeSim {
		t.Fatalf("default runtime = %q, want sim", db.Options().Runtime)
	}
}

// TestRunValidation checks the Run boundary: nil arguments, zero windows
// and double runs all error instead of panicking or dividing by zero.
func TestRunValidation(t *testing.T) {
	db, err := abyss.Open(abyss.Options{Cores: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := abyss.DefaultWorkloadParams("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	p.Rows = 512
	wl, err := db.BuildWorkload("ycsb", p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := abyss.NewScheme("NO_WAIT")
	if err != nil {
		t.Fatal(err)
	}

	if rc := db.DefaultRunConfig(); rc.Validate() != nil || rc.WarmupCycles == 0 {
		t.Fatalf("default run config %+v: want a valid window after a warm-up", rc)
	}
	if _, err := db.Run(nil, wl, db.DefaultRunConfig()); err == nil {
		t.Fatal("nil scheme accepted")
	}
	if _, err := db.Run(s, nil, db.DefaultRunConfig()); err == nil {
		t.Fatal("nil workload accepted")
	}
	if _, err := db.Run(s, wl, abyss.RunConfig{MeasureCycles: 0}); err == nil {
		t.Fatal("zero measurement window accepted")
	}

	res, err := db.Run(s, wl, abyss.RunConfig{WarmupCycles: 20_000, MeasureCycles: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	if _, err := db.Run(s, wl, abyss.RunConfig{MeasureCycles: 100_000}); err == nil {
		t.Fatal("second Run on the same DB accepted")
	}
}

// TestGoSharesRunGuard pins that Go consumes the same single measurement
// as Run: the simulated clock starts from zero once, so a second Go (or
// Go after Run) must error instead of tripping the engine's internal
// reuse panic.
func TestGoSharesRunGuard(t *testing.T) {
	db, err := abyss.Open(abyss.Options{Cores: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Go(nil); err == nil {
		t.Fatal("nil body accepted")
	}
	if err := db.Go(func(p abyss.Proc) {}); err != nil {
		t.Fatal(err)
	}
	if err := db.Go(func(p abyss.Proc) {}); err == nil {
		t.Fatal("second Go on the same DB accepted")
	}
	p, err := abyss.DefaultWorkloadParams("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	p.Rows = 256
	wl, err := db.BuildWorkload("ycsb", p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := abyss.NewScheme("NO_WAIT")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Run(s, wl, abyss.RunConfig{MeasureCycles: 100_000}); err == nil {
		t.Fatal("Run after Go on the same DB accepted")
	}
}

// TestCreateTableValidation checks the declarative schema surface.
func TestCreateTableValidation(t *testing.T) {
	db, err := abyss.Open(abyss.Options{Cores: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(abyss.TableSpec{Name: "", Cols: []abyss.Col{{Name: "K", Width: 8}}, Capacity: 8}); err == nil {
		t.Fatal("empty table name accepted")
	}
	if _, err := db.CreateTable(abyss.TableSpec{Name: "T", Capacity: 8}); err == nil {
		t.Fatal("table without columns accepted")
	}
	if _, err := db.CreateTable(abyss.TableSpec{Name: "T", Cols: []abyss.Col{{Name: "K", Width: 0}}, Capacity: 8}); err == nil {
		t.Fatal("zero-width column accepted")
	}
	if _, err := db.CreateTable(abyss.TableSpec{Name: "T", Cols: []abyss.Col{{Name: "K", Width: 8}}, Capacity: 4, Loaded: 8}); err == nil {
		t.Fatal("loaded > capacity accepted")
	}
	tbl, err := db.CreateTable(abyss.TableSpec{Name: "T", Cols: []abyss.Col{{Name: "K", Width: 8}}, Capacity: 8, Loaded: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(abyss.TableSpec{Name: "T", Cols: []abyss.Col{{Name: "K", Width: 8}}, Capacity: 8}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := db.CreateIndex("T_PK", tbl, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("T_PK", tbl, 8); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := db.Table("T"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("U"); err == nil {
		t.Fatal("missing table lookup should error")
	}
	if _, err := db.Index("T_PK"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Index("U_PK"); err == nil {
		t.Fatal("missing index lookup should error")
	}
}

// TestCreateTableCapacityLimit: a hash index links slots through int32
// words, so a table may have at most math.MaxInt32 slots. Beyond that
// CreateTable refuses, naming the limit, instead of building a table whose
// high slots an index would silently wrap. At the limit the table is
// accepted — and, its insert region being paged in on use, cheap.
func TestCreateTableCapacityLimit(t *testing.T) {
	db, err := abyss.Open(abyss.Options{Cores: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cols := []abyss.Col{{Name: "K", Width: 8}}
	_, err = db.CreateTable(abyss.TableSpec{Name: "HUGE", Cols: cols, Capacity: math.MaxInt32 + 1, Loaded: 4})
	if err == nil || !strings.Contains(err.Error(), "2147483647") {
		t.Fatalf("capacity 2^31 accepted or refused without naming the limit: %v", err)
	}
	if _, err := db.CreateTable(abyss.TableSpec{Name: "HUGE", Cols: cols, Capacity: math.MaxInt32, Loaded: 4}); err != nil {
		t.Fatalf("capacity at the limit refused: %v", err)
	}
}

// TestOneCatalogue pins that the public lookups and the duplicate-name
// checks answer from the engine's own catalogue: what BuildWorkload built
// is as visible — and as protected from being overwritten — as what
// CreateTable/CreateIndex/CreateOrderedIndex made.
func TestOneCatalogue(t *testing.T) {
	params := func(workload string) abyss.WorkloadParams {
		t.Helper()
		p, err := abyss.DefaultWorkloadParams(workload)
		if err != nil {
			t.Fatal(err)
		}
		p.Rows, p.Warehouses, p.Mix, p.InsertsPerWorker = 256, 1, "full", 64
		return p
	}
	open := func(workload string) *abyss.DB {
		t.Helper()
		db, err := abyss.Open(abyss.Options{Cores: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.BuildWorkload(workload, params(workload)); err != nil {
			t.Fatal(err)
		}
		return db
	}
	cols := []abyss.Col{{Name: "K", Width: 8}}

	ycsb := open("ycsb")
	ut, err := ycsb.Table("USERTABLE")
	if err != nil {
		t.Fatalf("built-in workload's table invisible: %v", err)
	}
	if _, err := ycsb.Index("USERTABLE_PK"); err != nil {
		t.Fatalf("built-in workload's index invisible: %v", err)
	}
	if _, err := ycsb.CreateTable(abyss.TableSpec{Name: "USERTABLE", Cols: cols, Capacity: 8}); err == nil {
		t.Error("CreateTable reused a built-in workload's table name")
	}
	if _, err := ycsb.CreateIndex("USERTABLE_PK", ut, 8); err == nil {
		t.Error("CreateIndex reused a built-in workload's index name")
	}
	if _, err := ycsb.CreateOrderedIndex("USERTABLE_PK", ut); err == nil || !strings.Contains(err.Error(), "hash index") {
		t.Errorf("CreateOrderedIndex reused a hash index's name: %v", err)
	}
	if _, err := ycsb.BuildWorkload("ycsb", params("ycsb")); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("building the same workload twice on one DB: %v", err)
	}

	tpcc := open("tpcc")
	no, err := tpcc.Table("NEW_ORDER")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpcc.OrderedIndex("NEW_ORDER_ORD"); err != nil {
		t.Fatalf("built-in workload's ordered index invisible: %v", err)
	}
	if _, err := tpcc.CreateIndex("NEW_ORDER_ORD", no, 8); err == nil || !strings.Contains(err.Error(), "ordered index") {
		t.Errorf("CreateIndex reused an ordered index's name: %v", err)
	}
	if _, err := tpcc.CreateOrderedIndex("NEW_ORDER_ORD", no); err == nil {
		t.Error("CreateOrderedIndex reused a built-in workload's ordered index name")
	}
	// One namespace, two typed views: asking for the other kind says which
	// kind the name is.
	if _, err := tpcc.Index("NEW_ORDER_ORD"); err == nil || !strings.Contains(err.Error(), "is an ordered index") {
		t.Errorf("Index on an ordered index's name: %v", err)
	}
	if _, err := tpcc.OrderedIndex("ORDERS_PK"); err == nil || !strings.Contains(err.Error(), "is a hash index") {
		t.Errorf("OrderedIndex on a hash index's name: %v", err)
	}
	if _, err := tpcc.Index("NO_SUCH"); err == nil || !strings.Contains(err.Error(), "NEW_ORDER_ORD") || !strings.Contains(err.Error(), "ORDERS_PK") {
		t.Errorf("missing index error should list both kinds' names: %v", err)
	}
}
