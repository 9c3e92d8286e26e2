package bench

import (
	"fmt"
	"slices"

	"abyss1000/internal/tsalloc"
	"abyss1000/internal/workload/tpcc"
)

// fig14 reproduces "Database Partitioning": a partitioned YCSB database
// with as many partitions as cores and single-partition transactions.
// H-STORE's coarse locks make per-tuple CC overhead vanish, so it leads
// until timestamp allocation catches it at high core counts.
func fig14(p Params) *spec {
	s := &spec{head: Figure{
		ID:     "Fig 14",
		Title:  "Database Partitioning (partitioned YCSB, single-partition txns, uniform)",
		XLabel: "cores",
		YLabel: "Mtxn/s",
	}}
	cfg := p.ycsb(1.0, 0)
	cfg.Partitioned = true
	ladder := floats(p.Ladder())
	for _, name := range AllSchemeNames {
		s.sweep(name, throughputM, ladder, func(c float64) Job {
			return p.ycsbJob(name, tsalloc.Atomic, int(c), cfg)
		})
	}
	// "Expect HSTORE on top through most of the ladder with its curve
	// bending where timestamp allocation saturates, and the tuple-level
	// schemes below it."
	s.claims = []Claim{
		{Name: "hstore-on-top", Kind: Dominates, Series: leading("HSTORE", AllSchemeNames), At: ladder},
		{Name: "hstore-bends", Kind: Growth, Series: []string{"HSTORE"}, At: lastStep(ladder), Max: bend},
	}
	return s
}

// bend is the Growth bound of a curve that bends over a 4x step in
// cores: it gains less than three quarters of linear.
const bend = 3

// flat is the Growth bound of a curve that is flat or collapsing over a
// 4x step in cores (it gains under 25 %), and the floor of one that
// climbs.
const flat = 1.25

// lastStep returns the last two values of xs (fewer on a shorter ladder).
func lastStep(xs []float64) []float64 { return xs[max(0, len(xs)-2):] }

// fig15 reproduces "Multi-Partition Transactions": (a) H-STORE's
// throughput versus the fraction of multi-partition transactions, for a
// read-only and a read-write mix; (b) throughput versus partitions
// accessed per multi-partition transaction across core counts.
func fig15(p Params) *spec {
	cores := p.capCores(64)
	s := &spec{head: Figure{
		ID:     "Fig 15",
		Title:  "Multi-Partition Transactions (H-STORE)",
		XLabel: "mp-fraction",
		YLabel: "Mtxn/s",
		Notes:  fmt.Sprintf("(a) at %d cores; (b) series sweep partitions/txn with 10%% MP transactions", cores),
	}}
	mps := []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
	for _, mix := range []struct {
		name    string
		readPct float64
	}{
		{"(a) readonly", 1.0},
		{"(a) readwrite", 0.5},
	} {
		s.sweep(mix.name, throughputM, mps, func(mp float64) Job {
			cfg := p.ycsb(mix.readPct, 0)
			cfg.Partitioned = true
			cfg.MPFraction = mp
			cfg.MPParts = 2
			return p.ycsbJob("HSTORE", tsalloc.Atomic, cores, cfg)
		})
	}

	// (b): partitions-per-transaction sweep across the ladder.
	var stack []string
	ladder := floats(p.ladderFrom(16))
	for _, parts := range []int{1, 2, 4, 8, 16} {
		cfg := p.ycsb(0.5, 0)
		cfg.Partitioned = true
		if parts > 1 {
			cfg.MPFraction = 0.1
			cfg.MPParts = parts
		}
		stack = append(stack, fmt.Sprintf("(b) part=%d", parts))
		s.sweep(stack[len(stack)-1], throughputM, ladder, func(c float64) Job {
			return p.ycsbJob("HSTORE", tsalloc.Atomic, int(c), cfg)
		})
	}
	// "The (a) series should fall steeply as the MP fraction grows from
	// 0; the (b) part=N series should stack in decreasing-N order, each
	// flattening as partition locks serialize more of the machine."
	// Steeply: they lose more than half by an all-MP mix.
	a := []string{"(a) readonly", "(a) readwrite"}
	s.claims = []Claim{
		{Name: "(a) falls", Kind: Growth, Series: a, At: mps, Max: 1},
		{Name: "(a) falls-steeply", Kind: Growth, Series: a, At: []float64{mps[0], mps[len(mps)-1]}, Max: 0.5},
		{Name: "(b) stacks", Kind: Ordering, Series: stack, At: ladder},
		{Name: "(b) flattens", Kind: Growth, Series: stack[1:], At: ladder, Max: bend},
	}
	return s
}

// tpccConfig scales the TPC-C database for a bench run.
func (p Params) tpccConfig(warehouses int) tpcc.Config {
	cfg := tpcc.DefaultConfig(warehouses)
	if warehouses >= 256 {
		// Keep 1024-warehouse databases laptop-sized, as the paper
		// itself shrank per-warehouse data (§5.6).
		cfg.CustomersPerDistrict = 60
		cfg.Items = 200
	}
	cfg.InsertsPerWorker = TPCCInsertsPerWorker(p.WarmupCycles + p.MeasureCycles)
	return cfg
}

// TPCCInsertsPerWorker sizes TPC-C's insert segments for a run of window
// simulated cycles (nanoseconds on the native runtime), warm-up included:
// a transaction inserts at most one row into each of HISTORY, ORDERS and
// NEW_ORDER, and takes at least minTxnCycles on one core.
func TPCCInsertsPerWorker(window uint64) int { return int(window / minTxnCycles) }

// minTxnCycles is the floor, in simulated cycles, of one TPC-C transaction
// on one core. The cheapest in any figure, Payment under H-STORE on one
// core, takes about 600.
const minTxnCycles = 500

// tpccMixes are the three TPC-C sub-figures: each one's title prefixes
// its series' names.
var tpccMixes = []struct {
	title      string
	paymentPct float64
}{
	{"(a) Payment+NewOrder", 0.5},
	{"(b) Payment only", 1.0},
	{"(c) NewOrder only", 0.0},
}

// tpccAcrossLadder sweeps every scheme across the ladder, up to maxCores,
// for each of the three TPC-C mixes, and returns the spec with the cores
// swept.
func (p Params) tpccAcrossLadder(id, title string, warehouses, maxCores int) (*spec, []float64) {
	s := &spec{head: Figure{ID: id, Title: title, XLabel: "cores", YLabel: "Mtxn/s"}}
	cores := floats(slices.DeleteFunc(p.Ladder(), func(c int) bool { return c > maxCores }))
	for _, sub := range tpccMixes {
		cfg := p.tpccConfig(warehouses)
		cfg.PaymentPct = sub.paymentPct
		for _, name := range AllSchemeNames {
			s.sweep(sub.title+" "+name, throughputM, cores, func(c float64) Job {
				return p.tpccJob(name, int(c), cfg)
			})
		}
	}
	return s, cores
}

// fromCores returns the x-values of cores from lo up.
func fromCores(cores []float64, lo float64) []float64 {
	return slices.DeleteFunc(slices.Clone(cores), func(c float64) bool { return c < lo })
}

// fig16 reproduces "TPC-C (4 warehouses)": more workers than warehouses,
// so Payment's W_YTD update serializes everything.
func fig16(p Params) *spec {
	s, cores := p.tpccAcrossLadder("Fig 16", "TPC-C, 4 warehouses", 4, p.capCores(256))
	// "Expect all three sub-figures flat or collapsing early."
	for _, sub := range tpccMixes {
		s.claims = append(s.claims, Claim{Name: sub.title[:3] + " flat", Kind: Growth,
			Series: prefixed(sub.title, AllSchemeNames), At: fromCores(cores, 16), Max: flat})
	}
	return s
}

// fig17 reproduces "TPC-C (1024 warehouses)": warehouses >= workers
// removes the Payment hotspot; T/O schemes then hit timestamp allocation
// and H-STORE leads on partitioning.
func fig17(p Params) *spec {
	warehouses := max(p.MaxCores, 64)
	title := fmt.Sprintf("TPC-C, %d warehouses (>= workers, as the paper's 1024)", warehouses)
	s, cores := p.tpccAcrossLadder("Fig 17", title, warehouses, p.MaxCores)
	// "Expect the inverse of Fig 16: curves keep climbing, with HSTORE at
	// or near the top and the T/O schemes bending where timestamp
	// allocation saturates." Near: within 5 % of the leader.
	for _, sub := range tpccMixes {
		id := sub.title[:3]
		s.claims = append(s.claims,
			Claim{Name: id + " climbs", Kind: Growth, Series: prefixed(sub.title, AllSchemeNames), At: fromCores(cores, 16), Min: flat},
			Claim{Name: id + " hstore-near-top", Kind: Within, Series: prefixed(sub.title, leading("HSTORE", AllSchemeNames)), At: cores[len(cores)-1:], Tol: 0.05},
			Claim{Name: id + " to-bends", Kind: Growth, Series: prefixed(sub.title, []string{"TIMESTAMP", "MVCC", "OCC"}), At: lastStep(cores), Max: bend})
	}
	return s
}

// Table2 renders the paper's bottleneck summary beside this
// reproduction's measured evidence at the quick scale.
func Table2() string {
	return `== Table 2: Bottleneck summary (paper's findings, reproduced) ==
 DL_DETECT   Scales under low contention. Suffers from lock thrashing.
             [evidence: Fig 4 collapse at theta>=0.6; Fig 9/10 WAIT share]
 NO_WAIT     No centralized contention point. Highly scalable. Very high abort rate.
             [evidence: Fig 9a leader; Fig 5 abort fraction at timeout=0]
 WAIT_DIE    Suffers from lock thrashing and the timestamp bottleneck.
             [evidence: Fig 9a below NO_WAIT; TsAlloc share in Fig 12b]
 TIMESTAMP   High overhead from copying data locally. Non-blocking writes.
             Suffers from the timestamp bottleneck.
             [evidence: Fig 8a gap to 2PL; Fig 12b TsAlloc share]
 MVCC        Performs well with read-intensive workloads. Non-blocking reads
             and writes. Suffers from the timestamp bottleneck.
             [evidence: Fig 13 peak near read-heavy mixes]
 OCC         High overhead for copying data locally. High abort cost.
             Suffers from the timestamp bottleneck (2 allocations/txn).
             [evidence: Fig 8a lowest; Fig 10b Abort share]
 HSTORE      Best for partitioned workloads. Suffers from multi-partition
             transactions and the timestamp bottleneck.
             [evidence: Fig 14 leader; Fig 15a decline with MP fraction]
`
}

// extensionAdaptive evaluates the §6.1 proposal ("switch between [scheme
// classes] based on the workload"): the ADAPTIVE hybrid against its two
// ingredients across the contention sweep. The hybrid should track
// DL_DETECT at low theta and NO_WAIT once thrashing sets in.
func extensionAdaptive(p Params) *spec {
	cores := p.capCores(64)
	s := &spec{head: Figure{
		ID:     "Extension: adaptive",
		Title:  fmt.Sprintf("§6.1 hybrid: ADAPTIVE vs DL_DETECT vs NO_WAIT (write-intensive, %d cores)", cores),
		XLabel: "theta",
		YLabel: "Mtxn/s",
	}}
	for _, name := range []string{"DL_DETECT", "NO_WAIT", "ADAPTIVE"} {
		s.sweep(name, throughputM, []float64{0, 0.4, 0.6, 0.7, 0.8}, func(theta float64) Job {
			return p.ycsbJob(name, tsalloc.Atomic, cores, p.ycsb(0.5, theta))
		})
	}
	return s
}

// ablationValidation reproduces the §4.3 "Distributed Validation" claim:
// the same OCC workload with parallelized per-tuple validation versus the
// original algorithm's single global validation critical section.
func ablationValidation(p Params) *spec {
	s := &spec{head: Figure{
		ID:     "Ablation: occ-validation",
		Title:  "OCC parallel validation vs global critical section (YCSB theta=0.6, write-intensive)",
		XLabel: "cores",
		YLabel: "Mtxn/s",
	}}
	cfg := p.ycsb(0.5, 0.6)
	for _, mode := range []struct {
		name   string
		scheme string
	}{
		{"parallel", "OCC"},
		{"central", "OCC_CENTRAL"},
	} {
		s.sweep(mode.name, throughputM, floats(p.Ladder()), func(c float64) Job {
			return p.ycsbJob(mode.scheme, tsalloc.Atomic, int(c), cfg)
		})
	}
	return s
}

// ablationMalloc reproduces the §4.1 memory-allocator finding: the same
// TIMESTAMP workload (whose reads allocate copies constantly) with
// per-worker arenas versus one centralized allocator.
func ablationMalloc(p Params) *spec {
	s := &spec{head: Figure{
		ID:     "Ablation: malloc",
		Title:  fmt.Sprintf("Per-worker arenas vs centralized malloc (TIMESTAMP, read-only YCSB, %d cores ladder)", p.capCores(64)),
		XLabel: "cores",
		YLabel: "Mtxn/s",
	}}
	cfg := p.ycsb(1.0, 0)
	for _, mode := range []string{"arena", "global-malloc"} {
		s.sweep(mode, throughputM, floats(p.Ladder()), func(c float64) Job {
			j := p.ycsbJob("TIMESTAMP", tsalloc.Atomic, int(c), cfg)
			j.GlobalMalloc = mode == "global-malloc"
			return j
		})
	}
	return s
}
