package bench

import (
	"fmt"
	"strings"
	"sync/atomic"

	"abyss1000/internal/core"
	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/slot"
	"abyss1000/internal/stats"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/wal"
	"abyss1000/internal/workload/tpcc"
	"abyss1000/internal/workload/ycsb"
)

// GoldenFeatures selects opt-in engine features to attach to every run of
// the golden signature. Each is accounting-only or disengaged, so any
// combination must leave the signature byte-identical to the zero value's
// — the inert-feature matrix in determinism_test.go pins each alone and
// all together.
type GoldenFeatures struct {
	// SampleEvery and Observer enable interval sampling (both or neither).
	SampleEvery uint64
	Observer    core.Observer

	// Durable attaches an accounting-only write-ahead log (in-memory
	// sink, synchronous group commit). The sim WAL path never advances
	// the simulated clock — it only bills the Log breakdown bucket, which
	// the signature excludes.
	Durable bool

	// Check enables serializability history capture (Config.Check),
	// which never ticks, syncs or latches.
	Check bool

	// OverloadOff attaches the overload tier's plumbing with every knob
	// at zero: a live (never-set) stop flag and a fault injector that
	// always returns zero delay, with the closed loop, no queue bound, no
	// deadline and no retry budget.
	OverloadOff bool

	// QuietLatches has every core sweep a shared latch slab through the
	// unmodelled pair (rt.Latches.TryAcquireQuiet/ReleaseQuiet — what
	// MVCC's garbage collector takes tuple latches with) at every
	// transaction boundary. The pair bills nothing and is no ordering
	// point, so the schedule cannot tell.
	QuietLatches bool
}

// zeroFault is a fault injector that never injects: the worker loop sees
// a non-nil Fault (so the overload code path is live) but zero delay.
type zeroFault struct{}

// Delay implements core.FaultInjector.
func (zeroFault) Delay(int, uint64) uint64 { return 0 }

// quietFault never injects either; it uses the transaction boundary to take
// and give back every latch of a slab all cores share, quietly. A quiet
// holder may not yield, so no core ever finds one of them held.
type quietFault struct {
	eng     *sim.Engine
	latches rt.Latches
}

const quietSlab = 8

// Delay implements core.FaultInjector.
func (q quietFault) Delay(worker int, _ uint64) uint64 {
	p := q.eng.Proc(worker)
	for i := 0; i < quietSlab; i++ {
		if !q.latches.TryAcquireQuiet(p, i) {
			panic("bench: a quietly held latch was visible to another core")
		}
		q.latches.ReleaseQuiet(p, i)
	}
	return 0
}

// GoldenSignature runs a fixed small YCSB and TPC-C mix on the simulator and
// returns the complete deterministic signature of the results: commits,
// aborts, tuples and every raw breakdown bucket, one line per scheme. Two
// properties are load-bearing:
//
//   - It is byte-identical across runs of the same binary (simulator
//     determinism) and across every GoldenFeatures combination, which
//     determinism_test.go asserts.
//   - It is byte-identical across engine rewrites that claim to preserve
//     scheduling semantics, which testdata/golden_sim.txt pins. If a PR
//     intentionally changes the timing model, regenerate the file with
//     `go run ./cmd/goldencheck > testdata/golden_sim.txt` and say so in
//     the PR; an unexplained diff is a scheduling regression.
func GoldenSignature(f GoldenFeatures) string {
	var b strings.Builder
	cfg := core.Config{
		WarmupCycles: 50_000, MeasureCycles: 200_000, AbortBackoff: costs.BackoffBase,
		SampleEvery: f.SampleEvery, Observer: f.Observer, Check: f.Check,
	}
	if f.OverloadOff {
		cfg = cfg.WithStop(new(atomic.Bool))
		cfg.Fault = zeroFault{}
	}
	attach := func(eng *sim.Engine, db *core.DB) core.Config {
		if f.Durable {
			db.Wal = wal.NewWriter(wal.NewMemSink(), wal.Config{})
		}
		cfg := cfg
		if f.QuietLatches {
			cfg.Fault = quietFault{eng, eng.NewLatches(0x51<<40, slot.Fixed(quietSlab))}
		}
		return cfg
	}
	for _, scheme := range []string{"DL_DETECT", "NO_WAIT", "WAIT_DIE", "TIMESTAMP", "MVCC", "OCC", "HSTORE"} {
		eng := sim.New(16, 42)
		db := core.NewDB(eng)
		cfg := attach(eng, db)
		ycfg := ycsb.DefaultConfig()
		ycfg.Rows = 4096
		ycfg.ReqPerTxn = 8
		if scheme == "HSTORE" {
			ycfg.Partitioned = true
			ycfg.MPFraction = 0.1
			ycfg.MPParts = 2
		}
		wl := ycsb.Build(db, ycfg)
		writeSig(&b, "ycsb/"+scheme, core.Run(db, MakeScheme(scheme, tsalloc.Atomic), wl, cfg))
	}
	for _, scheme := range []string{"DL_DETECT", "NO_WAIT", "TIMESTAMP", "MVCC"} {
		eng := sim.New(8, 7)
		db := core.NewDB(eng)
		cfg := attach(eng, db)
		wl := tpcc.Build(db, tpcc.DefaultConfig(4))
		writeSig(&b, "tpcc/"+scheme, core.Run(db, MakeScheme(scheme, tsalloc.Atomic), wl, cfg))
	}
	return b.String()
}

func writeSig(b *strings.Builder, label string, r core.Result) {
	fmt.Fprintf(b, "%s commits=%d aborts=%d tuples=%d", label, r.Commits, r.Aborts, r.Tuples)
	// Only the paper's six components are part of the signature: the Log
	// extension is accounting-only by construction (it never advances the
	// simulated clock), so the signature must stay byte-identical whether
	// durability logging is off or on — the golden matrix pins that.
	for c := stats.Component(0); c < stats.NumPaperComponents; c++ {
		fmt.Fprintf(b, " %s=%d", c, r.Breakdown.Get(c))
	}
	b.WriteByte('\n')
}
