package bench

import (
	"fmt"

	"abyss1000/internal/cc/twopl"
	"abyss1000/internal/core"
	"abyss1000/internal/costs"
	"abyss1000/internal/mem"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/wal"
	"abyss1000/internal/workload/tpcc"
	"abyss1000/internal/workload/ycsb"
)

// JobKind selects the execution path of a Job.
type JobKind int

const (
	// JobYCSB runs a YCSB configuration on the simulator.
	JobYCSB JobKind = iota
	// JobTPCC runs a TPC-C configuration on the simulator.
	JobTPCC
	// JobNativeYCSB runs a YCSB configuration on real goroutines (the
	// Fig. 3 hardware-validation runs). Its Cfg windows are wall-clock
	// nanoseconds, its results are wall-clock dependent, and the Runner
	// executes it alone so concurrent jobs cannot distort its timing.
	JobNativeYCSB
	// JobTsAlloc runs the Fig. 6 timestamp-allocation micro-benchmark:
	// every simulated core draws timestamps back-to-back for
	// Cfg.MeasureCycles.
	JobTsAlloc
)

// Job is one experiment data point, fully self-describing: everything
// needed to execute the point — workload, scheme, core count, simulated
// window and seed — lives in plain comparable fields, so a Job can be
// shipped to any worker goroutine, executed via Run, and compared with
// ==. Jobs never share state: Run constructs a
// fresh engine, database, workload and scheme instance on every call,
// which is what makes parallel execution and serial execution produce
// bit-identical results.
type Job struct {
	// Experiment is the registry id of the experiment that enumerated
	// this job ("9", "malloc", ...). Stamped by Experiment.Jobs and
	// BuildAll.
	Experiment string

	// Kind selects the execution path.
	Kind JobKind

	// Cores is the number of simulated (or native) cores.
	Cores int

	// Seed makes the point deterministic. Every job carries its own
	// seed; the engine derives per-core streams from (Seed, core id).
	Seed int64

	// Scheme is the paper name of the CC scheme (MakeScheme), empty for
	// JobTsAlloc. When UseTimeout is set the scheme is instead
	// twopl.NewWithTimeout(Timeout, DisableDetect) — the Fig. 4/5
	// DL_DETECT variants — and Scheme is display-only.
	Scheme        string
	TsMethod      tsalloc.Method
	UseTimeout    bool
	Timeout       uint64
	DisableDetect bool

	// GlobalMalloc replaces the per-worker arenas with one centralized
	// allocator (the §4.1 malloc ablation).
	GlobalMalloc bool

	// LogAccounting attaches an accounting-only write-ahead log (in-memory
	// sink, synchronous group commit) to the run: commit records are
	// encoded and logged and the Log breakdown component is billed, but the
	// simulated schedule — and therefore every other result field — is
	// unchanged.
	LogAccounting bool

	// Cfg is the measurement window. Simulated cycles for sim kinds,
	// wall-clock nanoseconds for JobNativeYCSB.
	Cfg core.Config

	// YCSB and TPCC are the workload payloads; only the one matching
	// Kind is read.
	YCSB ycsb.Config
	TPCC tpcc.Config
}

// Label renders a short human-readable identity for progress reporting.
func (j Job) Label() string {
	name := j.Scheme
	if j.Kind == JobTsAlloc {
		name = j.TsMethod.String()
	}
	if j.Experiment != "" {
		return fmt.Sprintf("%s %s@%dc", j.Experiment, name, j.Cores)
	}
	return fmt.Sprintf("%s@%dc", name, j.Cores)
}

// scheme constructs a fresh CC scheme instance for this job.
func (j Job) scheme() core.Scheme {
	if j.UseTimeout {
		return twopl.NewWithTimeout(j.Timeout, j.DisableDetect)
	}
	return MakeScheme(j.Scheme, j.TsMethod)
}

// Run executes the job and returns its result. Run is pure with respect
// to the job description: same Job, same Result (except JobNativeYCSB,
// whose results depend on real time), and it touches no shared state, so
// any number of Runs may proceed concurrently. Cfg reaches the engine
// unchanged; JobTsAlloc drives its own measurement loop and reads only
// Cfg.MeasureCycles.
func (j Job) Run() core.Result {
	var db *core.DB
	var wl core.Workload
	switch j.Kind {
	case JobTsAlloc:
		return j.runTsAlloc()
	case JobNativeYCSB:
		db = core.NewDB(native.New(j.Cores, j.Seed))
		wl = ycsb.Build(db, j.YCSB)
	case JobTPCC:
		db = core.NewDB(sim.New(j.Cores, j.Seed))
		wl = tpcc.Build(db, j.TPCC)
	default: // JobYCSB
		eng := sim.New(j.Cores, j.Seed)
		db = core.NewDB(eng)
		if j.GlobalMalloc {
			db.GlobalAlloc = mem.NewGlobalPool(eng)
		}
		wl = ycsb.Build(db, j.YCSB)
	}
	if j.LogAccounting {
		// Accounting-only WAL: in-memory sink, synchronous group commit.
		db.Wal = wal.NewWriter(wal.NewMemSink(), wal.Config{})
	}
	return core.Run(db, j.scheme(), wl, j.Cfg)
}

// runTsAlloc is the Fig. 6 micro-benchmark: timestamps drawn back-to-back
// on every core for the measurement window.
func (j Job) runTsAlloc() core.Result {
	eng := sim.New(j.Cores, j.Seed)
	alloc := tsalloc.New(j.TsMethod, eng)
	end := j.Cfg.MeasureCycles
	counts := make([]uint64, j.Cores)
	eng.Run(func(pr rt.Proc) {
		for pr.Now() < end {
			alloc.Next(pr)
			counts[pr.ID()]++
		}
	})
	var total uint64
	for _, n := range counts {
		total += n
	}
	return core.Result{
		Scheme:        j.TsMethod.String(),
		Workers:       j.Cores,
		Tally:         core.Tally{Commits: total},
		MeasureCycles: end,
		Frequency:     eng.Frequency(),
	}
}

// ycsbJob describes one simulated YCSB point at this run's scale.
func (p Params) ycsbJob(scheme string, m tsalloc.Method, cores int, ycfg ycsb.Config) Job {
	return Job{
		Kind:          JobYCSB,
		Cores:         cores,
		Seed:          p.Seed,
		Scheme:        scheme,
		TsMethod:      m,
		LogAccounting: p.LogAccounting,
		Cfg:           p.coreConfig(),
		YCSB:          ycfg,
	}
}

// tpccJob describes one simulated TPC-C point at this run's scale.
func (p Params) tpccJob(scheme string, cores int, tcfg tpcc.Config) Job {
	return Job{
		Kind:          JobTPCC,
		Cores:         cores,
		Seed:          p.Seed,
		Scheme:        scheme,
		TsMethod:      tsalloc.Atomic,
		LogAccounting: p.LogAccounting,
		Cfg:           p.coreConfig(),
		TPCC:          tcfg,
	}
}

// timeoutJob describes one point running the Fig. 4/5 DL_DETECT variant
// with an explicit wait timeout and optionally disabled detection.
func (p Params) timeoutJob(timeout uint64, disableDetect bool, cores int, ycfg ycsb.Config) Job {
	return Job{
		Kind:          JobYCSB,
		Cores:         cores,
		Seed:          p.Seed,
		Scheme:        "DL_DETECT",
		UseTimeout:    true,
		Timeout:       timeout,
		DisableDetect: disableDetect,
		LogAccounting: p.LogAccounting,
		Cfg:           p.coreConfig(),
		YCSB:          ycfg,
	}
}

// nativeJob describes one Fig. 3 native-hardware point; its windows are
// wall-clock nanoseconds.
func (p Params) nativeJob(scheme string, cores int, ycfg ycsb.Config) Job {
	return Job{
		Kind:          JobNativeYCSB,
		Cores:         cores,
		Seed:          p.Seed,
		Scheme:        scheme,
		TsMethod:      tsalloc.Atomic,
		LogAccounting: p.LogAccounting,
		Cfg: core.Config{
			WarmupCycles:  p.NativeWarmupNS,
			MeasureCycles: p.NativeMeasureNS,
			AbortBackoff:  costs.BackoffBase,
		},
		YCSB: ycfg,
	}
}

// tsallocJob describes one Fig. 6 micro-benchmark point.
func (p Params) tsallocJob(m tsalloc.Method, cores int) Job {
	return Job{
		Kind:     JobTsAlloc,
		Cores:    cores,
		Seed:     p.Seed,
		TsMethod: m,
		Cfg:      core.Config{MeasureCycles: p.MeasureCycles},
	}
}
