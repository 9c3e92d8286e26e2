package abyss

import (
	"fmt"
	"strings"
	"sync/atomic"

	"abyss1000/internal/core"
	"abyss1000/internal/costs"
	"abyss1000/internal/index"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/wal"
)

// The engine types that flow through the public API. They are aliases, not
// wrappers: a Scheme from NewScheme, a Workload from BuildWorkload and a
// Txn written against TxnCtx are exactly what the engine executes, so
// embedding code pays no adaptation cost and external workloads (see
// abyss1000/workloads/smallbank) are indistinguishable from built-in ones.
type (
	// Scheme is a pluggable concurrency-control scheme (§3.2 of the
	// paper). Obtain instances from NewScheme; implementing new schemes
	// currently requires engine-internal types.
	Scheme = core.Scheme

	// Workload generates each worker's transaction stream.
	Workload = core.Workload

	// Txn is one transaction: program logic intermixed with row accesses.
	Txn = core.Txn

	// RollbackDeclarer is an optional interface for Txn: MayRollBack says
	// whether this execution may return ErrUserAbort. H-STORE takes no
	// before-image for a transaction that says false, and panics if it
	// rolls back after writing anyway. Without the method a transaction
	// may roll back.
	RollbackDeclarer = core.RollbackDeclarer

	// TxnCtx is the per-worker transaction context handed to Txn.Run:
	// Lookup/Read/UpdateRow/InsertRow are the whole data access surface.
	// Read and UpdateRow take the ordinals of the columns the access
	// touches (Read(t, slot, cols...)); naming none means the whole row.
	// An in-place access is billed for the named columns' bytes only, so
	// a body names every column it reads or stores whenever it touches
	// fewer than all of them.
	TxnCtx = core.TxnCtx

	// Result aggregates one experiment run (commits, aborts, tuple
	// accesses, the six-component time breakdown, the commit-latency
	// Histogram, per-transaction-type TxnStats, and derived rates).
	Result = core.Result

	// TxnStats is one transaction type's sub-result within a Result:
	// commits, aborts and the type's own latency histogram.
	TxnStats = core.TxnStats

	// Histogram is a log2-bucketed latency histogram with
	// P50/P95/P99/Max accessors and Quantile/Merge; Result.Latency,
	// TxnStats.Latency and Sample.Latency are Histograms.
	Histogram = stats.Histogram

	// Sample is one interval's in-flight snapshot of a run: commits,
	// aborts and latency for that interval, with Throughput and
	// AbortFraction accessors. Delivered via RunConfig.Observer or the
	// RunStream channel.
	Sample = core.Sample

	// Observer receives interval Samples during a run. OnSample is
	// called from worker threads and must return promptly; RunStream
	// wraps the channel plumbing for the common case.
	Observer = core.Observer

	// ObserverFunc adapts a function to the Observer interface.
	ObserverFunc = core.ObserverFunc

	// TxnTyper is the optional Workload interface that enables
	// Result.PerTxn attribution. Mix implements it; custom Workload
	// implementations may too.
	TxnTyper = core.TxnTyper

	// Proc is one logical core / worker thread: clock, deterministic RNG
	// and time-breakdown accounting.
	Proc = rt.Proc

	// Table is a fixed-width row table created by CreateTable.
	Table = storage.Table

	// Schema describes a Table's columns and provides typed row access.
	Schema = storage.Schema

	// Col is one fixed-width column of a TableSpec.
	Col = storage.Col

	// Index is a hash index created by CreateIndex. It stores a mapping at
	// its row slot, so a slot of the table can be mapped at most once per
	// Index at a time (a row has one key per index); an insert of a slot
	// that is already mapped, or that lies outside the table, panics.
	// Setup code maps a table's loaded slots with LoadAll, which writes the
	// bucket array a cache-sized partition at a time, and may call it on a
	// goroutine of its own beside the one writing the rows, so long as one
	// goroutine makes all of an index's load calls. LoadInsert maps one
	// slot; a loop of them writes a random bucket per key, and rows written
	// in between evict the bucket array.
	Index = index.Hash

	// OrderedIndex is an ordered (range-scannable) secondary index
	// created by CreateOrderedIndex.
	OrderedIndex = index.Ordered

	// IndexEntry is one key→slot pair returned by an ordered range scan.
	IndexEntry = index.Entry

	// TSMethod selects a timestamp-allocation strategy (§4.3).
	TSMethod = tsalloc.Method

	// TSAllocator hands out transaction timestamps; see
	// DB.NewTimestampAllocator.
	TSAllocator = tsalloc.Allocator
)

// Sentinel errors returned from transaction bodies.
var (
	// ErrAbort is returned by row accesses when concurrency control
	// aborts the transaction; propagate it out of Txn.Run unchanged and
	// the engine rolls back and restarts.
	ErrAbort = core.ErrAbort

	// ErrUserAbort is returned by transaction logic to request a rollback
	// that counts as completed work (no restart), e.g. TPC-C's 1%
	// invalid-item NewOrders.
	ErrUserAbort = core.ErrUserAbort
)

// Runtime names accepted by Options.Runtime.
const (
	// RuntimeSim is the deterministic discrete-event simulator of a tiled
	// many-core chip (the default): bit-reproducible results, core counts
	// far beyond the host.
	RuntimeSim = "sim"

	// RuntimeNative runs workers as real goroutines with real
	// synchronization; windows are wall-clock nanoseconds and results are
	// machine-dependent.
	RuntimeNative = "native"
)

// MaxCores is the largest worker count Open accepts — the paper's maximum
// core count, and the bound baked into clock-based timestamp allocation
// (10 bits of worker id).
const MaxCores = 1024

// NumHistBuckets is the number of log2 buckets in a Histogram: bucket 0
// holds the value 0, bucket i holds values in [2^(i-1), 2^i).
const NumHistBuckets = stats.NumHistBuckets

// MaxSampleIntervals bounds MeasureCycles / SampleEvery: the sampler and
// the RunStream channel preallocate per-interval state, so finer
// sampling than this is rejected at validation.
const MaxSampleIntervals = core.MaxSampleIntervals

// HistBucketBounds returns Histogram bucket i's half-open value range
// [lo, hi), for rendering histogram dumps.
func HistBucketBounds(i int) (lo, hi uint64) { return stats.HistBucketBounds(i) }

// Runtimes lists the valid Options.Runtime values.
func Runtimes() []string { return []string{RuntimeSim, RuntimeNative} }

// Options configures Open.
type Options struct {
	// Runtime selects the execution substrate: RuntimeSim (default) or
	// RuntimeNative.
	Runtime string

	// Cores is the number of logical cores / worker threads, in
	// [1, MaxCores]. Required.
	Cores int

	// Seed drives every deterministic random stream (per-worker RNGs,
	// simulated placement). Two sim DBs opened with equal Options produce
	// byte-identical results for equal work.
	Seed int64

	// Durability, when non-nil, attaches a write-ahead log: every commit
	// appends its after-images, DB.Checkpoint snapshots tables, and
	// DB.Recover replays a (possibly torn) stream back to the durable
	// committed state. Nil means no logging and a commit path identical
	// to a non-durable build. See the Durability type in durability.go.
	Durability *Durability
}

// DB is an embeddable database instance: a runtime, the engine's one
// catalogue of tables and indexes (Table, Index and OrderedIndex see what
// BuildWorkload built as well as what the Create calls made; indexes of
// both kinds share a namespace), and the Run entry point. One DB supports
// one experiment Run; open a fresh DB per measurement so warmup windows
// and clocks start from zero.
type DB struct {
	opts  Options
	rt    rt.Runtime
	inner *core.DB
	ran   bool

	// Durability state: the log writer and its sink (nil without
	// Options.Durability), and the scheme of the DB's Run, kept so
	// StateDump can ask it for committed images (MVCC).
	wal        *wal.Writer
	logSink    LogSink
	lastScheme Scheme

	// stop is the cooperative interruption flag wired into every Run
	// (Config.WithStop); Interrupt sets it. Workers poll it at transaction
	// boundaries only, so an idle flag costs one nil-check per txn.
	stop atomic.Bool
}

// Open validates opts and creates an empty database on the selected
// runtime.
func Open(opts Options) (*DB, error) {
	if opts.Runtime == "" {
		opts.Runtime = RuntimeSim
	}
	if opts.Cores < 1 || opts.Cores > MaxCores {
		return nil, fmt.Errorf("abyss: Options.Cores must be in [1, %d], got %d", MaxCores, opts.Cores)
	}
	var r rt.Runtime
	switch opts.Runtime {
	case RuntimeSim:
		r = sim.New(opts.Cores, opts.Seed)
	case RuntimeNative:
		r = native.New(opts.Cores, opts.Seed)
	default:
		return nil, fmt.Errorf("abyss: unknown runtime %q (valid: %s)", opts.Runtime, joinNames(Runtimes()))
	}
	db := &DB{opts: opts, rt: r, inner: core.NewDB(r)}
	if opts.Durability != nil {
		db.attachWAL(opts.Durability)
	}
	return db, nil
}

// Options returns the options the DB was opened with (with defaults
// applied).
func (db *DB) Options() Options { return db.opts }

// Cores returns the number of logical cores / worker threads.
func (db *DB) Cores() int { return db.rt.NumProcs() }

// Frequency returns the core clock in Hz used to convert cycle counts to
// per-second rates (1 GHz simulated; 1 cycle = 1 ns native).
func (db *DB) Frequency() float64 { return db.rt.Frequency() }

// TableSpec declares one table for CreateTable.
type TableSpec struct {
	// Name is the table name, unique within the DB.
	Name string

	// Cols are the fixed-width columns, in storage order.
	Cols []Col

	// Capacity is the total slot count, at most math.MaxInt32. Slots
	// beyond Loaded are divided into per-worker insert segments for
	// runtime inserts. It is a ceiling, not a reservation: the loaded rows
	// are allocated when the table is created, the insert region 4 096
	// slots at a time as inserts reach it — rows, concurrency-control
	// state and hash-index links alike — so headroom that is never
	// inserted into costs nothing.
	Capacity int

	// Loaded is how many rows setup code will populate via Table.LoadRow
	// before the run starts.
	Loaded int
}

// CreateTable validates spec and adds the table to the catalog. Populate
// its first spec.Loaded rows with Table.LoadRow and Schema's Put accessors
// before Run.
func (db *DB) CreateTable(spec TableSpec) (*Table, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("abyss: TableSpec.Name must not be empty")
	}
	if _, ok := db.inner.Catalog.Lookup(spec.Name); ok {
		return nil, fmt.Errorf("abyss: table %q already exists", spec.Name)
	}
	if len(spec.Cols) == 0 {
		return nil, fmt.Errorf("abyss: table %q needs at least one column", spec.Name)
	}
	for _, c := range spec.Cols {
		if c.Name == "" || c.Width <= 0 {
			return nil, fmt.Errorf("abyss: table %q column %q must have a name and positive width, got width %d", spec.Name, c.Name, c.Width)
		}
	}
	if spec.Capacity <= 0 || spec.Capacity > storage.MaxCapacity {
		return nil, fmt.Errorf("abyss: table %q capacity must be in [1, %d] (hash indexes link slots through int32 words), got %d", spec.Name, storage.MaxCapacity, spec.Capacity)
	}
	if spec.Loaded < 0 || spec.Loaded > spec.Capacity {
		return nil, fmt.Errorf("abyss: table %q loaded rows %d out of range [0, capacity %d]", spec.Name, spec.Loaded, spec.Capacity)
	}
	schema := storage.NewSchema(spec.Name, spec.Cols...)
	return db.inner.Catalog.Add(schema, spec.Capacity, spec.Loaded, db.Cores()), nil
}

// newIndexName validates the name and table of an index to be created.
func (db *DB) newIndexName(name string, t *Table) error {
	if name == "" {
		return fmt.Errorf("abyss: index name must not be empty")
	}
	if x, ok := db.inner.LookupIndex(name); ok {
		return fmt.Errorf("abyss: index %q already exists (%s)", name, indexKind(x))
	}
	if t == nil {
		return fmt.Errorf("abyss: index %q needs a table", name)
	}
	return nil
}

// CreateIndex builds a hash index named name over t, sized for at least
// minKeys keys. Populate setup-time entries with Index.LoadAll (slots [0, n)
// in one call) or Index.LoadInsert (one slot). The index maps each slot of t
// at most once (see Index): several keys for one row need several indexes.
func (db *DB) CreateIndex(name string, t *Table, minKeys int) (*Index, error) {
	if err := db.newIndexName(name, t); err != nil {
		return nil, err
	}
	return db.inner.AddIndex(name, t, max(minKeys, 1)), nil
}

// CreateOrderedIndex builds an ordered secondary index named name over t.
// Ordered indexes support Txn.RangeScan in addition to point lookups;
// their maintenance and scans are billed to the INDEX component like hash
// probes. Populate setup-time entries with OrderedIndex.LoadInsert.
func (db *DB) CreateOrderedIndex(name string, t *Table) (*OrderedIndex, error) {
	if err := db.newIndexName(name, t); err != nil {
		return nil, err
	}
	return db.inner.AddOrderedIndex(name, t), nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	t, ok := db.inner.Catalog.Lookup(name)
	if !ok {
		var have []string // in creation order
		for _, t := range db.inner.Catalog.Tables() {
			have = append(have, t.Schema.Name)
		}
		return nil, fmt.Errorf("abyss: no table %q (have: %s)", name, joinNames(have))
	}
	return t, nil
}

// Index returns the named hash index.
func (db *DB) Index(name string) (*Index, error) { return lookupIndex[*Index](db, name) }

// OrderedIndex returns the named ordered index.
func (db *DB) OrderedIndex(name string) (*OrderedIndex, error) {
	return lookupIndex[*OrderedIndex](db, name)
}

// lookupIndex returns the named index as the kind the caller asked for,
// or says which kind it is instead.
func lookupIndex[T index.Index](db *DB, name string) (T, error) {
	var want T
	x, ok := db.inner.LookupIndex(name)
	if !ok {
		return want, fmt.Errorf("abyss: no index %q (have: %s)", name, joinNames(db.inner.IndexNames()))
	}
	got, ok := x.(T)
	if !ok {
		return want, fmt.Errorf("abyss: index %q is %s, not %s", name, indexKind(x), indexKind(want))
	}
	return got, nil
}

// indexKind names an index's kind for error messages.
func indexKind(x index.Index) string {
	if _, ok := x.(*OrderedIndex); ok {
		return "an ordered index"
	}
	return "a hash index"
}

// CompositeKey packs up to four 16-bit ids into one uint64 index key,
// the convention TPC-C-style multi-column keys use.
func CompositeKey(a, b, c, d uint64) uint64 { return index.CompositeKey(a, b, c, d) }

// NewTimestampAllocator builds a timestamp allocator of the given method
// on this DB's runtime (the §4.3 strategies; see ParseTSMethod).
func (db *DB) NewTimestampAllocator(m TSMethod) TSAllocator {
	return tsalloc.New(m, db.rt)
}

// Go executes body on every core concurrently — simulated or real — and
// returns when all bodies have returned. This is the raw worker substrate
// beneath Run, exposed for micro-benchmarks (e.g. timestamp allocation)
// and custom measurement loops; most embedders only need Run. Like Run it
// consumes the DB's single measurement (the simulated clock only starts
// from zero once), so a second Go — or mixing Go and Run — returns an
// error.
func (db *DB) Go(body func(p Proc)) error {
	if body == nil {
		return fmt.Errorf("abyss: Go needs a body")
	}
	if db.ran {
		return fmt.Errorf("abyss: this DB already ran an experiment; Open a fresh DB per Run/Go")
	}
	db.ran = true
	db.rt.Run(body)
	return nil
}

// RunConfig sizes one measurement: the window (WarmupCycles,
// MeasureCycles, AbortBackoff), observation (SampleEvery, Observer,
// Check) and the overload tier (Arrivals, QueueDepth, ShedTypes,
// Deadline, RetryLimit, BackoffCap, Fault). It is the engine's own run
// configuration, not a copy of it — see the field documentation there.
// Cycles are simulated cycles under RuntimeSim (1 GHz: 1 cycle = 1 ns of
// simulated time) and wall-clock nanoseconds under RuntimeNative.
// RunConfig.Validate reports what Run would reject.
type RunConfig = core.Config

// DefaultRunConfig returns a window sized for quick experiments on this
// DB's runtime, with the engine's base abort backoff: 0.3 ms of simulated
// warmup and 1.5 ms of measurement (sim), or 5 ms and 50 ms wall-clock
// (native).
func (db *DB) DefaultRunConfig() RunConfig {
	if db.opts.Runtime == RuntimeNative {
		return RunConfig{WarmupCycles: 5_000_000, MeasureCycles: 50_000_000, AbortBackoff: costs.BackoffBase}
	}
	return RunConfig{WarmupCycles: 300_000, MeasureCycles: 1_500_000, AbortBackoff: costs.BackoffBase}
}

// prepareRun validates one measurement's arguments and claims the DB's
// single run. On success the caller owns the measurement and must perform
// it; on error nothing changed.
func (db *DB) prepareRun(scheme Scheme, wl Workload, cfg RunConfig) error {
	if scheme == nil {
		return fmt.Errorf("abyss: Run needs a Scheme (see NewScheme)")
	}
	if wl == nil {
		return fmt.Errorf("abyss: Run needs a Workload (see BuildWorkload)")
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("abyss: %w", err)
	}
	if db.ran {
		return fmt.Errorf("abyss: this DB already ran an experiment; Open a fresh DB per Run/Go")
	}
	db.ran = true
	return nil
}

// runMeasured executes the prepared measurement. Split from Run so that
// RunStream can validate synchronously and measure on its own goroutine.
func (db *DB) runMeasured(scheme Scheme, wl Workload, cfg RunConfig) (res Result, err error) {
	// The engine reports misconfiguration (exhausted insert segments,
	// missing indexes) by panicking, and a buggy transaction body may
	// panic too. Under RuntimeSim the workers are coroutines of this
	// goroutine, so either becomes an error at the public boundary. Under
	// RuntimeNative only a panic raised before the workers start does; one
	// raised on a worker still crashes the process, because sibling workers
	// may be blocked on the dead worker's locks.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("abyss: run failed: %v", r)
		}
	}()
	db.lastScheme = scheme
	return core.Run(db.inner, scheme, wl, cfg.WithStop(&db.stop)), nil
}

// Run executes wl under scheme for cfg's measurement window and returns
// the aggregated result: throughput, aborts, the six-component breakdown,
// the commit-latency histogram, and per-transaction-type sub-results when
// the workload declares its types (Mix does). With SampleEvery and an
// Observer set, interval Samples stream to the Observer during the run.
// The workload's tables must already be populated (BuildWorkload does
// this for registered workloads). A DB measures once: clocks and warmup
// windows are meaningful only from a cold start, so a second Run returns
// an error — Open a fresh DB instead.
func (db *DB) Run(scheme Scheme, wl Workload, cfg RunConfig) (Result, error) {
	if err := db.prepareRun(scheme, wl, cfg); err != nil {
		return Result{}, err
	}
	return db.runMeasured(scheme, wl, cfg)
}

// chanObserver forwards samples into a channel buffered for every
// interval of the run, so sends never block the measurement.
type chanObserver struct{ ch chan Sample }

// OnSample implements Observer.
func (c *chanObserver) OnSample(s Sample) { c.ch <- s }

// RunStream is Run with a streaming surface: it starts the measurement in
// the background and returns immediately with a channel of in-flight
// Samples (one per SampleEvery cycles of the measurement window, closed
// when the run ends) and a wait function that blocks for, and returns,
// the final Result.
//
// The channel is buffered for the whole run, so the measurement never
// waits on the consumer — ranging over the channel and then calling wait
// is the intended pattern, but calling wait immediately (or never
// draining the channel at all) is also safe.
//
// cfg.SampleEvery must be positive and cfg.Observer must be nil
// (RunStream installs its own); errors — including argument validation —
// are reported by the wait function, with the sample channel closed and
// empty.
func (db *DB) RunStream(scheme Scheme, wl Workload, cfg RunConfig) (<-chan Sample, func() (Result, error)) {
	fail := func(err error) (<-chan Sample, func() (Result, error)) {
		ch := make(chan Sample)
		close(ch)
		return ch, func() (Result, error) { return Result{}, err }
	}
	if cfg.Observer != nil {
		return fail(fmt.Errorf("abyss: RunStream installs its own Observer; RunConfig.Observer must be nil"))
	}
	obs := new(chanObserver)
	cfg.Observer = obs
	if err := db.prepareRun(scheme, wl, cfg); err != nil {
		return fail(err)
	}
	// Validated: SampleEvery is positive and the interval count is capped.
	obs.ch = make(chan Sample, (cfg.MeasureCycles+cfg.SampleEvery-1)/cfg.SampleEvery+1)
	done := make(chan struct{})
	var (
		res    Result
		runErr error
	)
	go func() {
		defer close(done)
		defer close(obs.ch)
		res, runErr = db.runMeasured(scheme, wl, cfg)
	}()
	return obs.ch, func() (Result, error) {
		<-done
		return res, runErr
	}
}

func joinNames(names []string) string {
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}
