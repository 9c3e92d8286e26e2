// Package abyss is the public, embeddable front door to the engine: a
// deterministic many-core simulator (and a native-goroutine runtime), a
// lightweight main-memory DBMS, the seven concurrency-control schemes of
// "Staring into the Abyss: An Evaluation of Concurrency Control with One
// Thousand Cores" (VLDB 2014), and name-keyed registries that make every
// scheme and workload a plug-in rather than a wiring change.
//
// The five-minute tour:
//
//	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeSim, Cores: 64, Seed: 42})
//	params, err := abyss.DefaultWorkloadParams("ycsb")
//	wl, err := db.BuildWorkload("ycsb", params)
//	scheme, err := abyss.NewScheme("MVCC")
//	res, err := db.Run(scheme, wl, db.DefaultRunConfig())
//	fmt.Println(res.Throughput(), "txn/s")
//
// Everything is keyed by name: Schemes() lists the concurrency-control
// schemes (the paper's seven plus extensions such as ADAPTIVE), Workloads()
// lists the registered workloads (YCSB, TPC-C, and any workload registered
// via RegisterWorkload — see abyss1000/workloads/smallbank for a complete
// external example), and TSMethodNames() lists the timestamp-allocation
// strategies. Unknown names return errors enumerating the valid set, and
// invalid configurations (zero measurement windows, out-of-range
// probabilities) are rejected before they can produce NaN throughputs.
//
// RunConfig is the engine's run configuration itself — an alias, like
// Result, Sample and Arrivals, so there is no second copy of its knobs to
// keep in step — and RunConfig.Validate is the one statement of what
// makes it meaningful: Run, RunStream and Serve return its error, and the
// engine refuses the same configuration with the same text.
//
// Custom workloads implement the Workload and Txn interfaces against the
// declarative surface on DB: CreateTable builds fixed-width tables,
// CreateIndex hashes them, and NewMix turns a set of weighted
// stored-procedure factories into a Workload. A workload that embeds its
// *Mix (SmallBank, TATP, chaos and TPC-C do) is that Workload and
// TxnTyper, and a Session invokes its procedures by name. Transaction
// bodies read and write rows through TxnCtx exactly like the built-in
// workloads do; the access path is steady-state allocation-free
// regardless of which scheme is plugged in. Txn.Partitions names the
// partitions a transaction touches, in any order, repeats allowed:
// H-STORE sorts and dedups the set itself before it locks. A transaction
// that can never return ErrUserAbort says so with MayRollBack() false
// (RollbackDeclarer), read at Begin after Generate: H-STORE, which
// nothing else can abort, then takes no before-image of the rows it
// writes, and panics if it rolls back after writing after all. Without
// the method a transaction may roll back, and pays for the images.
//
// A DB has one catalogue, the engine's own: DB.Table, DB.Index and
// DB.OrderedIndex see the tables and indexes BuildWorkload built as well
// as the ones CreateTable, CreateIndex and CreateOrderedIndex made. Tables
// share one namespace and indexes of both kinds another; a name already
// taken is rejected, never overwritten.
//
// Beyond point accesses, CreateOrderedIndex builds a latched B+tree
// index whose TxnCtx.RangeScan returns the entries in [lo, hi] in key
// order. TxnCtx.InsertRow returns a new row, reserved in its table for the
// caller to fill in place, and publishes it into one index of either kind
// at the scheme's commit point, so a table whose only index is ordered
// needs no hash index; TxnCtx.InsertRowOrdered publishes the row into a
// hash index and an ordered index at once (a nil ordered index publishes
// the hash entry alone). An aborted insert's row is cleared and its slot
// reused. Underneath those typed entry points an
// index is one concept: both kinds are registered, published into, logged
// (format ABYWAL03, one ordinal space), checkpointed and recovered through
// the same interface and code path. CompositeKey packs
// multi-column keys. The abyss1000/query package layers composable
// iterator-model operators (scan, index range, filter, project, join,
// group, order, limit) on top of exactly this surface; the full
// five-transaction TPC-C mix (WorkloadParams.Mix = "full") and the
// abyss1000/workloads/tatp benchmark are built from it. Range scans are
// latch-consistent but not phantom-protected: no scheme implements
// next-key locking.
//
// Observability is built into every run. Result carries a commit-latency
// Histogram (P50/P95/P99/Max) and per-transaction-type TxnStats (names
// flow from TxnSpec registration; workloads can also implement TxnTyper
// directly), and a run can be watched in flight: RunStream returns a
// buffered channel of per-interval Samples plus a wait function for the
// final Result, or set RunConfig.SampleEvery and an Observer on a plain
// Run. All of it is accounting-only — a sampled, observed run returns a
// Result identical to an unobserved one, and on the simulated runtime the
// entire schedule is unchanged.
//
// Overload behaviour is part of the surface, not an accident. RunConfig
// can open the loop — a Poisson or bursty MMPP arrival process
// (Arrivals) offering load the system did not ask for — with bounded
// per-worker admission queues (QueueDepth, ShedTypes) that shed excess
// up front, per-transaction deadlines and retry budgets (Deadline,
// RetryLimit, failing as ErrDeadline into Result.Deadlined), capped
// exponential backoff (BackoffCap), and fault injection (Fault; see
// StalledWorkerFault and friends). Result then separates offered load
// from goodput (OfferedTPS, GoodputTPS, Shed, QueueDepth), Interrupt
// ends an in-flight run gracefully with a partial Result, and with
// every knob at zero the closed loop is byte-identical to previous
// releases. The arrival model has one definition for every consumer:
// ParseArrivals reads the command-line grammar (poisson:RATE or
// mmpp:CALM:BURST[:CALMDWELL:BURSTDWELL], calm first, dwells in cycles
// or as durations), and NewArrivalStream is the generator both the
// engine's workers and the remote load generator (abyss1000/serve/client,
// whose LoadConfig.Arrival is an Arrivals) draw from.
//
// Durability is configured once, at Open: Options.Durability names the
// sink and the mode (Async: real group commit, each group being the
// commits that arrived during the previous group's fsync; otherwise the
// simulator's accounting-only log, one modeled fsync per 8 commits). A DB
// runs once, so RunConfig carries no log override.
//
// Correctness is checkable, not assumed: set RunConfig.Check and the run
// captures every committed transaction's reads and writes as versions
// (accounting-only, like sampling); DB.CheckSerializability then builds
// the direct serialization graph over the captured history and verifies
// acyclicity plus final-state equivalence against a single-threaded
// oracle replay, returning a minimal counterexample cycle on failure.
// See check.go and the abyss1000/workloads/chaos fuzzer.
//
// Every run on the simulated runtime is deterministic in (Options.Seed,
// configuration): same inputs, byte-identical Result. The native runtime
// trades determinism for real wall-clock measurements on host cores.
//
// A panic raised while a run is in flight — the engine reporting a
// misconfiguration (an exhausted insert segment, a missing index) or a bug
// in a transaction body — is returned as the error of Run, or of
// RunStream's wait function, on the simulated runtime, whose cores are
// coroutines of the goroutine that measures. On the native runtime it
// still crashes the process, because sibling workers may be blocked on the
// dead worker's locks.
package abyss
