// Package abyss1000 is a from-scratch Go reproduction of "Staring into
// the Abyss: An Evaluation of Concurrency Control with One Thousand
// Cores" (Yu, Bezerra, Pavlo, Devadas, Stonebraker — VLDB 2014, the
// DBx1000 paper).
//
// The repository contains a deterministic many-core machine simulator
// standing in for Graphite (internal/sim, internal/mesh), a lightweight
// main-memory DBMS (internal/core, internal/storage, internal/index),
// the paper's seven concurrency-control schemes (internal/cc/...), the
// six timestamp-allocation strategies (internal/tsalloc), both
// benchmarks (internal/workload/{ycsb,tpcc}), a serializability checker
// (internal/sercheck), and a harness regenerating every table and figure
// of the paper's evaluation (bench, cmd/abyss-bench).
//
// The public embedding API is the abyss package: abyss.Open returns a
// DB, schemes and workloads resolve by name through registries
// (abyss.NewScheme, DB.BuildWorkload), custom workloads build on
// DB.CreateTable/CreateIndex/NewMix, and DB.Run validates configuration
// at the boundary. Every concept on the path into a run has one
// definition: abyss.RunConfig is the engine's core.Config itself (an
// alias, with one Validate holding every rule), one arrival generator
// and one -arrivals grammar (abyss.NewArrivalStream, abyss.ParseArrivals)
// serve the engine's open loop and the remote load generator alike, and
// log grouping is set in one place (abyss.Durability). cmd/, examples/
// and workloads/ consume only that
// API — enforced by importpurity_test.go — and workloads/smallbank (a
// SmallBank benchmark beyond the paper's two) is the reference external
// client.
//
// The evaluation harness lays each figure out as a spec: its
// self-describing jobs and where each result lands. A worker pool
// executes the flat job list (-parallel), with -json/-csv emitting every
// point's full result. Serial and parallel runs are byte-identical. EXPERIMENTS.md
// documents, per paper figure, the expected curve shapes and the exact
// command reproducing each.
//
// Observability goes beyond the paper's throughput-only evaluation:
// every Result carries a log2-bucketed commit-latency histogram
// (internal/stats.Histogram, p50/p95/p99/max) and per-transaction-type
// sub-results (Result.PerTxn, names flowing from TxnSpec registration or
// a workload's TxnTyper), and runs can be watched in flight via
// RunConfig.SampleEvery with an Observer or DB.RunStream's buffered
// sample channel — on both runtimes. All of it is accounting-only:
// observability_test.go and the golden matrix pin that an observed,
// sampled run reproduces the final Result and the golden signature
// byte-for-byte.
//
// The DBMS access path is closure-free and steady-state allocation-free
// (the paper's §4.1 malloc wall): schemes expose a buffer-returning
// WriteRow instead of a callback-taking Write, transient buffers come
// from per-worker arenas and recycle pools, and the indexes keep their
// entries in storage allocated ahead of the insert (hash chains in
// per-slot arrays, B+tree nodes of fixed capacity).
// BenchmarkTxnYCSB/BenchmarkTxnTPCC in bench_txn_test.go pin ~0 allocs
// per committed transaction, enforced by CI against a small fixed budget.
//
// See README.md for a tour of the packages and commands, and
// BENCH_index.json for the index layer's benchmark trajectory. The
// benchmarks in bench_test.go exercise one experiment per paper
// table/figure at a reduced scale suitable for `go test -bench=.`;
// determinism_test.go pins the simulator's byte-identical-results
// guarantee against testdata/golden_sim.txt — base run twice, then with
// every opt-in accounting-only feature attached alone and all together
// (bench.GoldenSignature(bench.GoldenFeatures{...})).
package abyss1000
