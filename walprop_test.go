package abyss1000_test

// Crash-fault-injection recovery harness: the durability tier's
// end-to-end property tests. The contract under test is the one
// README.md states for the WAL: tear the log stream at ANY byte — a
// machine crash mid group-commit write — and recovery must rebuild
// exactly the committed state of the complete record prefix, on every
// scheme and both runtimes. The tests compare recovered databases
// against live ones with abyss.DB.StateDump, whose string form is a
// complete serialization of committed user-visible state, and use
// internal/wal.Scan only to enumerate record boundaries so cuts land
// both ON frame edges and INSIDE frames (torn tails).

import (
	"errors"
	"strings"
	"testing"

	"abyss1000/abyss"
	"abyss1000/internal/wal"
	"abyss1000/workloads/smallbank"
)

// recoveryWorkloads are the workloads the recovery properties run over:
// YCSB logs updates only; the full TPC-C mix also logs inserts, into hash
// indexes alone (HISTORY) and into a hash plus an ordered index (ORDERS,
// NEW_ORDER, ORDER_LINE), so insert replay, checkpointed index entries and
// replay idempotence are exercised through both index kinds.
var recoveryWorkloads = []string{"ycsb", "tpcc"}

// recoveryParams returns a small configuration of the named workload that
// still produces a few hundred logged commits: YCSB partitioned when the
// scheme needs it, TPC-C as the full mix on two warehouses.
func recoveryParams(t *testing.T, workload, scheme string) abyss.WorkloadParams {
	t.Helper()
	p, err := abyss.DefaultWorkloadParams(workload)
	if err != nil {
		t.Fatal(err)
	}
	if workload == "tpcc" {
		p.Warehouses = 2
		p.Mix = "full"
		p.InsertsPerWorker = 512
		return p
	}
	p.Rows = 512
	p.ReqPerTxn = 4
	if scheme == "HSTORE" {
		p.Partitioned = true
		p.MPFraction = 0.1
	}
	if p.MPParts < 2 {
		p.MPParts = 2
	}
	return p
}

// nativeDraws bounds a native durableRun by work: the first worker to
// draw this many transactions interrupts the run. Its length then does
// not depend on how fast commits are acknowledged, and 4 workers stay
// well inside recoveryParams' 512 inserts per worker.
const nativeDraws = 300

// drawLimited interrupts db once any worker has drawn nativeDraws
// transactions.
type drawLimited struct {
	abyss.Workload
	db    *abyss.DB
	drawn []int // by Proc.ID; each worker touches only its own
}

func (d *drawLimited) Next(p abyss.Proc) abyss.Txn {
	if d.drawn[p.ID()]++; d.drawn[p.ID()] == nativeDraws {
		d.db.Interrupt()
	}
	return d.Workload.Next(p)
}

// durableRun executes one captured measurement of workload built from p
// with a WAL attached (async group commit on the native runtime,
// accounting-only sync mode on the simulator), flushes the log and
// returns the live DB plus the captured stream. DB.History holds the
// run's committed transactions.
func durableRun(t *testing.T, workload, runtime, scheme string, p abyss.WorkloadParams) (*abyss.DB, []byte, abyss.Result) {
	t.Helper()
	const cores = 4
	sink := abyss.NewMemLogSink()
	db, err := abyss.Open(abyss.Options{
		Runtime:    runtime,
		Cores:      cores,
		Seed:       42,
		Durability: &abyss.Durability{Sink: sink, Async: runtime == abyss.RuntimeNative},
	})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := db.BuildWorkload(workload, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := abyss.NewScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	rc := abyss.RunConfig{WarmupCycles: 20_000, MeasureCycles: 150_000, AbortBackoff: 500, Check: true}
	if runtime == abyss.RuntimeNative {
		// Bounded by nativeDraws; the window (ns) is only a backstop, and
		// there is no warm-up, so an early interrupt still counts commits.
		rc = abyss.RunConfig{MeasureCycles: 10_000_000, AbortBackoff: 500, Check: true}
		if workload == "tpcc" {
			// Full-mix transactions are ~50x a YCSB one under the race
			// detector; give the window room to commit some.
			rc.MeasureCycles = 40_000_000
		}
		wl = &drawLimited{Workload: wl, db: db, drawn: make([]int, cores)}
	}
	res, err := db.Run(s, wl, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatalf("%s/%s/%s committed nothing", workload, runtime, scheme)
	}
	if err := db.FlushLog(); err != nil {
		t.Fatal(err)
	}
	return db, sink.Bytes(), res
}

// recoverFresh replays stream onto a freshly built copy of workload's
// catalog and returns the recovered DB and replay info.
func recoverFresh(t *testing.T, workload, scheme string, stream []byte) (*abyss.DB, abyss.RecoverInfo) {
	t.Helper()
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeSim, Cores: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildWorkload(workload, recoveryParams(t, workload, scheme)); err != nil {
		t.Fatal(err)
	}
	info, err := db.Recover(stream)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return db, info
}

// cutPoints enumerates crash offsets for a stream: for every record,
// the frame start (a clean boundary), one byte past it, the frame
// midpoint and the last byte before the frame ends — all torn tails —
// plus the stream end. Record extents come from the WAL scanner itself.
func cutPoints(t *testing.T, stream []byte) []int {
	t.Helper()
	recs, info, err := wal.Scan(stream)
	if err != nil {
		t.Fatal(err)
	}
	if info.Complete != int64(len(stream)) || info.TornBytes != 0 {
		t.Fatalf("full stream should scan clean: %+v", info)
	}
	if len(recs) == 0 {
		t.Fatal("stream has no records")
	}
	var cuts []int
	for _, r := range recs {
		mid := r.Off + (r.End-r.Off)/2
		cuts = append(cuts, int(r.Off), int(r.Off)+1, int(mid), int(r.End)-1)
	}
	cuts = append(cuts, len(stream))
	return cuts
}

// subtestName keeps the YCSB rows' historical names (runtime/scheme) and
// prefixes every other workload's rows with the workload.
func subtestName(workload string, parts ...string) string {
	if workload != "ycsb" {
		parts = append([]string{workload}, parts...)
	}
	return strings.Join(parts, "/")
}

// TestCrashRecoveryAllSchemes is the tier's headline property: on every
// paper scheme and both runtimes, replaying the full log onto a fresh
// copy of the catalog reproduces the live DB's committed state exactly —
// for an update-only log (YCSB) and for one that inserts through hash
// and ordered indexes (full-mix TPC-C).
func TestCrashRecoveryAllSchemes(t *testing.T) {
	for _, workload := range recoveryWorkloads {
		for _, runtime := range []string{abyss.RuntimeSim, abyss.RuntimeNative} {
			for _, scheme := range abyss.PaperSchemes() {
				t.Run(subtestName(workload, runtime, scheme), func(t *testing.T) {
					live, stream, res := durableRun(t, workload, runtime, scheme, recoveryParams(t, workload, scheme))
					rec, info := recoverFresh(t, workload, scheme, stream)
					if info.TornBytes != 0 {
						t.Fatalf("flushed stream should have no torn tail: %+v", info)
					}
					// Exactly the committed transactions that wrote are
					// logged, warm-up included: read-only ones (YCSB's
					// all-read draws, OrderStatus, StockLevel) and user
					// aborts log nothing. The full mix's log must also carry
					// inserts.
					writers := 0
					for _, q := range capturedWriters(t, live) {
						writers += len(q)
					}
					if info.Commits != writers {
						t.Fatalf("log has %d commits, the captured history %d transactions that wrote", info.Commits, writers)
					}
					if workload == "tpcc" && info.Inserts == 0 {
						t.Fatal("full-mix TPC-C log replayed no inserts")
					}
					if rec.StateDump() != live.StateDump() {
						t.Fatalf("recovered state diverges from live committed state (%d commits)", res.Commits)
					}
				})
			}
		}
	}
}

// TestRecoveryTruncationSweep tears the stream at every enumerated cut
// point — frame boundaries and mid-frame torn tails — and checks the
// prefix property: recovery of a torn stream equals recovery of its
// longest complete prefix, never fails, and commit counts grow
// monotonically with the cut.
func TestRecoveryTruncationSweep(t *testing.T) {
	const scheme = "NO_WAIT"
	for _, workload := range recoveryWorkloads {
		t.Run(workload, func(t *testing.T) {
			_, stream, _ := durableRun(t, workload, abyss.RuntimeSim, scheme, recoveryParams(t, workload, scheme))
			// The prefix dump at each complete boundary, computed once per
			// boundary: torn cuts must reduce to one of these.
			prefixDump := map[int]string{}
			dumpAt := func(boundary int) string {
				if d, ok := prefixDump[boundary]; ok {
					return d
				}
				db, info := recoverFresh(t, workload, scheme, stream[:boundary])
				if info.TornBytes != 0 {
					t.Fatalf("cut %d claimed to be a boundary but has %d torn bytes", boundary, info.TornBytes)
				}
				d := db.StateDump()
				prefixDump[boundary] = d
				return d
			}
			cuts := cutPoints(t, stream)
			// The full sweep recovers at every enumerated offset; the race-
			// detector CI smoke keeps a strided sample plus both ends, and
			// so does TPC-C, whose catalog is ~50x YCSB's to rebuild and
			// dump per cut. The stride is odd so the sample cycles through
			// all four cut kinds (frame start, +1, midpoint, last byte).
			if keep := 64; (testing.Short() || workload == "tpcc") && len(cuts) > keep {
				stride := (len(cuts)/keep + 1) | 1
				sampled := cuts[:0]
				for i, c := range cuts {
					if i%stride == 0 || i >= len(cuts)-2 {
						sampled = append(sampled, c)
					}
				}
				cuts = sampled
			}
			lastCommits := uint64(0)
			for _, cut := range cuts {
				db, info := recoverFresh(t, workload, scheme, stream[:cut])
				if got := cut - int(info.TornBytes); got < 0 || got > cut {
					t.Fatalf("cut %d: implausible torn-byte count %d", cut, info.TornBytes)
				}
				boundary := cut - int(info.TornBytes)
				if db.StateDump() != dumpAt(boundary) {
					t.Fatalf("cut %d: torn recovery differs from its complete prefix at %d", cut, boundary)
				}
				if uint64(info.Commits) < lastCommits {
					t.Fatalf("cut %d: commits went backwards (%d < %d)", cut, info.Commits, lastCommits)
				}
				lastCommits = uint64(info.Commits)
			}
		})
	}
}

// smallBankRun executes a transfer-only SmallBank mix (money is
// invariant) with a WAL, returning the stream and its config.
func smallBankRun(t *testing.T, scheme string, sink abyss.LogSink) (*abyss.DB, smallbank.Config, abyss.Result) {
	t.Helper()
	cfg := smallbank.DefaultConfig()
	cfg.Accounts = 1024
	cfg.HotAccounts = 16
	cfg.HotPct = 0.9
	cfg.Weights = [6]float64{20, 0, 0, 40, 0, 40} // Balance/Amalgamate/SendPayment only
	db, err := abyss.Open(abyss.Options{
		Runtime:    abyss.RuntimeSim,
		Cores:      8,
		Seed:       11,
		Durability: &abyss.Durability{Sink: sink},
	})
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
	res, err := db.Run(s, wl, abyss.RunConfig{WarmupCycles: 30_000, MeasureCycles: 200_000, AbortBackoff: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatalf("%s committed nothing", scheme)
	}
	return db, cfg, res
}

// recoveredTotal replays stream onto a fresh SmallBank catalog and sums
// every recovered balance.
func recoveredTotal(t *testing.T, cfg smallbank.Config, stream []byte) (int64, abyss.RecoverInfo) {
	t.Helper()
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeSim, Cores: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := smallbank.Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	info, err := db.Recover(stream)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	var total int64
	for _, tb := range []*abyss.Table{wl.Savings(), wl.Checking()} {
		for slot := 0; slot < cfg.Accounts; slot++ {
			total += tb.Schema.GetI64(tb.Row(slot), 1)
		}
	}
	return total, info
}

// TestSmallBankConservationUnderCrash cuts the log of a transfer-only
// SmallBank run at frame boundaries and inside frames, on every paper
// scheme, and checks that every recovered prefix still conserves money:
// a crash can lose the tail of history but can never recover a state
// where a transfer half-happened.
func TestSmallBankConservationUnderCrash(t *testing.T) {
	for _, scheme := range abyss.PaperSchemes() {
		t.Run(scheme, func(t *testing.T) {
			sink := abyss.NewMemLogSink()
			db, cfg, _ := smallBankRun(t, scheme, sink)
			if err := db.FlushLog(); err != nil {
				t.Fatal(err)
			}
			stream := sink.Bytes()
			cuts := cutPoints(t, stream)
			// The full sweep is quadratic in stream size across seven
			// schemes; a strided sample plus the endpoints keeps the
			// test fast while still hitting boundaries and torn tails.
			if len(cuts) > 40 {
				sampled := cuts[:0]
				for i, c := range cuts {
					if i%(len(cuts)/40+1) == 0 || i >= len(cuts)-2 {
						sampled = append(sampled, c)
					}
				}
				cuts = sampled
			}
			want := smallbank.InitialTotal(cfg.Accounts)
			for _, cut := range cuts {
				got, info := recoveredTotal(t, cfg, stream[:cut])
				if got != want {
					t.Fatalf("cut %d (%d commits recovered): money not conserved: %d != %d (diff %d cents)",
						cut, info.Commits, got, want, got-want)
				}
			}
		})
	}
}

// TestLiveCrashInjection runs with a FaultLogSink that tears the stream
// mid-run — the disk dies while transactions are still committing. The
// run itself must complete (commits proceed in memory), the log must
// report the injected error, and recovery of the torn stream must
// restore the durable prefix with no more commits than the live run.
func TestLiveCrashInjection(t *testing.T) {
	for _, runtime := range []string{abyss.RuntimeSim, abyss.RuntimeNative} {
		t.Run(runtime, func(t *testing.T) {
			mem := abyss.NewMemLogSink()
			sink := abyss.NewFaultLogSink(mem, 20_000)
			db, err := abyss.Open(abyss.Options{
				Runtime:    runtime,
				Cores:      4,
				Seed:       42,
				Durability: &abyss.Durability{Sink: sink, Async: runtime == abyss.RuntimeNative},
			})
			if err != nil {
				t.Fatal(err)
			}
			wl, err := db.BuildWorkload("ycsb", recoveryParams(t, "ycsb", "NO_WAIT"))
			if err != nil {
				t.Fatal(err)
			}
			s, err := abyss.NewScheme("NO_WAIT")
			if err != nil {
				t.Fatal(err)
			}
			rc := abyss.RunConfig{WarmupCycles: 20_000, MeasureCycles: 150_000, AbortBackoff: 500}
			if runtime == abyss.RuntimeNative {
				rc = abyss.RunConfig{WarmupCycles: 1_000_000, MeasureCycles: 10_000_000, AbortBackoff: 500}
			}
			res, err := db.Run(s, wl, rc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits == 0 {
				t.Fatal("live run should keep committing after the log dies")
			}
			if !sink.Failed() {
				t.Fatal("fault point never fired: stream too short for the offset")
			}
			if !errors.Is(db.LogErr(), abyss.ErrLogInjected) {
				t.Fatalf("LogErr = %v, want ErrLogInjected", db.LogErr())
			}
			if got := len(mem.Bytes()); got > 8+20_000 {
				t.Fatalf("fault sink let %d bytes through past the %d-byte fault point", got, 20_000)
			}
			_, info := recoverFresh(t, "ycsb", "NO_WAIT", mem.Bytes())
			if info.Commits == 0 {
				t.Fatal("nothing recovered from the durable prefix before the fault point")
			}
		})
	}
}

// TestRecoveryIdempotence pins the replay-twice, empty-log and
// checkpoint-only cases: recovery is a pure function of (catalog,
// stream) and applying it again changes nothing.
func TestRecoveryIdempotence(t *testing.T) {
	replayTwice := func(t *testing.T, workload, scheme string) {
		live, stream, _ := durableRun(t, workload, abyss.RuntimeSim, scheme, recoveryParams(t, workload, scheme))
		rec, _ := recoverFresh(t, workload, scheme, stream)
		first := rec.StateDump()
		if _, err := rec.Recover(stream); err != nil {
			t.Fatalf("second recover: %v", err)
		}
		if rec.StateDump() != first {
			t.Fatal("second replay of the same stream changed the state")
		}
		if first != live.StateDump() {
			t.Fatal("recovered state diverges from live state")
		}
	}
	t.Run("replay-twice", func(t *testing.T) {
		replayTwice(t, "ycsb", "TIMESTAMP")
	})
	// Insert replay is where idempotence is not free: the second pass must
	// find every key already published — in the hash and in the ordered
	// index — and overwrite in place instead of allocating again.
	t.Run("replay-twice-tpcc", func(t *testing.T) {
		for _, scheme := range abyss.PaperSchemes() {
			t.Run(scheme, func(t *testing.T) {
				replayTwice(t, "tpcc", scheme)
			})
		}
	})
	t.Run("empty-log", func(t *testing.T) {
		stream := abyss.NewMemLogSink().Bytes() // magic only
		rec, info := recoverFresh(t, "ycsb", "NO_WAIT", stream)
		if info.Records != 0 || info.Commits != 0 {
			t.Fatalf("empty log replayed something: %+v", info)
		}
		pristine, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeSim, Cores: 4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pristine.BuildWorkload("ycsb", recoveryParams(t, "ycsb", "NO_WAIT")); err != nil {
			t.Fatal(err)
		}
		if rec.StateDump() != pristine.StateDump() {
			t.Fatal("recovering an empty log perturbed the freshly built state")
		}
	})
	t.Run("checkpoint-only", func(t *testing.T) {
		sink := abyss.NewMemLogSink()
		db, err := abyss.Open(abyss.Options{
			Runtime: abyss.RuntimeSim, Cores: 4, Seed: 42,
			Durability: &abyss.Durability{Sink: sink},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.BuildWorkload("ycsb", recoveryParams(t, "ycsb", "NO_WAIT")); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		rec, info := recoverFresh(t, "ycsb", "NO_WAIT", sink.Bytes())
		if info.Checkpoint == 0 {
			t.Fatalf("recovery did not use the checkpoint: %+v", info)
		}
		if rec.StateDump() != db.StateDump() {
			t.Fatal("checkpoint-only recovery diverges from the checkpointed DB")
		}
	})
}

// TestCheckpointedRecovery runs, checkpoints, and recovers from a stream
// whose replay region is empty (everything is in the checkpoint): the
// recovered state must still equal the live state, including for MVCC,
// whose committed images live in version chains rather than the slab.
// The TPC-C rows checkpoint runtime-inserted rows, allocation cursors and
// both kinds of index entries, on every paper scheme, and recover a
// second time over the restored state (checkpoint-then-replay).
func TestCheckpointedRecovery(t *testing.T) {
	type row struct{ workload, scheme string }
	rows := []row{{"ycsb", "NO_WAIT"}, {"ycsb", "MVCC"}, {"ycsb", "TIMESTAMP"}}
	for _, scheme := range abyss.PaperSchemes() {
		rows = append(rows, row{"tpcc", scheme})
	}
	for _, row := range rows {
		workload, scheme := row.workload, row.scheme
		t.Run(subtestName(workload, scheme), func(t *testing.T) {
			sink := abyss.NewMemLogSink()
			db, err := abyss.Open(abyss.Options{
				Runtime: abyss.RuntimeSim, Cores: 4, Seed: 42,
				Durability: &abyss.Durability{Sink: sink},
			})
			if err != nil {
				t.Fatal(err)
			}
			wl, err := db.BuildWorkload(workload, recoveryParams(t, workload, scheme))
			if err != nil {
				t.Fatal(err)
			}
			s, err := abyss.NewScheme(scheme)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Run(s, wl, abyss.RunConfig{WarmupCycles: 20_000, MeasureCycles: 150_000, AbortBackoff: 500}); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			rec, info := recoverFresh(t, workload, scheme, sink.Bytes())
			if info.Checkpoint == 0 {
				t.Fatalf("recovery ignored the checkpoint: %+v", info)
			}
			if info.Commits != 0 {
				t.Fatalf("post-checkpoint replay region should be empty, applied %d commits", info.Commits)
			}
			live := db.StateDump()
			if rec.StateDump() != live {
				t.Fatal("checkpointed recovery diverges from live committed state")
			}
			if _, err := rec.Recover(sink.Bytes()); err != nil {
				t.Fatalf("second recover: %v", err)
			}
			if rec.StateDump() != live {
				t.Fatal("restoring the checkpoint a second time changed the state")
			}
		})
	}
}
