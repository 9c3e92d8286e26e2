package abyss

import (
	"fmt"

	"abyss1000/internal/core"
	"abyss1000/internal/sercheck"
)

// Serializability conformance surface. Setting RunConfig.Check makes the
// run record every committed transaction's read and write versions
// (accounting-only, like sampling and the WAL: the Result — and on the
// simulated runtime every simulated outcome — is byte-identical with it
// on or off). After the run, History returns the captured history and
// CheckSerializability builds the direct serialization graph over it:
// WR edges from read-version provenance, WW edges from per-slot version
// order, RW anti-dependencies inferred from the two. The history is
// serializable iff the graph is acyclic; the report then also replays
// the witness order through a single-threaded oracle and compares the
// oracle's final state against the engine's. On failure the report
// carries a minimal cycle, the anomaly list, or the first mismatching
// slots — a concrete counterexample, not just a boolean.

type (
	// History is one run's captured transaction history: table snapshots
	// (initial and final images) plus every committed transaction's
	// reads and writes, in checker form. Obtained from DB.History after
	// a RunConfig.Check run, or hand-built for checker tests.
	History = sercheck.History

	// HistoryTable is one table's snapshot within a History.
	HistoryTable = sercheck.Table

	// HistoryTxn is one committed transaction within a History.
	HistoryTxn = sercheck.Txn

	// HistoryAccess is one read: the (table, slot) version observed.
	HistoryAccess = sercheck.Access

	// HistoryWrite is one write: the version installed and its row image.
	HistoryWrite = sercheck.Write

	// CheckReport is the serializability verdict for a History: the
	// acyclicity result with a minimal counterexample cycle, detected
	// anomalies, the witness serial order, and the oracle's final-state
	// comparison. CheckReport.OK reports overall success.
	CheckReport = sercheck.Report

	// CheckEdge is one dependency edge in a CheckReport's cycle.
	CheckEdge = sercheck.Edge

	// CheckEdgeKind classifies a CheckEdge: EdgeWR, EdgeWW or EdgeRW.
	CheckEdgeKind = sercheck.EdgeKind
)

// The dependency-edge kinds of the direct serialization graph.
const (
	// EdgeWR is a read dependency: the target read a version the source
	// wrote.
	EdgeWR = sercheck.WR

	// EdgeWW is a write dependency: the target overwrote a version the
	// source wrote.
	EdgeWW = sercheck.WW

	// EdgeRW is an anti-dependency: the target overwrote a version the
	// source read.
	EdgeRW = sercheck.RW
)

// Verify checks a History for serializability and final-state
// equivalence. DB.CheckSerializability composes DB.History with Verify;
// calling Verify directly suits hand-constructed histories (negative
// tests of the checker itself) or histories carried across processes.
func Verify(h *History) *CheckReport {
	return sercheck.Check(h)
}

// History returns the transaction history captured by this DB's Run.
// It requires a completed run with RunConfig.Check set.
func (db *DB) History() (*History, error) {
	if db.inner.Cap == nil {
		return nil, fmt.Errorf("abyss: no captured history: set RunConfig.Check on the run")
	}
	return core.BuildHistory(db.inner, db.lastScheme), nil
}

// CheckSerializability verifies the history captured by this DB's Run
// (which must have set RunConfig.Check): it returns the checker's
// report, whose OK method is the pass/fail verdict. Call it after Run
// (or a serving Session's Drain) returns, on a quiescent database.
func (db *DB) CheckSerializability() (*CheckReport, error) {
	h, err := db.History()
	if err != nil {
		return nil, err
	}
	return Verify(h), nil
}
