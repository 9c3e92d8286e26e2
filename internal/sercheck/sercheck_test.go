package sercheck

import (
	"strings"
	"testing"
)

// img returns an 8-byte row image distinguishable by its first byte.
func img(b byte) []byte { return []byte{b, 0, 0, 0, 0, 0, 0, 0} }

// tbl builds a one-table history scaffold with the given initial and
// final slot images.
func tbl(init, final map[int][]byte) Table {
	return Table{ID: 0, Name: "T", RowSize: 8, Init: init, Final: final}
}

// edgeSig normalizes a cycle into a set of "from>to:kind" strings so
// tests can assert the cycle's shape regardless of rotation.
func edgeSig(t *testing.T, cycle []Edge) map[string]bool {
	t.Helper()
	if len(cycle) == 0 {
		t.Fatal("expected a cycle counterexample, got none")
	}
	// The cycle must actually close: each edge's To is the next's From.
	for i, e := range cycle {
		next := cycle[(i+1)%len(cycle)]
		if e.To != next.From {
			t.Fatalf("cycle does not close at edge %d: %v then %v", i, e, next)
		}
	}
	sig := make(map[string]bool, len(cycle))
	for _, e := range cycle {
		sig[edgeKey(e.From, e.To, e.Kind)] = true
	}
	return sig
}

func edgeKey(from, to int, kind EdgeKind) string {
	return strings.Join([]string{tname(from), ">", tname(to), ":", kind.String()}, "")
}

func tname(id int) string {
	return string(rune('0' + id))
}

func wantEdges(t *testing.T, cycle []Edge, want ...string) {
	t.Helper()
	sig := edgeSig(t, cycle)
	if len(sig) != len(want) {
		t.Fatalf("cycle has %d distinct edges, want %d: %v", len(sig), len(want), cycle)
	}
	for _, w := range want {
		if !sig[w] {
			t.Fatalf("cycle missing edge %s: got %v", w, cycle)
		}
	}
}

// Lost update: T1 and T2 both read the initial counter and both write
// an incremented image; one increment is lost. The capture layer
// records the read-modify-write's read, so the checker must see
// RW(T2->T1) against WW(T1->T2) — a two-cycle.
func TestLostUpdate(t *testing.T) {
	h := &History{
		Tables: []Table{tbl(
			map[int][]byte{0: img(0)},
			map[int][]byte{0: img(2)},
		)},
		Txns: []Txn{
			{ID: 1,
				Reads:  []Access{{Table: 0, Slot: 0, Ver: 0}},
				Writes: []Write{{Table: 0, Slot: 0, Ver: 1, Image: img(1)}}},
			{ID: 2,
				Reads:  []Access{{Table: 0, Slot: 0, Ver: 0}},
				Writes: []Write{{Table: 0, Slot: 0, Ver: 2, Image: img(2)}}},
		},
	}
	r := Check(h)
	if r.OK() {
		t.Fatalf("lost update accepted: %s", r)
	}
	if r.Serializable {
		t.Fatalf("lost update graph reported acyclic: %s", r)
	}
	wantEdges(t, r.Cycle, "1>2:WW", "2>1:RW")
}

// Write skew: T1 reads x,y and writes y; T2 reads x,y and writes x.
// Each overwrites what the other read: two RW edges forming a cycle,
// with no WW or WR dependency at all.
func TestWriteSkew(t *testing.T) {
	h := &History{
		Tables: []Table{tbl(
			map[int][]byte{0: img(10), 1: img(10)},
			map[int][]byte{0: img(3), 1: img(3)},
		)},
		Txns: []Txn{
			{ID: 1,
				Reads:  []Access{{Slot: 0, Ver: 0}, {Slot: 1, Ver: 0}},
				Writes: []Write{{Slot: 1, Ver: 1, Image: img(3)}}},
			{ID: 2,
				Reads:  []Access{{Slot: 0, Ver: 0}, {Slot: 1, Ver: 0}},
				Writes: []Write{{Slot: 0, Ver: 1, Image: img(3)}}},
		},
	}
	r := Check(h)
	if r.Serializable {
		t.Fatalf("write skew accepted: %s", r)
	}
	wantEdges(t, r.Cycle, "1>2:RW", "2>1:RW")
}

// Fractured read: T1 writes x and y atomically; T2 reads T1's x but
// the initial y. WR(T1->T2) on x plus RW(T2->T1) on y.
func TestFracturedRead(t *testing.T) {
	h := &History{
		Tables: []Table{tbl(
			map[int][]byte{0: img(0), 1: img(0)},
			map[int][]byte{0: img(5), 1: img(5)},
		)},
		Txns: []Txn{
			{ID: 1,
				Writes: []Write{
					{Slot: 0, Ver: 1, Image: img(5)},
					{Slot: 1, Ver: 1, Image: img(5)},
				}},
			{ID: 2,
				Reads: []Access{
					{Slot: 0, Ver: 1}, // T1's write
					{Slot: 1, Ver: 0}, // the initial row
				}},
		},
	}
	r := Check(h)
	if r.Serializable {
		t.Fatalf("fractured read accepted: %s", r)
	}
	wantEdges(t, r.Cycle, "1>2:WR", "2>1:RW")
}

// G1c (circular information flow): T1 reads T2's write and T2 reads
// T1's write — a pure WR/WR cycle.
func TestG1cCycle(t *testing.T) {
	h := &History{
		Tables: []Table{tbl(
			map[int][]byte{0: img(0), 1: img(0)},
			map[int][]byte{0: img(1), 1: img(2)},
		)},
		Txns: []Txn{
			{ID: 1,
				Reads:  []Access{{Slot: 1, Ver: 1}}, // T2's write
				Writes: []Write{{Slot: 0, Ver: 1, Image: img(1)}}},
			{ID: 2,
				Reads:  []Access{{Slot: 0, Ver: 1}}, // T1's write
				Writes: []Write{{Slot: 1, Ver: 1, Image: img(2)}}},
		},
	}
	r := Check(h)
	if r.Serializable {
		t.Fatalf("G1c accepted: %s", r)
	}
	wantEdges(t, r.Cycle, "1>2:WR", "2>1:WR")
}

// Dirty read: a version no committed transaction produced (an aborted
// writer's install leaked to a reader).
func TestDirtyRead(t *testing.T) {
	h := &History{
		Tables: []Table{tbl(map[int][]byte{0: img(0)}, map[int][]byte{0: img(0)})},
		Txns: []Txn{
			{ID: 1, Reads: []Access{{Slot: 0, Ver: 7}}},
		},
	}
	r := Check(h)
	if r.OK() {
		t.Fatalf("dirty read accepted: %s", r)
	}
	if len(r.Anomalies) == 0 || !strings.Contains(r.Anomalies[0], "no committed transaction") {
		t.Fatalf("expected dirty-read anomaly, got %v", r.Anomalies)
	}
}

// Duplicate version install: two committed writers claiming the same
// slot version means the capture invariant itself was violated.
func TestDuplicateVersion(t *testing.T) {
	h := &History{
		Tables: []Table{tbl(map[int][]byte{0: img(0)}, map[int][]byte{0: img(1)})},
		Txns: []Txn{
			{ID: 1, Writes: []Write{{Slot: 0, Ver: 1, Image: img(1)}}},
			{ID: 2, Writes: []Write{{Slot: 0, Ver: 1, Image: img(2)}}},
		},
	}
	r := Check(h)
	if r.OK() {
		t.Fatalf("duplicate version accepted: %s", r)
	}
	if len(r.Anomalies) == 0 || !strings.Contains(r.Anomalies[0], "both installed") {
		t.Fatalf("expected duplicate-version anomaly, got %v", r.Anomalies)
	}
}

// A clean serial-equivalent history: acyclic graph, deterministic
// witness order, and the oracle's replay matching the final state.
func TestSerializableChain(t *testing.T) {
	h := &History{
		Tables: []Table{tbl(
			map[int][]byte{0: img(0)},
			map[int][]byte{0: img(2)},
		)},
		Txns: []Txn{
			{ID: 2,
				Reads:  []Access{{Slot: 0, Ver: 1}},
				Writes: []Write{{Slot: 0, Ver: 2, Image: img(2)}}},
			{ID: 1,
				Reads:  []Access{{Slot: 0, Ver: 0}},
				Writes: []Write{{Slot: 0, Ver: 1, Image: img(1)}}},
		},
	}
	r := Check(h)
	if !r.OK() {
		t.Fatalf("serializable chain rejected: %s", r)
	}
	if len(r.Order) != 2 || r.Order[0] != 1 || r.Order[1] != 2 {
		t.Fatalf("expected witness order [1 2], got %v", r.Order)
	}
	// WR(1->2) and WW(1->2) dedup to a single edge; T1's read of v0 and
	// T2's read of v1 would each point RW at their own writer (skipped).
	if r.Edges != 1 {
		t.Fatalf("expected 1 edge after dedup, got %d", r.Edges)
	}
}

// Oracle catches wrong bytes even when the graph is acyclic: the
// engine's final state disagrees with the replay.
func TestFinalStateMismatch(t *testing.T) {
	h := &History{
		Tables: []Table{tbl(
			map[int][]byte{0: img(0)},
			map[int][]byte{0: img(9)}, // engine claims 9; replay yields 1
		)},
		Txns: []Txn{
			{ID: 1, Writes: []Write{{Slot: 0, Ver: 1, Image: img(1)}}},
		},
	}
	r := Check(h)
	if !r.Serializable {
		t.Fatalf("acyclic history reported cyclic: %s", r)
	}
	if r.FinalStateOK || r.OK() {
		t.Fatalf("final-state mismatch accepted: %s", r)
	}
	if len(r.FinalDiffs) == 0 {
		t.Fatal("expected final-state diffs")
	}
}

// Inserted slots: a write to a slot with no initial image lands in the
// oracle's state and must match the engine's final dump.
func TestInsertedSlot(t *testing.T) {
	h := &History{
		Tables: []Table{tbl(
			map[int][]byte{0: img(0)},
			map[int][]byte{0: img(0), 5: img(7)},
		)},
		Txns: []Txn{
			{ID: 1, Writes: []Write{{Slot: 5, Ver: 1, Image: img(7)}}},
			{ID: 2, Reads: []Access{{Slot: 5, Ver: 1}}},
		},
	}
	r := Check(h)
	if !r.OK() {
		t.Fatalf("insert history rejected: %s", r)
	}
}

// Reading version 0 of a slot that was never loaded is impossible in a
// correct engine: the row did not exist yet.
func TestReadOfUnloadedSlot(t *testing.T) {
	h := &History{
		Tables: []Table{tbl(map[int][]byte{}, map[int][]byte{5: img(1)})},
		Txns: []Txn{
			{ID: 1, Writes: []Write{{Slot: 5, Ver: 1, Image: img(1)}}},
			{ID: 2, Reads: []Access{{Slot: 5, Ver: 0}}},
		},
	}
	r := Check(h)
	if r.OK() {
		t.Fatalf("read of unloaded slot accepted: %s", r)
	}
	if len(r.Anomalies) == 0 || !strings.Contains(r.Anomalies[0], "no initial row") {
		t.Fatalf("expected unloaded-slot anomaly, got %v", r.Anomalies)
	}
}

// A longer cycle through three transactions must come back minimal
// even when a larger SCC-free tail hangs off it.
func TestMinimalCycleAmongThree(t *testing.T) {
	h := &History{
		Tables: []Table{tbl(
			map[int][]byte{0: img(0), 1: img(0), 2: img(0)},
			map[int][]byte{0: img(1), 1: img(1), 2: img(1)},
		)},
		Txns: []Txn{
			// T1 -RW-> T2 -RW-> T3 -RW-> T1: each reads the initial
			// version of the slot the next one writes.
			{ID: 1,
				Reads:  []Access{{Slot: 0, Ver: 0}},
				Writes: []Write{{Slot: 2, Ver: 1, Image: img(1)}}},
			{ID: 2,
				Reads:  []Access{{Slot: 1, Ver: 0}},
				Writes: []Write{{Slot: 0, Ver: 1, Image: img(1)}}},
			{ID: 3,
				Reads:  []Access{{Slot: 2, Ver: 0}},
				Writes: []Write{{Slot: 1, Ver: 1, Image: img(1)}}},
			// T4 just reads a committed version: downstream, not cyclic.
			{ID: 4, Reads: []Access{{Slot: 0, Ver: 1}}},
		},
	}
	r := Check(h)
	if r.Serializable {
		t.Fatalf("three-cycle accepted: %s", r)
	}
	if len(r.Cycle) != 3 {
		t.Fatalf("expected a 3-edge cycle, got %d: %v", len(r.Cycle), r.Cycle)
	}
	wantEdges(t, r.Cycle, "1>2:RW", "2>3:RW", "3>1:RW")
}

// Timestamp order: T1 (ts 3) reads the version T2 (ts 5) wrote. The graph
// is one WR edge and the final state replays, so the history is
// serializable, but not in timestamp order: a timestamp-ordered scheme
// must never let an older transaction see a younger one's write.
func TestTimestampOrder(t *testing.T) {
	h := &History{
		Tables: []Table{tbl(
			map[int][]byte{0: img(0)},
			map[int][]byte{0: img(5)},
		)},
		Txns: []Txn{
			{ID: 1, TS: 3, Reads: []Access{{Slot: 0, Ver: 5}}},
			{ID: 2, TS: 5, Writes: []Write{{Slot: 0, Ver: 5, Image: img(5)}}},
		},
	}
	if r := Check(h); !r.OK() {
		t.Fatalf("history rejected without TSOrdered: %s", r)
	}
	h.TSOrdered = true
	r := Check(h)
	if r.OK() || !r.Serializable || !r.FinalStateOK {
		t.Fatalf("want an acyclic, final-state-OK history with an anomaly, got: %s", r)
	}
	if len(r.Anomalies) != 1 || !strings.Contains(r.Anomalies[0], "T2 (ts 5)") || !strings.Contains(r.Anomalies[0], "T1 (ts 3)") {
		t.Fatalf("expected one timestamp-order anomaly naming T2 and T1, got %v", r.Anomalies)
	}
}

// Empty history is trivially serializable with a matching final state.
func TestEmptyHistory(t *testing.T) {
	h := &History{
		Tables: []Table{tbl(map[int][]byte{0: img(4)}, map[int][]byte{0: img(4)})},
	}
	if r := Check(h); !r.OK() {
		t.Fatalf("empty history rejected: %s", r)
	}
}
