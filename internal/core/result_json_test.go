package core_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"abyss1000/internal/core"
	"abyss1000/internal/stats"
)

// TestResultJSONRoundTrip pins the stable serialization of Result: every
// field — including the six-component breakdown, the abort causes, the
// latency histogram and the per-transaction-type sub-results — survives a
// marshal/unmarshal cycle unchanged.
func TestResultJSONRoundTrip(t *testing.T) {
	var bd stats.Breakdown
	for c := stats.Component(0); c < stats.NumComponents; c++ {
		bd.Add(c, uint64(100*(int(c)+1)))
	}
	var lat stats.Histogram
	for _, v := range []uint64{100, 900, 900, 4000, 1 << 20} {
		lat.Record(v)
	}
	var payLat stats.Histogram
	payLat.Record(100)
	payLat.Record(900)
	var qd stats.Histogram
	for _, v := range []uint64{0, 1, 3, 7, 15} {
		qd.Record(v)
	}
	orig := core.Result{
		Scheme:        "MVCC",
		Workers:       64,
		Commits:       123456,
		Aborts:        789,
		AbortCauses:   core.AbortCauses{core.CauseDeadlock: 500, core.CauseLockTimeout: 289},
		Tuples:        1975296,
		Offered:       130000,
		Shed:          5000,
		Deadlined:     755,
		MeasureCycles: 800_000,
		Frequency:     1e9,
		Breakdown:     bd,
		Latency:       lat,
		QueueDepth:    qd,
		PerTxn: []core.TxnStats{
			{Name: "Payment", Commits: 61728, Aborts: 400, Latency: payLat,
				AbortCauses: core.AbortCauses{core.CauseDeadlock: 400}},
			{Name: "NewOrder", Commits: 61728, Aborts: 389,
				AbortCauses: core.AbortCauses{core.CauseDeadlock: 100, core.CauseLockTimeout: 289}},
		},
	}

	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back core.Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, orig) {
		t.Fatalf("round trip changed the result:\norig %+v\nback %+v", orig, back)
	}
	if back.Throughput() != orig.Throughput() || back.AbortFraction() != orig.AbortFraction() {
		t.Fatal("derived metrics changed across round trip")
	}
	if back.Latency.P99() != orig.Latency.P99() || back.Latency.Max() != orig.Latency.Max() {
		t.Fatal("latency percentiles changed across round trip")
	}
	if back.OfferedTPS() != orig.OfferedTPS() || back.GoodputTPS() != orig.GoodputTPS() ||
		back.ShedFraction() != orig.ShedFraction() || back.QueueDepth.Max() != orig.QueueDepth.Max() {
		t.Fatal("overload metrics changed across round trip")
	}
}

// TestResultJSONStableKeys pins the wire format's field names — external
// consumers (CI artifacts, plotting scripts) parse these.
func TestResultJSONStableKeys(t *testing.T) {
	b, err := json.Marshal(core.Result{
		PerTxn: []core.TxnStats{{Name: "Payment"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"scheme"`, `"workers"`, `"commits"`, `"aborts"`, `"tuples"`,
		`"measure_cycles"`, `"frequency_hz"`, `"breakdown"`,
		`"useful"`, `"abort"`, `"ts_alloc"`, `"index"`, `"wait"`, `"manager"`,
		`"latency"`, `"per_txn"`, `"name"`, `"count"`, `"sum"`, `"max"`, `"buckets"`,
		`"offered"`, `"shed"`, `"deadlined"`, `"queue_depth"`, `"abort_causes"`,
	} {
		if !strings.Contains(string(b), key) {
			t.Errorf("Result JSON missing key %s: %s", key, b)
		}
	}

	// Abort causes are an object keyed by each cause's stable name, in
	// cause order, with zero counts left out.
	var all core.AbortCauses
	for c := range all {
		all[c] = uint64(c) + 1
	}
	b, err = json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"other":1,"no_wait_conflict":2,"wait_die":3,"deadlock":4,"lock_timeout":5,` +
		`"to_read_too_late":6,"to_write_too_late":7,"mvcc_version_gone":8,"mvcc_write_too_late":9,` +
		`"occ_validation":10}`
	if string(b) != want {
		t.Errorf("AbortCauses JSON = %s, want %s", b, want)
	}
	if b, _ := json.Marshal(core.AbortCauses{core.CauseWaitDie: 3}); string(b) != `{"wait_die":3}` {
		t.Errorf("AbortCauses JSON = %s, want only the nonzero cause", b)
	}
	if err := json.Unmarshal([]byte(`{"no_such_cause":1}`), &all); err == nil {
		t.Error("AbortCauses accepted an unknown cause name")
	}

	// A result without per-type attribution omits per_txn entirely
	// rather than emitting null.
	b, err = json.Marshal(core.Result{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"per_txn"`) {
		t.Errorf("Result without PerTxn should omit the key: %s", b)
	}
}

// TestSampleRates pins Sample's derived rate accessors, including the
// zero-value guards.
func TestSampleRates(t *testing.T) {
	s := core.Sample{Cycles: 1_000_000, Commits: 1000, Aborts: 1000, Frequency: 1e9}
	if got := s.Throughput(); got != 1e6 {
		t.Fatalf("Throughput = %v, want 1e6", got)
	}
	if got := s.AbortFraction(); got != 0.5 {
		t.Fatalf("AbortFraction = %v, want 0.5", got)
	}
	var zero core.Sample
	if zero.Throughput() != 0 || zero.AbortFraction() != 0 {
		t.Fatal("zero-value Sample rates should be 0")
	}
}
