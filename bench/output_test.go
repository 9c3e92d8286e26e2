package bench

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"abyss1000/internal/core"
	"abyss1000/internal/stats"
)

// testReport builds a small synthetic report without running simulations.
func testReport() (*Report, int) {
	var bd stats.Breakdown
	bd.Add(stats.Useful, 600)
	bd.Add(stats.TsAlloc, 300)
	bd.Add(stats.Wait, 100)
	var lat stats.Histogram
	for i := uint64(0); i < 2000; i++ {
		lat.Record(500 + i)
	}
	var qd stats.Histogram
	for i := uint64(0); i < 100; i++ {
		qd.Record(i % 8)
	}
	res := core.Result{
		Scheme: "NO_WAIT", Workers: 4,
		Tally: core.Tally{Commits: 2000, Aborts: 500, Tuples: 32000,
			Offered: 3000, Shed: 400, Deadlined: 100, QueueDepth: qd, Latency: lat},
		MeasureCycles: 1_000_000, Frequency: 1e9, Breakdown: bd,
		PerTxn: []core.TxnStats{
			{Name: "read", Commits: 1200, Aborts: 300, Latency: lat},
			{Name: "update", Commits: 800, Aborts: 200},
		},
	}
	fig := &Figure{
		ID: "Fig T", Title: "test", XLabel: "cores", YLabel: "Mtxn/s",
		Series: []Series{{
			Name:   "NO_WAIT",
			Points: []Point{{X: 4, Y: 2, Res: res}, {X: 16, Y: 4, Res: res}},
		}},
		Breakdowns: []Breakdown{{Title: "bd", Rows: []BreakdownRow{{Scheme: "NO_WAIT", Fractions: bd.Fractions()}}}},
	}
	es := []Experiment{{ID: "T", Desc: "test"}}
	meta := RunMeta{Paper: "test-paper", Scale: "quick", Params: Quick()}
	return NewReport(meta, es, []*Figure{fig}), 2
}

func TestReportJSONStructure(t *testing.T) {
	rep, _ := testReport()
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatal("JSON output is not deterministic")
	}

	var doc struct {
		Meta struct {
			Paper  string `json:"paper"`
			Scale  string `json:"scale"`
			Params Params `json:"params"`
		} `json:"meta"`
		Figures []struct {
			Experiment string `json:"experiment"`
			Figure     struct {
				ID     string `json:"id"`
				Series []struct {
					Name   string `json:"name"`
					Points []struct {
						X          float64         `json:"x"`
						Y          float64         `json:"y"`
						Result     core.Result     `json:"result"`
						Throughput float64         `json:"throughput_txn_s"`
						AbortFrac  float64         `json:"abort_fraction"`
						Breakdown  json.RawMessage `json:"-"`
					} `json:"points"`
				} `json:"series"`
			} `json:"figure"`
		} `json:"figures"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("report does not re-parse: %v", err)
	}
	if doc.Meta.Paper != "test-paper" || doc.Meta.Params.Seed != 42 {
		t.Errorf("meta corrupted: %+v", doc.Meta)
	}
	pt := doc.Figures[0].Figure.Series[0].Points[0]
	if pt.Result.Commits != 2000 || pt.Result.Breakdown.Get(stats.Useful) != 600 {
		t.Errorf("point result corrupted: %+v", pt.Result)
	}
	if pt.Throughput != 2e6 {
		t.Errorf("derived throughput = %v, want 2e6", pt.Throughput)
	}
	if pt.AbortFrac != 0.2 {
		t.Errorf("derived abort fraction = %v, want 0.2", pt.AbortFrac)
	}
	// The six-component breakdown must be present under stable keys.
	for _, key := range []string{`"useful": 600`, `"ts_alloc": 300`, `"wait": 100`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("JSON missing breakdown entry %s", key)
		}
	}
}

func TestReportCSV(t *testing.T) {
	rep, points := testReport()
	out := rep.CSV()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != points+1 {
		t.Fatalf("CSV has %d lines, want header + %d points:\n%s", len(lines), points, out)
	}
	header := strings.Split(lines[0], ",")
	wantCols := 24 + int(stats.NumComponents) + 1
	if len(header) != wantCols {
		t.Fatalf("CSV header has %d columns, want %d: %v", len(header), wantCols, header)
	}
	for _, col := range []string{
		"experiment", "scheme", "commits", "throughput_txn_s", "useful_cycles", "manager_cycles",
		"offered_tps", "goodput_tps", "shed", "deadlined", "queue_depth_p50", "queue_depth_max",
		"lat_p50_cycles", "lat_p95_cycles", "lat_p99_cycles", "lat_max_cycles", "per_txn",
	} {
		found := false
		for _, h := range header {
			if h == col {
				found = true
			}
		}
		if !found {
			t.Errorf("CSV header missing column %q: %v", col, header)
		}
	}
	for i, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != wantCols {
			t.Errorf("CSV row %d has %d fields, want %d: %s", i, got, wantCols, line)
		}
	}
	row := strings.Split(lines[1], ",")
	if row[0] != "T" || row[5] != "NO_WAIT" || row[7] != "2000" {
		t.Errorf("unexpected first row: %v", row)
	}
	// The overload columns carry the result's accounting: offered and
	// goodput rates (3000 and 2000 txns over the 1 ms window), shed and
	// deadlined counts, and the queue-depth percentiles.
	if row[14] != "3e+06" || row[15] != "2e+06" {
		t.Errorf("offered/goodput tps = %q/%q, want 3e+06/2e+06", row[14], row[15])
	}
	if row[16] != "400" || row[17] != "100" {
		t.Errorf("shed/deadlined = %q/%q, want 400/100", row[16], row[17])
	}
	if row[19] != "7" {
		t.Errorf("queue_depth_max = %q, want 7", row[19])
	}
	// The latency max column carries the histogram's max; the per-txn
	// column flattens name=commits/aborts/p50/p99 entries with ';'.
	if row[23] != "2499" {
		t.Errorf("lat_max_cycles = %q, want 2499", row[23])
	}
	perTxn := row[len(row)-1]
	if !strings.HasPrefix(perTxn, "read=1200/300/") || !strings.Contains(perTxn, ";update=800/200/") {
		t.Errorf("unexpected per_txn column: %q", perTxn)
	}
}

func TestPointJSONRoundTrip(t *testing.T) {
	rep, _ := testReport()
	orig := rep.Figures[0].Figure.Series[0].Points[0]
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Point
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, orig) {
		t.Fatalf("point round trip changed the point:\norig %+v\nback %+v", orig, back)
	}
	// The derived latency percentile and overload keys are part of the
	// wire format.
	for _, key := range []string{
		`"lat_p50_cycles"`, `"lat_p95_cycles"`, `"lat_p99_cycles"`, `"lat_max_cycles"`, `"per_txn"`, `"latency"`,
		`"offered_tps"`, `"goodput_tps"`, `"shed"`, `"deadlined"`, `"queue_depth"`,
	} {
		if !strings.Contains(string(b), key) {
			t.Errorf("point JSON missing key %s: %s", key, b)
		}
	}
}
