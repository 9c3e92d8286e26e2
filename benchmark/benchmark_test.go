package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// runQuick runs one workload in smoke mode and returns its result line.
func runQuick(t *testing.T, workload string, trace int) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", "7", "-seconds", "0.1", "-quick", "-trace", strconv.Itoa(trace)}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace %d: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s trace %d: last line of stdout is not the result object: %v", workload, trace, err)
	}
	return line
}

// TestQuickSmoke runs every workload in both modes and holds the output to
// BENCHMARK.json: exactly its names, each well-formed and finite, every
// end-to-end value positive, nothing failed.
func TestQuickSmoke(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark refuses to run on fewer than 2 CPUs")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for trace, specs := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			line := runQuick(t, w.Name, trace)
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s trace %d: %d metrics printed, BENCHMARK.json lists %d", w.Name, trace, len(line.Metrics), len(specs))
			}
			nonZero := 0
			for _, m := range specs {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: %s is not printed", w.Name, trace, m.Name)
				case !nameRE.MatchString(m.Name):
					t.Errorf("metric name %q is malformed", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace %d: %s is not finite", w.Name, trace, m.Name)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %g, want > 0", w.Name, m.Name, got.Value)
				}
				if got.Value != 0 {
					nonZero++
				}
			}
			if trace == 1 && nonZero < 10 {
				t.Errorf("%s: only %d per-layer metrics are non-zero", w.Name, nonZero)
			}
			if trace == 1 && w.Name != "sim-ycsb" { // the simulator has no traced round
				checkTrace(t, spec.root, w.Name)
			}
		}
	}
}

// checkTrace reads the span file a traced run wrote. On the serve
// workloads every session.elapsed lies inside its client.invoke parent, so
// wire self time (>= 0) + elapsed is the round trip, span by span. On
// native-tpcc every gen.next and txn.body lies inside its core.txn parent
// and a transaction's children take no more than the transaction.
func checkTrace(t *testing.T, root, workload string) {
	t.Helper()
	f, err := os.Open(filepath.Join(root, "benchmark", "out", "trace-"+workload+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type fileSpan struct {
		ID, Parent, Req uint64
		Name            string
		Start           int64 `json:"start_ns"`
		End             int64 `json:"end_ns"`
	}
	byID := map[uint64]fileSpan{}
	var spans []fileSpan
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s fileSpan
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	want := map[string]string{"session.elapsed": "client.invoke"} // child -> parent
	names := []string{"client.invoke", "session.elapsed", "gen.next", "txn.body"}
	switch workload {
	case "native-tpcc":
		want = map[string]string{"gen.next": "core.txn", "txn.body": "core.txn"}
		names = []string{"core.txn", "gen.next", "txn.body"}
	case "serve-durable":
		names = append(names, "wal.write", "wal.sync")
	}
	seen := map[string]int{}
	inner := map[uint64]int64{} // parent id -> Σ child durations
	for _, s := range spans {
		seen[s.Name]++
		parentName, ok := want[s.Name]
		if !ok {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			continue // the parent fell outside the file's cap
		}
		if p.Name != parentName || p.Req != s.Req {
			t.Fatalf("%s: %s %d: parent is %s of request %d, want %s of request %d", workload, s.Name, s.ID, p.Name, p.Req, parentName, s.Req)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("%s: request %d: %s [%d,%d] outside %s [%d,%d]", workload, s.Req, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		inner[p.ID] += s.End - s.Start
	}
	for _, name := range names {
		if seen[name] == 0 {
			t.Errorf("%s: no %s span in the trace", workload, name)
		}
	}
	if len(inner) == 0 {
		t.Fatalf("%s: no span in the trace is linked to its parent", workload)
	}
	for id, d := range inner {
		if p := byID[id]; d > p.End-p.Start {
			t.Fatalf("%s: request %d: children take %d ns, more than the %d ns of %s", workload, p.Req, d, p.End-p.Start, p.Name)
		}
	}
}

// TestImportPurity mirrors the repository's importpurity_test.go for this
// directory: the benchmark is a client of the public packages only.
func TestImportPurity(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if p == "abyss1000/internal" || strings.HasPrefix(p, "abyss1000/internal/") {
				t.Errorf("%s imports %s: the benchmark must use only the public packages", path, p)
			}
		}
	}
}

// TestQuartileSpread pins iqrShare to Python's statistics.quantiles(n=4).
func TestQuartileSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles: 2.75, 5.5, 8.25
	if got := iqrShare(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	ys := []float64{10, 12, 11, 13, 9} // quantiles: 9.5, 11, 12.5
	if got, want := iqrShare(ys), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

// TestCompare feeds -compare synthetic run sets: equal sets pass, an
// end-to-end median worse than its bound fails, a halved demoted
// wall-clock metric is reported but does not fail, and a changed modelled
// number fails.
func TestCompare(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	names := append([]string(nil), wallMetrics...)
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	for _, ms := range exactMetrics {
		names = append(names, ms...)
	}
	dir := t.TempDir()
	write := func(name string, scale func(workload, metric string) float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 5; seed++ {
			for _, w := range spec.Workloads {
				doc := runDoc{Workload: w.Name, Seed: seed, Seconds: 1, Result: resultLine{Correct: true, Attempted: 1}, All: map[string]docMetric{}}
				for _, m := range names {
					doc.All[m] = docMetric{Value: (1000 + float64(seed)) * scale(w.Name, m), N: 1}
				}
				if err := appendDoc(path, doc); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	scaled := func(workload, metric string, by float64) func(string, string) float64 {
		return func(w, m string) float64 {
			if w == workload && m == metric {
				return by
			}
			return 1
		}
	}
	a := write("a.jsonl", scaled("", "", 1))
	for _, tc := range []struct {
		name     string
		scale    func(string, string) float64
		wantCode int
		wantOut  string
	}{
		{"equal sets", scaled("", "", 1), 0, "ok:"},
		{"heap up by a tenth", scaled("serve-wire", "heap_mb", 1.1), 1, "GAP"},
		{"halved wall-clock throughput", scaled("serve-wire", "txn_per_s", 0.5), 0, "txn_per_s @ serve-wire"},
		{"moved modelled latency", scaled("sim-ycsb", "model_lat_p95_us", 1.001), 1, "repeat exactly"},
		{"moved modelled cost, native", scaled("native-tpcc", "model_txn_per_core_s", 1.0001), 1, "repeat exactly"},
	} {
		var out, errOut bytes.Buffer
		code := compareFiles(spec, a, write(tc.name+".jsonl", tc.scale), &out, &errOut)
		if code != tc.wantCode || !strings.Contains(out.String(), tc.wantOut) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s", tc.name, code, tc.wantCode, tc.wantOut, out.String())
		}
	}
}
