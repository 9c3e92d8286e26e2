package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare a.jsonl b.jsonl holds two sets of runs (files written with
// -out) against the acceptance rule the benchmark itself is held to: per
// workload and end-to-end metric, the spread of each set — the distance
// between its quartiles as a share of its median — must stay within the
// metric's bound, and the second set's median must not be worse than the
// first's by more than the bound. Run on two sets from one commit this is
// the A/A test; run on parent and change it is the regression gate.
//
// Modelled time is exact for a seed: wherever both sets ran the same seed,
// the exact metrics below must agree to the bit. An end-to-end metric whose
// spread or A/A gap eats more than a third of its bound is listed as a
// candidate for demotion to a per-layer metric. The wall-clock metrics
// that were demoted for this machine's noise are reported the same way
// against advisoryBound, but never fail the comparison: a gap inside their
// spread is unresolved, not unchanged.

// exactMetrics must repeat bit for bit for a seed, per workload.
var exactMetrics = map[string][]string{
	"sim-ycsb":    {"model_txn_per_core_s", "model_txn_per_s", "model_lat_p50_us", "model_lat_p95_us", "model_lat_p99_us"},
	"native-tpcc": {"model_txn_per_core_s"},
}

// wallMetrics are the demoted wall-clock metrics -compare still reports.
var wallMetrics = []string{"txn_per_s", "lat_mean_us", "lat_p50_us", "lat_p95_us", "lat_p99_us"}

// advisoryBound is the issue's cap on any bound: a wall-clock metric whose
// spread stayed under it would have been gated.
const advisoryBound = 0.10

func readDocs(path string) ([]runDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []runDoc
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var d runDoc
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return docs, nil
}

func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readDocs(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readDocs(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	violations := 0
	var demote, unresolved []string
	fmt.Fprintf(stdout, "%-14s %-22s %14s %14s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound")
	// row prints one workload × metric; mark sees how much worse B's median
	// is and the two spreads, all as shares.
	row := func(w string, m metricSpec, bound float64, va, vb []float64, mark func(worse, sa, sb float64) string) {
		ma, mb := median(va), median(vb)
		worse := (mb - ma) / ma
		if m.Better == "higher" {
			worse = (ma - mb) / ma
		}
		sa, sb := iqrShare(va), iqrShare(vb)
		fmt.Fprintf(stdout, "%-14s %-22s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n",
			w, m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*bound, mark(worse, sa, sb))
	}
	layerSpec := make(map[string]metricSpec, len(spec.PerLayer))
	for _, m := range spec.PerLayer {
		layerSpec[m.Name] = m
	}
	for _, w := range spec.Workloads {
		runsA, runsB := untraced(a, w.Name), untraced(b, w.Name)
		if len(runsA) == 0 || len(runsB) == 0 {
			fmt.Fprintf(stdout, "%-14s missing from %s\n", w.Name, map[bool]string{true: pathA, false: pathB}[len(runsA) == 0])
			violations++
			continue
		}
		for _, d := range append(append([]runDoc(nil), runsA...), runsB...) {
			if !d.Result.Correct || d.Result.Failed != 0 {
				fmt.Fprintf(stdout, "%-14s seed %d: correct=%v failed=%d %v\n", w.Name, d.Seed, d.Result.Correct, d.Result.Failed, d.Problems)
				violations++
			}
		}
		for _, m := range spec.EndToEnd {
			row(w.Name, m, m.Bound, values(runsA, m.Name), values(runsB, m.Name), func(worse, sa, sb float64) (mark string) {
				if worse > m.Bound {
					mark += " GAP"
					violations++
				}
				// The driver excuses setup_s from the spread rule, not from
				// the median rule.
				if m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound) {
					mark += " SPREAD"
					violations++
				}
				if third := m.Bound / 3; m.Name != "setup_s" && (sa > third || sb > third || worse > third || -worse > third) {
					demote = append(demote, fmt.Sprintf("%s @ %s (spread %.1f%% / %.1f%%, gap %+.1f%%, bound %.0f%%)",
						m.Name, w.Name, 100*sa, 100*sb, 100*worse, 100*m.Bound))
				}
				return mark
			})
		}
		for _, name := range wallMetrics {
			va, vb := values(runsA, name), values(runsB, name)
			if median(va) == 0 || median(vb) == 0 {
				continue // not measured on this workload
			}
			row(w.Name, layerSpec[name], advisoryBound, va, vb, func(worse, sa, sb float64) string {
				if sa > advisoryBound || sb > advisoryBound || worse > advisoryBound || -worse > advisoryBound {
					unresolved = append(unresolved, fmt.Sprintf("%s @ %s (spread %.1f%% / %.1f%%, gap %+.1f%%)", name, w.Name, 100*sa, 100*sb, 100*worse))
				}
				return " (advisory)"
			})
		}
		violations += exactMismatches(stdout, w.Name, runsA, runsB)
	}
	if len(demote) > 0 {
		fmt.Fprintln(stdout, "end-to-end metrics over a third of their bound (demotion candidates if it persists):")
		for _, d := range demote {
			fmt.Fprintln(stdout, "  "+d)
		}
	}
	if len(unresolved) > 0 {
		fmt.Fprintf(stdout, "demoted wall-clock metrics beyond %.0f%% (unresolved on this machine, not failures):\n", 100*advisoryBound)
		for _, d := range unresolved {
			fmt.Fprintln(stdout, "  "+d)
		}
	}
	if violations > 0 {
		fmt.Fprintf(stdout, "FAIL: %d violation(s)\n", violations)
		return 1
	}
	fmt.Fprintln(stdout, "ok: the two sets agree within every bound")
	return 0
}

func untraced(docs []runDoc, workload string) []runDoc {
	var out []runDoc
	for _, d := range docs {
		if d.Workload == workload && !d.Trace {
			out = append(out, d)
		}
	}
	return out
}

// values returns metric's value in every run, from the full metric set:
// an untraced run's document also holds the per-layer metrics it measured.
func values(docs []runDoc, metric string) []float64 {
	xs := make([]float64, 0, len(docs))
	for _, d := range docs {
		xs = append(xs, d.All[metric].Value)
	}
	return xs
}

// exactMismatches reports seeds on which workload's exact metrics differ
// between the two sets.
func exactMismatches(w io.Writer, workload string, a, b []runDoc) (n int) {
	bySeed := make(map[int64]runDoc, len(a))
	for _, d := range a {
		bySeed[d.Seed] = d
	}
	for _, d := range b {
		ref, ok := bySeed[d.Seed]
		if !ok || ref.Seconds != d.Seconds {
			continue
		}
		for _, m := range exactMetrics[workload] {
			if x, y := ref.All[m].Value, d.All[m].Value; x != y {
				fmt.Fprintf(w, "%-14s %-22s seed %d: %v vs %v — modelled time must repeat exactly\n", workload, m, d.Seed, x, y)
				n++
			}
		}
	}
	return n
}
