package abyss1000_test

import (
	"fmt"
	"os"
	"testing"

	"abyss1000/bench"

	// The query operator layer and the TATP extension workload are
	// opt-in: linking them (and the ordered-index machinery they pull in)
	// into a binary may not change what the paper experiments measure.
	// Every row of the matrix below runs with both linked.
	_ "abyss1000/query"
	_ "abyss1000/workloads/tatp"
)

// TestSimDeterminismGolden is the engine's end-to-end determinism
// regression test and its inert-feature matrix. A small YCSB and TPC-C
// mix across seven concurrency-control schemes on the simulated runtime
// must produce commit counts, abort counts, tuple counts and raw
// stats.Breakdown buckets byte-identical to the pinned signature in
// testdata/golden_sim.txt — so an engine rewrite cannot silently perturb
// the simulated schedule even if it perturbs it deterministically — and
// must do so again on a second run (determinism), with each opt-in
// feature attached alone, and with all of them attached together. Every
// feature is accounting-only or disengaged: interval sampling reads
// clocks and bumps private counters, the accounting-only WAL bills only
// the Log bucket the signature excludes, history capture never ticks,
// syncs or latches, the overload tier's plumbing with every knob at zero
// leaves the paper's closed loop untouched, and quiet latch traffic (how
// MVCC's garbage collector reaches cold tuples) is outside the model.
func TestSimDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 8 x 11 full simulations")
	}
	pinned, err := os.ReadFile("testdata/golden_sim.txt")
	if err != nil {
		t.Fatalf("missing pinned signature: %v (regenerate with `go run ./cmd/goldencheck > testdata/golden_sim.txt`)", err)
	}
	want := string(pinned)

	// 200k-cycle window at 25k per interval = 8 samples per run, 11 runs.
	const sampleEvery, wantSamples = 25_000, 8 * 11
	rows := []struct {
		name     string
		features bench.GoldenFeatures
	}{
		{"base", bench.GoldenFeatures{}},
		{"rerun", bench.GoldenFeatures{}},
		{"sampled", bench.GoldenFeatures{SampleEvery: sampleEvery, Observer: &collectObserver{}}},
		{"durable", bench.GoldenFeatures{Durable: true}},
		{"check", bench.GoldenFeatures{Check: true}},
		{"overload-off", bench.GoldenFeatures{OverloadOff: true}},
		{"quiet-latches", bench.GoldenFeatures{QuietLatches: true}},
		{"all", bench.GoldenFeatures{SampleEvery: sampleEvery, Observer: &collectObserver{}, Durable: true, Check: true, OverloadOff: true, QuietLatches: true}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			got := bench.GoldenSignature(row.features)
			if got != want {
				t.Errorf("simulated results differ from the pinned signature.\n"+
					"If this PR intentionally changes the timing model, regenerate with\n"+
					"`go run ./cmd/goldencheck > testdata/golden_sim.txt` and call it out;\n"+
					"on any row but base, an attached feature perturbed the schedule.\n%s",
					diffLines(want, got))
			}
			if obs, ok := row.features.Observer.(*collectObserver); ok && len(obs.samples) != wantSamples {
				t.Errorf("observer received %d samples, want %d", len(obs.samples), wantSamples)
			}
		})
	}
}

// diffLines renders a compact first-difference report for two
// line-oriented strings.
func diffLines(want, got string) string {
	w, g := []byte(want), []byte(got)
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first diff at byte %d:\nwant ...%q\ngot  ...%q", i, want[lo:min(i+20, len(want))], got[lo:min(i+20, len(got))])
		}
	}
	return fmt.Sprintf("length mismatch: want %d bytes, got %d", len(want), len(got))
}
