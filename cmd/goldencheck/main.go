// Command goldencheck prints the complete deterministic signature of a small
// YCSB and TPC-C mix on the simulator: commits, aborts, tuples and every raw
// breakdown bucket. Engine rewrites must not change a byte of its output for
// a given seed; determinism_test.go pins it against testdata/golden_sim.txt.
//
// Regenerate the pinned file after an intentional timing-model change:
//
//	go run ./cmd/goldencheck > testdata/golden_sim.txt
package main

import (
	"fmt"

	"abyss1000/bench"
)

func main() {
	fmt.Print(bench.GoldenSignature(bench.GoldenFeatures{}))
}
