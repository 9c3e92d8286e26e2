// Command goldencheck prints the complete deterministic signature of a small
// YCSB and TPC-C mix on the simulator: commits, aborts, tuples and every raw
// breakdown bucket. Engine rewrites must not change a byte of its output for
// a given seed; determinism_test.go pins it against testdata/golden_sim.txt.
// With -ledger it prints instead what each scheme bills per read, write,
// commit and abort (bench.Ledger), which ledger_test.go pins against
// testdata/ledger.txt.
//
// Regenerate the pinned files after an intentional timing-model change:
//
//	go run ./cmd/goldencheck > testdata/golden_sim.txt
//	go run ./cmd/goldencheck -ledger > testdata/ledger.txt
package main

import (
	"flag"
	"fmt"

	"abyss1000/bench"
)

func main() {
	ledger := flag.Bool("ledger", false, "print the per-access billing ledger instead of the golden signature")
	flag.Parse()
	if *ledger {
		fmt.Print(bench.Ledger())
		return
	}
	fmt.Print(bench.GoldenSignature(bench.GoldenFeatures{}))
}
