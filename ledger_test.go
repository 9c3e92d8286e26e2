package abyss1000_test

import (
	"os"
	"testing"

	"abyss1000/bench"
)

// TestPerAccessLedger pins what each scheme bills per Begin, Read,
// WriteRow, Commit and Abort on one uncontended simulated core
// (bench.Ledger) against testdata/ledger.txt. A change to a scheme's
// billing moves its rows here before it moves any figure, so a PR that
// means to change billing shows this diff and regenerates the file with
// `go run ./cmd/goldencheck -ledger > testdata/ledger.txt`.
func TestPerAccessLedger(t *testing.T) {
	pinned, err := os.ReadFile("testdata/ledger.txt")
	if err != nil {
		t.Fatalf("missing pinned ledger: %v (regenerate with `go run ./cmd/goldencheck -ledger > testdata/ledger.txt`)", err)
	}
	got := bench.Ledger()
	if got != string(pinned) {
		t.Errorf("the per-access ledger differs from testdata/ledger.txt; if the billing change is intended, regenerate it with\n"+
			"`go run ./cmd/goldencheck -ledger > testdata/ledger.txt` and show the diff.\n%s", diffLines(string(pinned), got))
	}
	t.Log("\n" + got)
}
