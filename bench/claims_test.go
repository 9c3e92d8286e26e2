package bench

import (
	"fmt"
	"strings"
	"testing"
)

// claimVerdicts pins every claim's verdict at Quick() scale, failing ones
// included: "Fig <id> <claim>" -> whether it holds. A verdict that flips
// fails TestClaimVerdicts until this table and EXPERIMENTS.md's text for
// the figure change with it.
var claimVerdicts = map[string]bool{
	"Fig 14 hstore-on-top":       true,
	"Fig 14 hstore-bends":        false,
	"Fig 15 (a) falls":           true,
	"Fig 15 (a) falls-steeply":   true,
	"Fig 15 (b) stacks":          true,
	"Fig 15 (b) flattens":        false,
	"Fig 16 (a) flat":            true,
	"Fig 16 (b) flat":            true,
	"Fig 16 (c) flat":            false,
	"Fig 17 (a) climbs":          true,
	"Fig 17 (a) hstore-near-top": true,
	"Fig 17 (a) to-bends":        false,
	"Fig 17 (b) climbs":          false,
	"Fig 17 (b) hstore-near-top": false,
	"Fig 17 (b) to-bends":        true,
	"Fig 17 (c) climbs":          true,
	"Fig 17 (c) hstore-near-top": true,
	"Fig 17 (c) to-bends":        false,
}

// claimFigures are the experiments whose claims TestClaimVerdicts runs.
var claimFigures = []string{"14", "15", "16", "17"}

// TestClaimVerdicts builds the claimed figures at Quick() scale and
// compares each claim's verdict with claimVerdicts. On a mismatch it logs
// every verdict and the table as it would read now, ready to paste.
func TestClaimVerdicts(t *testing.T) {
	var es []Experiment
	for _, id := range claimFigures {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, e)
	}
	p := Quick()
	figs := BuildAll(es, p, &Runner{})
	var now strings.Builder
	seen := map[string]bool{}
	bad := false
	for i, e := range es {
		for _, v := range e.Check(p, figs[i]) {
			key := fmt.Sprintf("Fig %s %s", v.Figure, v.Claim.Name)
			if seen[key] {
				t.Fatalf("claim %q is named twice", key)
			}
			seen[key] = true
			t.Log(v)
			fmt.Fprintf(&now, "\t%q: %v,\n", key, v.Holds)
			if want, ok := claimVerdicts[key]; !ok || want != v.Holds {
				t.Errorf("%s: holds=%v, pinned %v (pinned: %v)", key, v.Holds, want, ok)
				bad = true
			}
		}
	}
	for key := range claimVerdicts {
		if !seen[key] {
			t.Errorf("%s: pinned, but no figure makes that claim now", key)
			bad = true
		}
	}
	if bad {
		t.Logf("verdicts now:\n%s", now.String())
	}
}
