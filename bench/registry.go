package bench

import (
	"fmt"
	"strings"
)

// Experiment is one registry entry: the id accepted by `abyss-bench
// -fig`, a one-line description, and the spec that lays the experiment
// out at a given scale.
type Experiment struct {
	ID   string
	Desc string
	spec func(Params) *spec
}

// Registry maps experiment ids (as passed to abyss-bench -fig) to their
// implementations, in the paper's order. It is the single source of
// truth for every experiment enumeration: `abyss-bench -list`, the -fig
// flag's help text, -all, and EXPERIMENTS.md all derive from it.
var Registry = []Experiment{
	{"3", "Simulator vs real hardware (YCSB, theta=0.6)", fig3},
	{"4", "Lock thrashing (DL_DETECT without detection)", fig4},
	{"5", "Waiting vs aborting (DL_DETECT timeout sweep)", fig5},
	{"6", "Timestamp allocation micro-benchmark", fig6},
	{"7", "Timestamp allocation in the DBMS", fig7},
	{"8", "Read-only YCSB", fig8},
	{"9", "Write-intensive YCSB, medium contention", fig9},
	{"10", "Write-intensive YCSB, high contention", fig10},
	{"11", "Contention (theta) sweep", fig11},
	{"12", "Working set size", fig12},
	{"13", "Read/write mixture", fig13},
	{"14", "Database partitioning (H-STORE)", fig14},
	{"15", "Multi-partition transactions", fig15},
	{"16", "TPC-C, 4 warehouses", fig16},
	{"17", "TPC-C, 1024 warehouses", fig17},
	{"malloc", "Ablation: per-worker arenas vs centralized malloc", ablationMalloc},
	{"occ-validation", "Ablation: OCC parallel vs central validation", ablationValidation},
	{"adaptive", "Extension: the §6.1 DL_DETECT/NO_WAIT hybrid", extensionAdaptive},
	{"knee", "Extension: overload knee — open-loop offered load vs goodput", extensionKnee},
}

// IDs lists every registered experiment id in registry order. The -fig
// flag help, -list output and error messages all use this, so they
// cannot drift from the registry.
func IDs() []string {
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	return ids
}

// Lookup finds a registry entry by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
}
