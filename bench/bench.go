// Package bench defines one experiment per table/figure of the paper's
// evaluation (§4-§5) and renders the same series the paper plots. It is
// the engine's evaluation harness: scheme construction goes through the
// public abyss registry (MakeScheme), but the job layer drives engine
// internals the public API deliberately does not expose (the ablation
// allocators, timeout-variant 2PL), which is why it lives alongside the
// engine rather than behind the abyss facade. Each experiment renders a
// Figure whose Format() prints aligned columns: x-values down the side,
// one column per series, plus the time-breakdown tables for the figures
// that include them.
//
// Each experiment is a spec (see runner.go): the figure's header, the
// self-describing Jobs it runs, and where each result lands. A
// Runner executes the flat job list across a worker pool and the figure
// is rendered from the results. A serial build (-parallel 1) is the same
// job list over a pool of one, and is byte-identical to a parallel build
// because every Job carries its own seed and constructs all its state
// itself. BuildAll and Experiment.Build are the entry points; output.go
// adds the JSON/CSV serializations behind `abyss-bench -json`/`-csv`.
//
// Experiments run at a configurable scale: Quick() keeps the full suite
// in minutes on a laptop; Full() climbs to 1024 simulated cores with the
// paper's parameters. Absolute throughputs differ from the paper (our
// timing model is not Graphite); EXPERIMENTS.md records the shape
// comparison per figure along with the exact command reproducing each.
package bench

import (
	"fmt"
	"strings"

	"abyss1000/abyss"
	"abyss1000/internal/core"
	"abyss1000/internal/costs"
	"abyss1000/internal/stats"
	"abyss1000/internal/tsalloc"
)

// Params sizes an experiment run. The json tags define its stable
// serialization in the -json report metadata.
type Params struct {
	// MaxCores is the top of the core-count ladder (the paper's is
	// 1024).
	MaxCores int `json:"max_cores"`

	// WarmupCycles and MeasureCycles size each data point's simulated
	// window.
	WarmupCycles  uint64 `json:"warmup_cycles"`
	MeasureCycles uint64 `json:"measure_cycles"`

	// Rows is the YCSB table size.
	Rows int `json:"rows"`

	// FieldSize scales YCSB tuples (paper: 100 bytes × 10 columns).
	FieldSize int `json:"field_size"`

	// NativeWarmupNS and NativeMeasureNS size the wall-clock windows of
	// the Fig. 3 native-hardware runs.
	NativeWarmupNS  uint64 `json:"native_warmup_ns"`
	NativeMeasureNS uint64 `json:"native_measure_ns"`

	// Seed makes every experiment deterministic. Every enumerated Job
	// carries this seed; the engines derive per-core streams from it.
	Seed int64 `json:"seed"`

	// LogAccounting attaches an accounting-only write-ahead log to every
	// engine-backed job (see Job.LogAccounting). The schedule is
	// unchanged, so commits/aborts/throughput are byte-identical to a run
	// without it; only breakdown fractions shift, to show the Log
	// component's share. omitempty keeps existing report metadata
	// byte-identical when the flag is off.
	LogAccounting bool `json:"log_accounting,omitempty"`
}

// Quick returns parameters that run the full suite in a few minutes.
func Quick() Params {
	return Params{
		MaxCores:        64,
		WarmupCycles:    200_000,
		MeasureCycles:   800_000,
		Rows:            16_384,
		FieldSize:       100,
		NativeWarmupNS:  5_000_000,
		NativeMeasureNS: 50_000_000,
		Seed:            42,
	}
}

// Full returns parameters approaching the paper's scale (1024 simulated
// cores). Expect tens of minutes for the whole suite.
func Full() Params {
	return Params{
		MaxCores:        1024,
		WarmupCycles:    300_000,
		MeasureCycles:   2_000_000,
		Rows:            262_144,
		FieldSize:       100,
		NativeWarmupNS:  20_000_000,
		NativeMeasureNS: 200_000_000,
		Seed:            42,
	}
}

// Ladder returns the core counts swept by scalability figures: powers of
// four up to max, always including max.
func (p Params) Ladder() []int {
	var l []int
	for c := 1; c < p.MaxCores; c *= 4 {
		l = append(l, c)
	}
	return append(l, p.MaxCores)
}

// ladderFrom is Ladder starting no lower than lo.
func (p Params) ladderFrom(lo int) []int {
	var out []int
	for _, c := range p.Ladder() {
		if c >= lo {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = []int{p.MaxCores}
	}
	return out
}

// coreConfig builds the engine config for one data point.
func (p Params) coreConfig() core.Config {
	return core.Config{
		WarmupCycles:  p.WarmupCycles,
		MeasureCycles: p.MeasureCycles,
		AbortBackoff:  costs.BackoffBase,
	}
}

// SchemeNames lists the six tuple-level schemes in the paper's plotting
// order; H-STORE joins in §5.5/§5.6. Both slices derive from the abyss
// scheme registry (whose paper order is the same Table 1 order), so the
// harness cannot drift from the public registry.
var SchemeNames = tupleLevel(abyss.PaperSchemes())

// AllSchemeNames includes H-STORE.
var AllSchemeNames = abyss.PaperSchemes()

// tupleLevel filters out the partition-level scheme.
func tupleLevel(names []string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		if n != "HSTORE" {
			out = append(out, n)
		}
	}
	return out
}

// MakeScheme builds a scheme by paper name through the public abyss
// registry — the single source of scheme wiring. T/O schemes draw
// timestamps with method m (the paper's default is non-batched atomic
// addition). Unknown names panic: inside the harness they are enumeration
// bugs, not user input (cmd/abyss-sim validates names before reaching
// here).
func MakeScheme(name string, m tsalloc.Method) core.Scheme {
	s, err := abyss.NewScheme(name, abyss.WithTSMethod(m))
	if err != nil {
		panic("bench: " + err.Error())
	}
	return s
}

// Point is one measured (x, y) pair with the full result attached. Its
// JSON form (output.go) adds the derived throughput and abort fraction.
type Point struct {
	X   float64
	Y   float64
	Res core.Result
}

// Series is one line of a figure.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Breakdown is one figure's per-scheme time breakdown table (the "(b)"
// subfigures).
type Breakdown struct {
	Title string         `json:"title"`
	Rows  []BreakdownRow `json:"rows"`
}

// BreakdownRow is one scheme's six component fractions, in
// stats.Component order.
type BreakdownRow struct {
	Scheme    string                       `json:"scheme"`
	Fractions [stats.NumComponents]float64 `json:"fractions"`
}

// Figure is a rendered experiment.
type Figure struct {
	ID         string      `json:"id"`
	Title      string      `json:"title"`
	XLabel     string      `json:"x_label"`
	YLabel     string      `json:"y_label"`
	Series     []Series    `json:"series"`
	Breakdowns []Breakdown `json:"breakdowns,omitempty"`
	Notes      string      `json:"notes,omitempty"`
}

// yExtract reads a series' y-value from a result.
type yExtract func(core.Result) float64

func throughputM(r core.Result) float64 { return r.Throughput() / 1e6 }

// Format renders the figure as an aligned text table.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	if f.Notes != "" {
		fmt.Fprintf(&b, "   %s\n", f.Notes)
	}
	if len(f.Series) > 0 {
		// Header.
		fmt.Fprintf(&b, "%-14s", f.XLabel)
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %16s", s.Name)
		}
		fmt.Fprintf(&b, "    (%s)\n", f.YLabel)
		// Rows keyed by the x-values of the first series.
		for i := range f.Series[0].Points {
			fmt.Fprintf(&b, "%-14.4g", f.Series[0].Points[i].X)
			for _, s := range f.Series {
				if i < len(s.Points) {
					fmt.Fprintf(&b, " %16.4f", s.Points[i].Y)
				} else {
					fmt.Fprintf(&b, " %16s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	for _, bd := range f.Breakdowns {
		fmt.Fprintf(&b, "-- %s --\n", bd.Title)
		fmt.Fprintf(&b, "%-12s", "scheme")
		for c := stats.Component(0); c < stats.NumComponents; c++ {
			fmt.Fprintf(&b, " %12s", c.String())
		}
		b.WriteByte('\n')
		for _, row := range bd.Rows {
			fmt.Fprintf(&b, "%-12s", row.Scheme)
			for _, fr := range row.Fractions {
				fmt.Fprintf(&b, " %11.1f%%", fr*100)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
