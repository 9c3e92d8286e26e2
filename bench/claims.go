// Claims.
//
// A Claim is one "Expect" sentence of EXPERIMENTS.md written as a check
// over a rendered figure. It names series and x-values, never job
// indexes, so its verdict is read off the figure the way a reader reads
// the table. A spec carries its claims, built from the same Params as its
// jobs, so an x-value such as the ladder's top follows the scale.
package bench

import (
	"fmt"
	"math"
)

// ClaimKind selects the comparison a Claim makes.
type ClaimKind int

const (
	// Dominates: Series[0] is above every other named series at every x
	// of At.
	Dominates ClaimKind = iota
	// Ordering: the named series are strictly descending, in the order
	// named, at every x of At.
	Ordering
	// Within: Series[0] is at or near the top: at every x of At, no other
	// named series is above it by more than the fraction Tol.
	Within
	// Growth: for every named series and every consecutive pair (x0, x1)
	// of At, y(x1)/y(x0) lies in [Min, Max] (Max 0 leaves it unbounded).
	Growth
)

var kindNames = [...]string{"dominates", "ordering", "within", "growth"}

func (k ClaimKind) String() string { return kindNames[k] }

// Claim is one checkable sentence about a figure.
type Claim struct {
	// Name identifies the claim within its figure.
	Name   string
	Kind   ClaimKind
	Series []string
	At     []float64
	// Tol is Within's tolerance, a fraction of Series[0]'s value.
	Tol float64
	// Min and Max bound Growth's ratio.
	Min, Max float64
}

// Verdict is a claim's outcome on one figure. The deciding comparison is
// the one with the least slack: the first that fails, or the tightest
// that holds. A and B name its two values: two series at X, or for Growth
// one series at X (A) and at the x before it (B).
type Verdict struct {
	Figure string
	Claim  Claim
	Holds  bool
	X      float64
	A, B   string
	YA, YB float64
}

// String renders the verdict on one line: figure, claim, outcome and the
// deciding comparison, with its ratio as a signed percentage.
func (v Verdict) String() string {
	outcome := "fails"
	if v.Holds {
		outcome = "holds"
	}
	return fmt.Sprintf("Fig %s %-22s %-9s %s  at %g: %s %.4f / %s %.4f = %+.1f %%",
		v.Figure, v.Claim.Name, v.Claim.Kind, outcome, v.X, v.A, v.YA, v.B, v.YB, (v.YA/v.YB-1)*100)
}

// check evaluates c on fig, whose id is figure.
func (c Claim) check(figure string, fig *Figure) Verdict {
	y := func(series string, x float64) float64 {
		for _, s := range fig.Series {
			if s.Name != series {
				continue
			}
			for _, pt := range s.Points {
				if pt.X == x {
					return pt.Y
				}
			}
		}
		panic(fmt.Sprintf("bench: claim %s/%s names %q at %g, which the figure does not plot", figure, c.Name, series, x))
	}
	best := Verdict{Figure: figure, Claim: c, Holds: true}
	slack := math.Inf(1)
	// cmp records one comparison whose slack is s (negative: it fails).
	cmp := func(s, x float64, a, b string, ya, yb float64) {
		if s < slack {
			slack = s
			best.X, best.A, best.B, best.YA, best.YB = x, a, b, ya, yb
		}
	}
	for i, x := range c.At {
		switch c.Kind {
		case Dominates, Within:
			top := c.Series[0]
			for _, s := range c.Series[1:] {
				ya, yb := y(top, x), y(s, x)
				if c.Kind == Dominates {
					cmp(ya/yb-1, x, top, s, ya, yb)
				} else {
					cmp(ya*(1+c.Tol)/yb-1, x, top, s, ya, yb)
				}
			}
		case Ordering:
			for j := 0; j+1 < len(c.Series); j++ {
				ya, yb := y(c.Series[j], x), y(c.Series[j+1], x)
				cmp(ya/yb-1, x, c.Series[j], c.Series[j+1], ya, yb)
			}
		case Growth:
			if i == 0 {
				continue
			}
			for _, s := range c.Series {
				ya, yb := y(s, x), y(s, c.At[i-1])
				r := ya / yb
				sl := r/c.Min - 1
				if c.Max > 0 {
					sl = min(sl, c.Max/r-1)
				}
				cmp(sl, x, s, s, ya, yb)
			}
		}
	}
	switch c.Kind {
	case Dominates, Ordering:
		best.Holds = slack > 0
	default:
		best.Holds = slack >= 0
	}
	return best
}

// Check evaluates e's claims at scale p on fig, e's figure at that scale.
func (e Experiment) Check(p Params, fig *Figure) []Verdict {
	var out []Verdict
	for _, c := range e.layout(p).claims {
		out = append(out, c.check(e.ID, fig))
	}
	return out
}

// prefixed returns each name with prefix and a space before it, for the
// TPC-C figures' "(a) Payment+NewOrder NO_WAIT"-style series.
func prefixed(prefix string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + " " + n
	}
	return out
}

// leading returns names with first moved to the front.
func leading(first string, names []string) []string {
	out := []string{first}
	for _, n := range names {
		if n != first {
			out = append(out, n)
		}
	}
	return out
}
