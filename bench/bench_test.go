package bench

import (
	"strings"
	"testing"

	"abyss1000/internal/core"
	"abyss1000/internal/tsalloc"
)

func TestLadder(t *testing.T) {
	p := Params{MaxCores: 64}
	got := p.Ladder()
	want := []int{1, 4, 16, 64}
	if len(got) != len(want) {
		t.Fatalf("ladder = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder = %v, want %v", got, want)
		}
	}
	// Non-power-of-4 top is still included.
	p.MaxCores = 100
	got = p.Ladder()
	if got[len(got)-1] != 100 {
		t.Fatalf("ladder %v must end at MaxCores", got)
	}
}

func TestLadderFrom(t *testing.T) {
	p := Params{MaxCores: 256}
	got := p.ladderFrom(16)
	for _, c := range got {
		if c < 16 {
			t.Fatalf("ladderFrom(16) contains %d", c)
		}
	}
	if len(got) == 0 {
		t.Fatal("empty ladder")
	}
}

func TestCapCores(t *testing.T) {
	p := Params{MaxCores: 64}
	if p.capCores(512) != 64 || p.capCores(16) != 16 {
		t.Fatal("capCores wrong")
	}
}

func TestMakeSchemeAllNames(t *testing.T) {
	for _, name := range append(append([]string{}, AllSchemeNames...), "ADAPTIVE", "OCC_CENTRAL") {
		s := MakeScheme(name, tsalloc.Atomic)
		if s.Name() != name {
			t.Errorf("MakeScheme(%q).Name() = %q", name, s.Name())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown scheme")
		}
	}()
	MakeScheme("NOPE", tsalloc.Atomic)
}

func TestLookupRegistry(t *testing.T) {
	for _, e := range Registry {
		if _, err := Lookup(e.ID); err != nil {
			t.Errorf("Lookup(%q) failed: %v", e.ID, err)
		}
	}
	if _, err := Lookup("nonsense"); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestFigureFormat(t *testing.T) {
	fig := &Figure{
		ID:     "Fig X",
		Title:  "Test figure",
		XLabel: "cores",
		YLabel: "Mtxn/s",
		Notes:  "a note",
	}
	s := Series{Name: "S1"}
	res := core.Result{Tally: core.Tally{Commits: 1000}, MeasureCycles: 1_000_000, Frequency: 1e9}
	s.Points = append(s.Points, Point{X: 4, Y: throughputM(res), Res: res})
	fig.Series = append(fig.Series, s)
	fig.Breakdowns = append(fig.Breakdowns, Breakdown{
		Title: "bd",
		Rows:  []BreakdownRow{{Scheme: "S1"}},
	})

	out := fig.Format()
	for _, want := range []string{"Fig X", "Test figure", "a note", "S1", "cores", "Mtxn/s", "bd", "Useful Work"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

func TestThroughputExtract(t *testing.T) {
	r := core.Result{Tally: core.Tally{Commits: 2_000_000}, MeasureCycles: 1_000_000, Frequency: 1e9}
	// 2M commits in 1 ms = 2000 Mtxn/s.
	if got := throughputM(r); got != 2000 {
		t.Fatalf("throughputM = %v", got)
	}
}

// TestTinyEndToEndFigure runs the smallest real experiment end to end.
func TestTinyEndToEndFigure(t *testing.T) {
	p := Params{
		MaxCores:      4,
		WarmupCycles:  50_000,
		MeasureCycles: 200_000,
		Rows:          2048,
		FieldSize:     20,
		Seed:          1,
	}
	e, err := Lookup("11")
	if err != nil {
		t.Fatal(err)
	}
	fig := e.Build(p, nil)
	if len(fig.Series) != len(SchemeNames) {
		t.Fatalf("series count %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if pt.Res.Commits == 0 && pt.X < 0.7 {
				t.Errorf("%s at theta=%.1f committed nothing", s.Name, pt.X)
			}
		}
	}
}
