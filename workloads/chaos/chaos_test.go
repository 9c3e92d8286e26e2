// The serializability fuzz harness: every (scheme, runtime, seed) triple
// runs a freshly generated chaos workload with history capture on and
// requires the checker's verdict to be clean — acyclic direct
// serialization graph AND final state equal to the single-threaded
// oracle replay. The sweep covers 100+ triples on every `go test`;
// FuzzSerializability lets the fuzzer hunt seeds beyond the sweep.
package chaos_test

import (
	"fmt"
	"testing"

	"abyss1000/abyss"
	"abyss1000/workloads/chaos"
)

// checkCfg returns a short capture-enabled window for the runtime (sim
// windows are simulated cycles, native ones wall-clock nanoseconds).
func checkCfg(runtime string) abyss.RunConfig {
	cfg := abyss.RunConfig{WarmupCycles: 40_000, MeasureCycles: 200_000, AbortBackoff: 500, Check: true}
	if runtime == abyss.RuntimeNative {
		cfg.WarmupCycles, cfg.MeasureCycles = 200_000, 2_000_000
	}
	return cfg
}

// runCheck builds the seed's chaos workload, runs it under the scheme
// with capture on, and returns the run result and checker report.
func runCheck(t *testing.T, runtime, scheme string, cores int, seed int64) (abyss.Result, *abyss.CheckReport) {
	t.Helper()
	db, err := abyss.Open(abyss.Options{Runtime: runtime, Cores: cores, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := chaos.Build(db, chaos.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := abyss.NewScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Run(s, wl, checkCfg(runtime))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := db.CheckSerializability()
	if err != nil {
		t.Fatal(err)
	}
	return res, rep
}

// repro formats the one-line reproduction command for a failing triple.
func repro(runtime, scheme string, cores int, seed int64) string {
	return fmt.Sprintf("go run ./cmd/abyss-sim -check -workload chaos -scheme %s -runtime %s -cores %d -seed %d",
		scheme, runtime, cores, seed)
}

// TestSerializabilitySweep is the standing fuzz sweep: the paper's seven
// schemes x both runtimes x eight seeds (112 triples), each a different
// generated workload, each required to verify clean.
func TestSerializabilitySweep(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34}
	if testing.Short() {
		seeds = seeds[:2]
	}
	const cores = 4
	for _, runtime := range abyss.Runtimes() {
		for _, scheme := range abyss.PaperSchemes() {
			runtime, scheme := runtime, scheme
			t.Run(runtime+"/"+scheme, func(t *testing.T) {
				for _, seed := range seeds {
					res, rep := runCheck(t, runtime, scheme, cores, seed)
					// The simulated runtime is deterministic, so empty runs
					// there are real failures. Native windows are wall-clock:
					// on a heavily loaded host (e.g. under -race) a short
					// window can commit nothing — the verdict is then vacuous,
					// not wrong.
					if runtime == abyss.RuntimeSim && (res.Commits == 0 || rep.Txns == 0) {
						t.Fatalf("seed %d: no commits captured (%d result, %d history)", seed, res.Commits, rep.Txns)
					}
					if rep.Txns == 0 {
						t.Logf("seed %d: nothing committed inside the wall-clock window; vacuous verdict", seed)
						continue
					}
					if !rep.OK() {
						t.Fatalf("seed %d NOT serializable\nrepro: %s\n%s",
							seed, repro(runtime, scheme, cores, seed), rep)
					}
				}
			})
		}
	}
}

// FuzzSerializability is the open-ended hunt: the fuzzer mutates the
// workload seed and scheme choice, and any interleaving the checker can
// fault is a crasher whose corpus entry IS the repro.
func FuzzSerializability(f *testing.F) {
	schemes := abyss.PaperSchemes()
	f.Add(int64(42), uint8(0))
	f.Add(int64(7), uint8(3))
	f.Add(int64(1000), uint8(5))
	f.Add(int64(955), uint8('\\')) // one 3-row table: Generate once spun drawing a 4th distinct access
	f.Fuzz(func(t *testing.T, seed int64, schemeIdx uint8) {
		scheme := schemes[int(schemeIdx)%len(schemes)]
		const cores = 4
		_, rep := runCheck(t, abyss.RuntimeSim, scheme, cores, seed)
		if !rep.OK() {
			t.Fatalf("seed %d NOT serializable under %s\nrepro: %s\n%s",
				seed, scheme, repro(abyss.RuntimeSim, scheme, cores, seed), rep)
		}
	})
}

// TestCheckReproDeterminism pins the repro contract: on the simulated
// runtime the same (scheme, cores, seed) triple reproduces the identical
// run and the identical checker report, so a failure line from the sweep
// or the fuzzer replays exactly.
func TestCheckReproDeterminism(t *testing.T) {
	const (
		scheme = "NO_WAIT"
		cores  = 4
		seed   = int64(99)
	)
	res1, rep1 := runCheck(t, abyss.RuntimeSim, scheme, cores, seed)
	res2, rep2 := runCheck(t, abyss.RuntimeSim, scheme, cores, seed)
	if res1.String() != res2.String() {
		t.Fatalf("same seed, different results:\n%s\n%s", res1.String(), res2.String())
	}
	if rep1.String() != rep2.String() {
		t.Fatalf("same seed, different reports:\n%s\n%s", rep1, rep2)
	}
	if rep1.Txns != rep2.Txns || rep1.Edges != rep2.Edges {
		t.Fatalf("same seed, different graphs: %d/%d txns, %d/%d edges",
			rep1.Txns, rep2.Txns, rep1.Edges, rep2.Edges)
	}
}

// TestShapeVariety pins that the generator actually varies: across a
// seed range at least two different procedure sets and two different
// table counts must appear (a constant generator would silently gut the
// sweep's coverage).
func TestShapeVariety(t *testing.T) {
	shapes := map[string]bool{}
	for seed := int64(0); seed < 12; seed++ {
		db, err := abyss.Open(abyss.Options{Cores: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		wl, err := chaos.Build(db, chaos.DefaultConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		shapes[fmt.Sprint(wl.Procedures())] = true
	}
	if len(shapes) < 2 {
		t.Fatalf("12 seeds produced a single workload shape: %v", shapes)
	}
}
