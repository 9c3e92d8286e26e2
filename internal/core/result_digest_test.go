package core_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"abyss1000/internal/core"
	"abyss1000/internal/sim"
	"abyss1000/internal/workload/tpcc"
)

// fullMixRun is a closed-loop run of the full TPC-C mix (five types, so
// per-type rows and abort causes are populated) on two contended
// warehouses, optionally sampled.
func fullMixRun(sampleEvery uint64) core.Result {
	eng := sim.New(8, 17)
	db := core.NewDB(eng)
	tcfg := tpcc.DefaultConfig(2)
	tcfg.Mix = tpcc.MixFull
	wl := tpcc.Build(db, tcfg)
	cfg := core.Config{WarmupCycles: 50_000, MeasureCycles: 300_000, AbortBackoff: 1000}
	if sampleEvery > 0 {
		cfg.SampleEvery, cfg.Observer = sampleEvery, core.ObserverFunc(func(core.Sample) {})
	}
	return core.Run(db, noWait(), wl, cfg)
}

// TestResultJSONDigests pins the SHA-256 of the whole serialized Result —
// counts, abort causes, per-type rows, latency and queue-depth
// histograms, offered, shed, deadlined and the breakdown — for the four
// pinned open-loop configurations and a closed-loop full-mix TPC-C run.
// Each runs unsampled and sampled at a period that does not divide the
// window; sampling is accounting-only, so both must hit the same digest.
// The digests were recorded before the run's counting was folded into
// the sampler and must not move without a deliberate change to what a
// run counts.
func TestResultJSONDigests(t *testing.T) {
	const every = 70_000 // does not divide the 300 000-cycle window
	for _, c := range []struct {
		name string
		run  func(sampleEvery uint64) core.Result
		want string
	}{
		{"open/NO_WAIT/poisson", func(e uint64) core.Result { return pinnedOpenRun("NO_WAIT", false, e) }, "583d4a4bae39b7dbda7cacc621711a5e5d65f9185afa2c1487af8fbeefcca2ed"},
		{"open/NO_WAIT/mmpp", func(e uint64) core.Result { return pinnedOpenRun("NO_WAIT", true, e) }, "1b45605ffa28e290e41bcdffdef24aa5f183817928f455e9c2a761c59c42c8c3"},
		{"open/TIMESTAMP/poisson", func(e uint64) core.Result { return pinnedOpenRun("TIMESTAMP", false, e) }, "9667cf44906bd6b0333df68f177366e80c0a5aa1b77797066d4d0f553deb44c1"},
		{"open/TIMESTAMP/mmpp", func(e uint64) core.Result { return pinnedOpenRun("TIMESTAMP", true, e) }, "c63f31dfbcf6ec0701ccdca4e81b5b5a27d93754397ba2e6810b8455a3dd7419"},
		{"closed/NO_WAIT/tpcc-full", fullMixRun, "c1388035cbcd26c1cb2112be74a40bcd196f40020a4cd62a4d1753f375aab183"},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, e := range []uint64{0, every} {
				b, err := json.Marshal(c.run(e))
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != c.want {
					t.Errorf("SampleEvery %d: Result JSON digest %s, want %s\n%s", e, got, c.want, b)
				}
			}
		})
	}
}
