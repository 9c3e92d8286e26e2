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
// The digests must not move without a deliberate change to what a run
// counts; they last moved when a transaction that straddles the end of
// warm-up began to count.
func TestResultJSONDigests(t *testing.T) {
	const every = 70_000 // does not divide the 300 000-cycle window
	for _, c := range []struct {
		name string
		run  func(sampleEvery uint64) core.Result
		want string
	}{
		{"open/NO_WAIT/poisson", func(e uint64) core.Result { return pinnedOpenRun("NO_WAIT", false, e) }, "a11653567ec427d7e78ba2e5480b40c9b3dfc00003c9813573cd8b3562dba4f7"},
		{"open/NO_WAIT/mmpp", func(e uint64) core.Result { return pinnedOpenRun("NO_WAIT", true, e) }, "234765130b9e55a03ebd89ca167a625d8f782970c942fea834a8716fd372d643"},
		{"open/TIMESTAMP/poisson", func(e uint64) core.Result { return pinnedOpenRun("TIMESTAMP", false, e) }, "476c8b7a58cab1d40c626402bd837cffa6d7789e7b612ac8c5771f4940ff0f0a"},
		{"open/TIMESTAMP/mmpp", func(e uint64) core.Result { return pinnedOpenRun("TIMESTAMP", true, e) }, "f3007596eb9440df817b7c8052bcec2228881d39a66b05b6e91435b94bc6b7b5"},
		{"closed/NO_WAIT/tpcc-full", fullMixRun, "eceb19143ec63ac1fbfa866feae448d96c468a61f1cdfeb8ae3df633daa69b09"},
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
