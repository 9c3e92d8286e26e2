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
		{"open/NO_WAIT/poisson", func(e uint64) core.Result { return pinnedOpenRun("NO_WAIT", false, e) }, "76f1e17dd6635bebe33c2a0dbeb033ebf2828c3fa543e27746061e139cb5ee06"},
		{"open/NO_WAIT/mmpp", func(e uint64) core.Result { return pinnedOpenRun("NO_WAIT", true, e) }, "b912271f4aae96f0e9367f9d89e96b64866e77c5594a6aafc56c493fb92b7343"},
		{"open/TIMESTAMP/poisson", func(e uint64) core.Result { return pinnedOpenRun("TIMESTAMP", false, e) }, "ab22099b8b19b77a68cddde66a3a3b5d32a7ece1be7f755f1a65d761b8e95dc9"},
		{"open/TIMESTAMP/mmpp", func(e uint64) core.Result { return pinnedOpenRun("TIMESTAMP", true, e) }, "5d0fe0604886edbcfd900d0a7bd0f1363aaa7353af2e80475c1a29b1bf7865ca"},
		{"closed/NO_WAIT/tpcc-full", fullMixRun, "b5a7e25d5edae32a7a0e98cd731a8cfd300d9ae3094f2d0d97637fe34dfcb9b7"},
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
