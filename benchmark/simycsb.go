package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"abyss1000/abyss"
)

// sim-ycsb: the paper's subject. The deterministic simulator models a
// 64-core chip running YCSB at the paper's medium contention (θ = 0.6,
// 16 requests per transaction, half of them writes, 200 000 rows of
// 10×100 B) under each of the seven paper schemes in turn. It is the only
// workload where internal/sim does most of the host's work and the only
// one with real contention. Its model_* numbers are simulated time — what
// the modelled chip's clients would see, exact for a seed — while
// txn_per_s is host time: how fast the simulator gets through it.
const (
	simCores     = 64
	simRows      = 200_000
	simFields    = 10
	simFieldSize = 100
	simReqPerTxn = 16
	simReadPct   = 0.5
	simTheta     = 0.6
	simBackoff   = 1000

	// Simulated cycles at 1 GHz: 0.2 ms warm-up, 1 ms measured — two
	// thirds of a host second per scheme-round, so that three rotations of
	// seven fresh databases fit the run.
	simWarmCycles    = 200_000
	simMeasureCycles = 1_000_000

	// The serializability check runs a short window on a smaller table,
	// so the same skew meets fewer rows and conflicts more.
	simCheckRows    = 20_000
	simCheckWarm    = 20_000
	simCheckMeasure = 200_000
)

type simRound struct {
	openS, buildS float64
	hostS         float64 // wall time of db.Run, warm-up included
	res           abyss.Result
	sig           string // the Result as JSON: rounds of a scheme must agree byte for byte
	heap          float64
	allocsPerTxn  float64 // heap objects per commit over the second half of the measured window
}

func simParams(scheme string, rows int) (abyss.WorkloadParams, error) {
	p, err := abyss.DefaultWorkloadParams("ycsb")
	if err != nil {
		return p, err
	}
	p.Rows = rows
	p.Fields = simFields
	p.FieldSize = simFieldSize
	p.ReqPerTxn = simReqPerTxn
	p.ReadPct = simReadPct
	p.Theta = simTheta
	p.Partitioned = scheme == "HSTORE" // H-STORE needs the partitioned layout (§5.5)
	return p, nil
}

// simOpen builds a fresh simulated database for one round.
func simOpen(scheme string, seed int64, rows int) (db *abyss.DB, wl abyss.Workload, s abyss.Scheme, openS, buildS float64, err error) {
	t0 := time.Now()
	db, err = abyss.Open(abyss.Options{Runtime: abyss.RuntimeSim, Cores: simCores, Seed: seed})
	if err != nil {
		return
	}
	p, err := simParams(scheme, rows)
	if err != nil {
		return
	}
	t1 := time.Now()
	wl, err = db.BuildWorkload("ycsb", p)
	if err != nil {
		return
	}
	s, err = abyss.NewScheme(scheme)
	t2 := time.Now()
	return db, wl, s, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), err
}

func simRunRound(c *runCtx, scheme string) (simRound, error) {
	var r simRound
	base := heapMB() // also collects the previous round, so every build starts from the same heap
	db, wl, s, openS, buildS, err := simOpen(scheme, c.seed, int(simRows*c.scale))
	if err != nil {
		return r, err
	}
	r.openS, r.buildS = openS, buildS
	cfg := abyss.RunConfig{
		WarmupCycles:  uint64(float64(simWarmCycles) * c.scale),
		MeasureCycles: uint64(float64(simMeasureCycles) * c.scale),
		AbortBackoff:  simBackoff,
	}
	// Two samples, accounting-only (the Result is byte-identical with and
	// without them): the heap's object count at the middle and at the end
	// of the measured window gives allocations per commit with the run's
	// own start-up and the warm-up left out.
	cfg.SampleEvery = cfg.MeasureCycles / 2
	var allocs []uint64
	var commits []uint64
	cfg.Observer = abyss.ObserverFunc(func(s abyss.Sample) {
		allocs = append(allocs, allocObjects())
		commits = append(commits, s.Commits)
	})
	t0 := time.Now()
	r.res, err = db.Run(s, wl, cfg)
	r.hostS = time.Since(t0).Seconds()
	if err != nil {
		return r, err
	}
	if n := len(allocs); n >= 2 && commits[n-1] > 0 {
		r.allocsPerTxn = float64(allocs[n-1]-allocs[n-2]) / float64(commits[n-1])
	}
	sig, err := json.Marshal(r.res)
	if err != nil {
		return r, err
	}
	r.sig = string(sig)
	r.heap = heapMB() - base
	runtime.KeepAlive(db)
	runtime.KeepAlive(wl)
	return r, nil
}

// simCheck runs one short captured window of scheme and verifies the
// history is serializable. It returns how many transactions it checked.
func simCheck(c *runCtx, scheme string) (txns uint64, err error) {
	db, wl, s, _, _, err := simOpen(scheme, c.seed, simCheckRows)
	if err != nil {
		return 0, err
	}
	res, err := db.Run(s, wl, abyss.RunConfig{
		WarmupCycles: simCheckWarm, MeasureCycles: simCheckMeasure, AbortBackoff: simBackoff, Check: true,
	})
	if err != nil {
		return 0, err
	}
	rep, err := db.CheckSerializability()
	if err != nil {
		return res.Commits, err
	}
	if !rep.OK() {
		return res.Commits, fmt.Errorf("%s", rep)
	}
	return res.Commits, nil
}

func runSimYCSB(c *runCtx) (*report, error) {
	rep := newReport()
	schemes := abyss.PaperSchemes()
	rounds := make(map[string][]simRound, len(schemes))

	// Rotations are scheme-interleaved, never scheme-major, so whatever
	// the machine does over the run is shared by all seven schemes.
	start := time.Now()
	var last time.Duration
	for c.fits(start, last) {
		t := time.Now()
		for _, name := range schemes {
			r, err := simRunRound(c, name)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			rounds[name] = append(rounds[name], r)
			rep.attempted += r.res.Commits + r.res.Deadlined + r.res.Shed
			rep.failed += r.res.Deadlined + r.res.Shed
			if first := rounds[name][0]; r.sig != first.sig {
				rep.problemf("%s: round %d differs from round 1 of the same seed: the simulator is not deterministic", name, len(rounds[name]))
				rep.failed += r.res.Commits
			}
		}
		last = time.Since(t)
	}
	for _, name := range schemes {
		n, err := simCheck(c, name)
		rep.attempted += n
		if err != nil {
			rep.problemf("%s: serializability check: %v", name, err)
			rep.failed += n
		}
	}

	var setup, open, build []float64
	var tps, heap, modelTPS, perCore, hostPerSim, allocs []float64
	var lat latencies // per scheme, simulated µs
	shareSum := map[string]float64{}
	detail := map[string]any{}
	for _, name := range schemes {
		rs := rounds[name]
		var sTPS, sHeap, sHost, sAllocs []float64
		for _, r := range rs {
			setup = append(setup, r.openS+r.buildS)
			open = append(open, r.openS)
			build = append(build, r.buildS)
			sTPS = append(sTPS, float64(r.res.Commits)/r.hostS)
			sHeap = append(sHeap, r.heap)
			simUS := float64(r.res.MeasureCycles+uint64(float64(simWarmCycles)*c.scale)) / r.res.Frequency * 1e6
			sHost = append(sHost, r.hostS*1e6/simUS)
			sAllocs = append(sAllocs, r.allocsPerTxn)
		}
		res := rs[0].res // every round of a scheme is the same Result
		usPerCycle := 1e6 / res.Frequency
		tps = append(tps, median(sTPS))
		heap = append(heap, median(sHeap))
		hostPerSim = append(hostPerSim, median(sHost))
		allocs = append(allocs, median(sAllocs))
		lat = append(lat, latency{
			p50: float64(res.Latency.P50()) * usPerCycle,
			p95: float64(res.Latency.P95()) * usPerCycle, p99: float64(res.Latency.P99()) * usPerCycle,
		})
		modelTPS = append(modelTPS, res.Throughput())
		pc, err := modelTxnPerCoreS(res, paperComponents)
		if err != nil {
			return nil, err
		}
		perCore = append(perCore, pc)
		cycles, err := modelCycles(res)
		if err != nil {
			return nil, err
		}
		total := max(sumOf(cycles, paperComponents), 1)
		for _, k := range paperComponents {
			shareSum[k] += cycles[k] / total
		}
		rep.m["cc."+name+".model_txn_per_s"] = value{res.Throughput(), 1}
		rep.m["cc."+name+".model_abort_pct"] = value{100 * res.AbortFraction(), 1}
		rep.m["cc."+name+".sim_txn_per_s"] = value{median(sTPS), len(sTPS)}
		detail[name] = map[string]any{"sim_txn_per_s": sTPS, "heap_mb": sHeap}
	}
	ns := len(schemes)
	rep.m["setup_s"] = value{median(setup), len(setup)}
	rep.m["heap_mb"] = value{geomean(heap), ns}
	rep.m["model_txn_per_core_s"] = value{geomean(perCore), ns}

	rep.m["txn_per_s"] = value{geomean(tps), ns}
	rep.m["model_txn_per_s"] = value{geomean(modelTPS), ns}
	rep.m["model_lat_p50_us"] = value{geomean(lat.col(latP50)), ns}
	rep.m["model_lat_p95_us"] = value{geomean(lat.col(latP95)), ns}
	rep.m["model_lat_p99_us"] = value{geomean(lat.col(latP99)), ns}
	rep.m["setup.open_s"] = value{median(open), len(open)}
	rep.m["setup.build_s"] = value{median(build), len(build)}
	rep.m["sim.host_us_per_sim_us"] = value{geomean(hostPerSim), ns}
	rep.m["sim.allocs_per_txn"] = value{mean(allocs), ns}
	for _, k := range paperComponents {
		rep.m["sim.share_"+k] = value{100 * shareSum[k] / float64(ns), ns}
	}
	rep.notes["rounds"] = detail
	rep.notes["setup_s"] = setup
	return rep, nil
}
