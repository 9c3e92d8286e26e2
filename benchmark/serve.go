package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"abyss1000/abyss"
	"abyss1000/serve"
	"abyss1000/serve/client"
)

// serve-wire and serve-durable: a served transaction end to end. An
// in-process serve.Server (NO_WAIT, SmallBank over 250 000 accounts — 150 MB
// with the scheme's per-row state, far beyond this machine's caches —
// two workers) is driven over the binary TCP protocol on 127.0.0.1 by two
// connections with four blocking callers each — a closed loop of eight:
// callers that wait for a reply are one, and a time-paced open-loop
// generator would measure this machine's timers, which fire about a
// millisecond late. The SmallBank body is about a microsecond, so codec,
// TCP, the per-connection window, Session admission and queueing, and the
// reply path are all but a sliver of the round trip.
//
// Eight in flight, not two: with one caller per connection both vCPUs go
// idle between the hops of a request, every wake-up goes through the
// hypervisor, the round trip turns bimodal (13 µs when the other vCPU was
// still spinning, 26 µs when it had halted) and its median repeats five
// times worse (quartile spread 16 % against 3 %). Eight callers keep both
// vCPUs busy; latency is then the latency at that concurrency, queueing
// in the session included.
//
// serve-durable is the same with Durability{Async: true} at the default
// group-commit settings on a sink that counts and discards (see
// countingSink). The gap between the two workloads is the price of
// acknowledging only durable writes and isolates internal/wal.
const (
	serveScheme   = "NO_WAIT"
	serveCores    = 2
	serveConns    = 2
	serveCallers  = 8 // caller j uses connection j % serveConns, routed to that worker
	serveAccounts = 250_000

	serveWarm    = 300 * time.Millisecond
	serveWindow  = 500 * time.Millisecond
	serveWindows = 6

	// A traced round is four windows: two spans per call in each caller's
	// buffer, two per transaction in each worker's, a third full today.
	serveTracedWindows = 4
	callerSpanCap      = 1 << 17

	// The recovery check retains its log, so it runs a short window on a
	// database small enough to dump and compare.
	serveCheckAccounts = 20_000
	serveCheckWindow   = 300 * time.Millisecond
)

// call is one invocation as its caller saw it.
type call struct {
	done    int64 // completion, ns since the round's epoch
	rtt     int64 // ns around Conn.Invoke
	elapsed int64 // the reply's server-side Elapsed, ns
	outcome byte
}

// callCap preallocates one round's calls per caller (four times what
// serve-wire completes today), so a caller never allocates while timing.
const callCap = 1 << 17

type serveRound struct {
	openS, buildS, listenDialS float64
	calls                      [serveCallers][]call // valid until the next round reuses the buffers
	transportErrs              uint64
	res                        abyss.Result
	heap                       float64
	db                         *abyss.DB
	ts                         *traceSet
	obs                        *observedWorkload       // traced rounds: the workers' spans
	callerRecs                 [serveCallers]*recorder // traced rounds: the callers' spans
	sink                       *countingSink
	logRecords                 uint64
	start                      int64 // first measured instant, ns since epoch
	window                     time.Duration
	windows                    int
}

type serveOpts struct {
	durable  bool
	traced   bool
	accounts int
	retain   abyss.LogSink // non-nil: the durable sink keeps its bytes here
	warm     time.Duration
	window   time.Duration
	windows  int
}

// serveRunRound builds a fresh server, drives it for warm + windows×window
// and shuts it down. The caller-side buffers come from bufs and are reused
// across rounds; they are live before the round starts, so heap_mb — the
// live heap's growth over the round — does not count them.
func serveRunRound(c *runCtx, o serveOpts, bufs *[serveCallers][]call) (*serveRound, error) {
	r := &serveRound{window: o.window, windows: o.windows}
	base := heapMB() // also collects the previous round, so every build starts from the same heap
	if o.traced {
		r.ts = newTraceSet()
	}
	t0 := time.Now()
	epoch := t0
	if r.ts != nil {
		epoch = r.ts.epoch
	}
	params, err := abyss.DefaultWorkloadParams(serveWorkload)
	if err != nil {
		return nil, err
	}
	params.Accounts = o.accounts
	cfg := serve.Config{
		Scheme: serveScheme, Workload: serveWorkload, Params: &params,
		Cores: serveCores, Seed: c.seed,
	}
	if o.durable {
		r.sink = newCountingSink(o.retain, epoch, r.ts)
		cfg.Durability = &abyss.Durability{Sink: r.sink, Async: true}
	}
	var buildStart, buildEnd time.Time
	serveBuildHook = func(db *abyss.DB, wl abyss.Workload, bs, be time.Time) abyss.Workload {
		r.db, buildStart, buildEnd = db, bs, be
		if r.ts == nil {
			return wl
		}
		r.obs = observe(wl, serveCores, epoch, r.ts, false)
		return r.obs
	}
	srv, err := serve.New(cfg)
	serveBuildHook = nil
	if err != nil {
		return nil, err
	}
	if err := srv.Start("", "127.0.0.1:0"); err != nil {
		srv.Shutdown()
		return nil, err
	}
	var conns [serveConns]client.Conn
	closeConns := func() {
		for _, conn := range conns {
			if conn != nil {
				conn.Close()
			}
		}
	}
	for i := range conns {
		if conns[i], err = client.DialBinary(srv.TCPAddr()); err != nil {
			closeConns()
			srv.Shutdown()
			return nil, err
		}
	}
	t2 := time.Now()
	r.openS = buildStart.Sub(t0).Seconds()
	r.buildS = buildEnd.Sub(buildStart).Seconds()
	// serve.New's remainder (scheme, session start) counts with listen+dial.
	r.listenDialS = t2.Sub(buildEnd).Seconds()

	if r.ts != nil {
		for i := range r.callerRecs {
			r.callerRecs[i] = r.ts.newRecorder(callerSpanCap)
		}
	}
	var stop atomic.Bool
	var errs atomic.Uint64
	var wg sync.WaitGroup
	r.start = int64(time.Since(epoch)) + int64(o.warm)
	for j := 0; j < serveCallers; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			// A connection's requests all route to one worker, so each
			// worker serves four callers through its own connection.
			conn := conns[j%serveConns]
			req := serve.InvokeRequest{Partition: j % serveConns}
			buf := bufs[j][:0]
			seq := uint64(j) << 32 // request ids are unique across callers
			for !stop.Load() {
				a := int64(time.Since(epoch))
				rep, err := conn.Invoke(req)
				b := int64(time.Since(epoch))
				if err != nil {
					errs.Add(1)
					break
				}
				seq++
				buf = append(buf, call{done: b, rtt: b - a, elapsed: int64(rep.Elapsed), outcome: rep.Outcome})
				if rec := r.callerRecs[j]; rec != nil {
					// The reply carries the server-side duration, not
					// its instants: centre it in the round trip.
					id := rec.add(spanInvoke, 0, seq, a, b)
					wire := (b - a) - int64(rep.Elapsed)
					rec.add(spanElapsed, id, seq, a+wire/2, b-wire/2)
				}
			}
			bufs[j] = buf
		}(j)
	}
	// One sleep bounds the round; the windows are cut afterwards from the
	// calls' own completion times, so a late timer only adds calls past the
	// last window, which are dropped.
	time.Sleep(o.warm + time.Duration(o.windows)*o.window)
	stop.Store(true)
	wg.Wait()
	r.transportErrs = errs.Load()
	r.calls = *bufs
	r.heap = heapMB() - base // the server is still up: its database is live
	closeConns()
	r.res, err = srv.Shutdown()
	if err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if o.durable {
		r.logRecords, _, _ = r.db.LogStats()
	}
	runtime.KeepAlive(srv)
	return r, nil
}

// ledger checks the round's books: every call the clients made is one the
// server was offered, every reply was a completion, and the drained Result
// agrees exactly. It books the round's attempted and failed operations on
// rep and returns the attempted count.
func (r *serveRound) ledger(rep *report, label string) (attempted uint64) {
	var byOutcome [6]uint64
	for i := range r.calls {
		for _, cl := range r.calls[i] {
			attempted++
			if int(cl.outcome) < len(byOutcome) {
				byOutcome[cl.outcome]++
			}
		}
	}
	attempted += r.transportErrs
	completed := byOutcome[serve.WireCommitted] + byOutcome[serve.WireUserAbort]
	failed := attempted - completed
	if failed != 0 {
		rep.problemf("%s: %d of %d calls did not complete (deadlined %d, shed %d, rejected %d, closed %d, transport errors %d)",
			label, failed, attempted, byOutcome[serve.WireDeadlined], byOutcome[serve.WireShed],
			byOutcome[serve.WireRejected], byOutcome[serve.WireClosed], r.transportErrs)
	}
	if r.res.Offered != attempted || r.res.Commits != completed || r.res.Shed != 0 || r.res.Deadlined != 0 {
		rep.problemf("%s: ledger does not close: clients made %d calls and saw %d complete; the server counted offered %d, commits %d, shed %d, deadlined %d",
			label, attempted, completed, r.res.Offered, r.res.Commits, r.res.Shed, r.res.Deadlined)
		failed = attempted
	}
	rep.attempted += attempted
	rep.failed += failed
	return attempted
}

// windowStats returns, per measured window, completed calls per second
// and the summary of a per-call quantity in µs. A window in which nothing
// completed — a stalled server — is 0 calls per second and has no latency
// summary.
func (r *serveRound) windowStats(of func(call) int64) (tps []float64, lat latencies) {
	byWindow := make([][]float64, r.windows)
	for i := range r.calls {
		for _, cl := range r.calls[i] {
			if cl.done < r.start {
				continue
			}
			if w := int((cl.done - r.start) / int64(r.window)); w < r.windows {
				byWindow[w] = append(byWindow[w], ns2us(float64(of(cl))))
			}
		}
	}
	for _, xs := range byWindow {
		tps = append(tps, float64(len(xs))/r.window.Seconds())
		if len(xs) > 0 {
			lat = append(lat, summarize(xs))
		}
	}
	return
}

func callRTT(c call) int64      { return c.rtt }
func callElapsed(c call) int64  { return c.elapsed }
func callWireSelf(c call) int64 { return c.rtt - c.elapsed }

// workerTimes returns, per transaction a worker ran in the measured part
// of a traced round, the time inside the workload's code (Next plus every
// body attempt) and the body time alone, in µs. With several requests in
// flight per worker nothing visible from outside says which call a
// transaction served — the server dispatches each frame on its own
// goroutine — so worker spans carry the worker's own sequence number and
// no parent, and the session's self time is a difference of medians.
func (r *serveRound) workerTimes() (inner, body []float64) {
	end := r.start + int64(r.windows)*int64(r.window)
	for i := range r.obs.workers {
		spans := r.obs.workers[i].rec.spans
		var in, bd float64
		for j, s := range spans {
			d := float64(s.end - s.start)
			in += d
			if s.name == spanBody {
				bd += d
			}
			if j+1 < len(spans) && spans[j+1].req == s.req {
				continue
			}
			if s.end >= r.start && s.end < end {
				inner = append(inner, ns2us(in))
				body = append(body, ns2us(bd))
			}
			in, bd = 0, 0
		}
	}
	return
}

// codecNSPerReq times the binary codec alone, the four calls one request
// costs both sides (AppendRequest, ParseRequest, AppendReply, ParseReply).
func codecNSPerReq() (value, error) {
	const batch, batches = 20_000, 11
	req := serve.InvokeRequest{Partition: 1}
	var per []float64
	buf := make([]byte, 0, 64)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			out, err := serve.AppendRequest(buf[:0], uint64(i), req)
			if err != nil {
				return value{}, err
			}
			id, _, err := serve.ParseRequest(out)
			if err != nil {
				return value{}, err
			}
			out = serve.AppendReply(buf[:0], id, serve.WireCommitted, time.Microsecond)
			if _, _, err := serve.ParseReply(out); err != nil {
				return value{}, err
			}
		}
		per = append(per, float64(time.Since(t0))/batch)
	}
	return value{median(per), batches}, nil
}

// recoveryCheck serves a short durable window with a retained log, then
// replays the log into a fresh database and compares the two states.
func recoveryCheck(c *runCtx, rep *report, bufs *[serveCallers][]call) (recoverUSPerTxn value, err error) {
	mem := abyss.NewMemLogSink()
	r, err := serveRunRound(c, serveOpts{
		durable: true, accounts: serveCheckAccounts, retain: mem,
		warm: 0, window: c.window(serveCheckWindow), windows: 1,
	}, bufs)
	if err != nil {
		return value{}, fmt.Errorf("recovery check: %w", err)
	}
	attempted := r.ledger(rep, "recovery check")
	live := r.db.StateDump()
	fresh, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: serveCores, Seed: c.seed})
	if err != nil {
		return value{}, err
	}
	p, err := abyss.DefaultWorkloadParams("smallbank")
	if err != nil {
		return value{}, err
	}
	p.Accounts = serveCheckAccounts
	if _, err := fresh.BuildWorkload("smallbank", p); err != nil {
		return value{}, err
	}
	t0 := time.Now()
	info, err := fresh.Recover(mem.Bytes())
	d := time.Since(t0)
	before := len(rep.problems)
	switch {
	case err != nil:
		rep.problemf("recovery check: %v", err)
	case info.TornBytes != 0:
		rep.problemf("recovery check: a cleanly closed log has %d torn bytes", info.TornBytes)
	case fresh.StateDump() != live:
		rep.problemf("recovery check: the recovered state differs from the live state (%d commits replayed, %d served)", info.Commits, r.res.Commits)
	}
	if len(rep.problems) > before {
		rep.failed += attempted // on top of whatever the ledger booked: the run is incorrect either way
	}
	return value{ns2us(float64(d)) / float64(max(info.Commits, 1)), info.Commits}, nil
}

// layerSamples collects the per-layer samples of traced rounds: one entry
// per window for the window statistics, one per round for the rest.
type layerSamples struct {
	tps, wire50, wire99, el50, el99, self, body []float64
	abortPct, shedPct, depth99                  []float64
	bytesPerTxn, recsPerSync, syncsPerTxn       []float64
	writeBytes, flushGap                        []float64
}

func (ls *layerSamples) add(r *serveRound) {
	t, _ := r.windowStats(callRTT)
	ls.tps = append(ls.tps, t...)
	_, wire := r.windowStats(callWireSelf)
	ls.wire50 = append(ls.wire50, wire.col(latP50)...)
	ls.wire99 = append(ls.wire99, wire.col(latP99)...)
	_, elapsed := r.windowStats(callElapsed)
	ls.el50 = append(ls.el50, elapsed.col(latP50)...)
	ls.el99 = append(ls.el99, elapsed.col(latP99)...)
	inner, body := r.workerTimes()
	ls.self = append(ls.self, median(elapsed.col(latP50))-median(inner))
	ls.body = append(ls.body, median(body))
	ls.abortPct = append(ls.abortPct, 100*r.res.AbortFraction())
	ls.shedPct = append(ls.shedPct, 100*r.res.ShedFraction())
	ls.depth99 = append(ls.depth99, float64(r.res.QueueDepth.P99()))
	if r.sink == nil {
		return
	}
	writes, bytes, syncs := r.sink.snapshot()
	commits := float64(max(r.res.Commits, 1))
	ls.bytesPerTxn = append(ls.bytesPerTxn, float64(bytes)/commits)
	ls.syncsPerTxn = append(ls.syncsPerTxn, float64(len(syncs))/commits)
	ls.recsPerSync = append(ls.recsPerSync, float64(r.logRecords)/float64(max(len(syncs), 1)))
	ls.writeBytes = append(ls.writeBytes, float64(bytes)/float64(max(writes, 1)))
	gaps := make([]float64, 0, len(syncs))
	for i := 1; i < len(syncs); i++ {
		gaps = append(gaps, ns2us(float64(syncs[i]-syncs[i-1])))
	}
	ls.flushGap = append(ls.flushGap, median(gaps))
}

func runServe(c *runCtx, durable bool) (*report, error) {
	rep := newReport()
	name := "serve-wire"
	if durable {
		name = "serve-durable"
	}
	var bufs [serveCallers][]call
	for i := range bufs {
		bufs[i] = make([]call, 0, callCap)
	}
	opts := serveOpts{
		durable: durable, accounts: int(serveAccounts * c.scale),
		warm: c.window(serveWarm), window: c.window(serveWindow), windows: serveWindows,
	}
	tracedOpts := opts
	tracedOpts.traced = true
	tracedOpts.windows = serveTracedWindows

	var setup, open, build, listenDial, heap, perCore []float64
	var tps []float64
	var lat latencies
	var ls layerSamples
	var firstTrace *traceSet

	start := time.Now()
	var last time.Duration
	for c.fits(start, last) {
		t := time.Now()
		r, err := serveRunRound(c, opts, &bufs)
		if err != nil {
			return nil, err
		}
		r.ledger(rep, fmt.Sprintf("round %d", len(setup)+1))
		setup = append(setup, r.openS+r.buildS+r.listenDialS)
		open = append(open, r.openS)
		build = append(build, r.buildS)
		listenDial = append(listenDial, r.listenDialS)
		heap = append(heap, r.heap)
		pc, err := modelTxnPerCoreS(r.res, nativeModelComponents)
		if err != nil {
			return nil, err
		}
		perCore = append(perCore, pc)
		wTPS, wLat := r.windowStats(callRTT)
		tps = append(tps, wTPS...)
		lat = append(lat, wLat...)
		if c.trace {
			// A traced round right after its untraced twin.
			tr, err := serveRunRound(c, tracedOpts, &bufs)
			if err != nil {
				return nil, fmt.Errorf("traced round: %w", err)
			}
			tr.ledger(rep, fmt.Sprintf("traced round %d", len(setup)))
			ls.add(tr)
			if firstTrace == nil {
				firstTrace = tr.ts
			}
		}
		last = time.Since(t)
	}

	var recoverUS value
	if durable {
		var err error
		if recoverUS, err = recoveryCheck(c, rep, &bufs); err != nil {
			return nil, err
		}
	}

	med := func(xs []float64) value { return value{median(xs), len(xs)} }
	rep.m["setup_s"] = med(setup)
	rep.m["heap_mb"] = med(heap)
	rep.m["model_txn_per_core_s"] = med(perCore)

	rep.m["txn_per_s"] = med(tps)
	rep.m["lat_mean_us"] = med(lat.col(latMean))
	rep.m["lat_p50_us"] = med(lat.col(latP50))
	rep.m["lat_p95_us"] = med(lat.col(latP95))
	rep.m["lat_p99_us"] = med(lat.col(latP99))
	rep.m["setup.open_s"] = med(open)
	rep.m["setup.build_s"] = med(build)
	rep.m["setup.listen_dial_s"] = med(listenDial)
	rep.notes["windows"] = map[string]any{"txn_per_s": tps, "mean_us": lat.col(latMean), "p95_us": lat.col(latP95)}
	rep.notes["setup_s"] = setup
	rep.notes["heap_mb"] = heap
	rep.notes["model_txn_per_core_s"] = perCore
	if !c.trace {
		return rep, nil
	}

	rep.m["serve.wire_self_p50_us"] = med(ls.wire50)
	rep.m["serve.wire_self_p99_us"] = med(ls.wire99)
	rep.m["serve.shed_pct"] = med(ls.shedPct)
	rep.m["session.elapsed_p50_us"] = med(ls.el50)
	rep.m["session.elapsed_p99_us"] = med(ls.el99)
	rep.m["session.self_p50_us"] = med(ls.self)
	rep.m["session.abort_pct"] = med(ls.abortPct)
	rep.m["session.queue_depth_p99"] = med(ls.depth99)
	rep.m["txn.body_us"] = med(ls.body)
	rep.m["trace.overhead_pct"] = value{100 * (median(tps)/median(ls.tps) - 1), len(ls.tps)}
	codec, err := codecNSPerReq()
	if err != nil {
		return nil, err
	}
	rep.m["serve.codec_ns_per_req"] = codec
	if durable {
		rep.m["wal.bytes_per_txn"] = med(ls.bytesPerTxn)
		rep.m["wal.records_per_sync"] = med(ls.recsPerSync)
		rep.m["wal.syncs_per_txn"] = med(ls.syncsPerTxn)
		rep.m["wal.write_bytes_mean"] = med(ls.writeBytes)
		rep.m["wal.flush_interval_p50_us"] = med(ls.flushGap)
		rep.m["wal.recover_us_per_txn"] = recoverUS
		// wal.durable_penalty_us: what acknowledging only durable writes
		// adds to the session's self time, against one traced round of
		// the same server without a log.
		wireOpts := tracedOpts
		wireOpts.durable = false
		wr, err := serveRunRound(c, wireOpts, &bufs)
		if err != nil {
			return nil, fmt.Errorf("traced wire round: %w", err)
		}
		wr.ledger(rep, "traced wire round")
		var wire layerSamples
		wire.add(wr)
		rep.m["wal.durable_penalty_us"] = value{median(ls.self) - median(wire.self), len(ls.self)}
	}
	if err := finishTrace(c, rep, name, firstTrace); err != nil {
		return nil, err
	}
	return rep, nil
}
