// Command benchmark is the repository's performance benchmark: four
// workloads over the public packages only (abyss, serve, serve/client,
// workloads/*), each reporting the end-to-end metrics of BENCHMARK.json
// with tracing off, or — with -trace 1 — the per-layer metrics from rounds
// traced at the public seams. See README.md in this directory.
//
// It is its own module so that it builds only from a full checkout and
// never rides along in the product's `go build ./...`; run it from the
// repository root through benchmark/run.sh:
//
//	bash benchmark/run.sh --workload serve-wire --seed 42 --seconds 26 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"abyss1000/abyss"
)

// value is one reported number with the count of samples behind it (rounds
// or windows for a median, schemes for a geometric mean of medians).
type value struct {
	V float64
	N int
}

// report is what a workload hands back. m holds every metric the run
// measured, end-to-end and per-layer alike; which of them are printed is
// BENCHMARK.json's business (see run).
type report struct {
	attempted, failed uint64
	problems          []string // failed correctness checks
	m                 map[string]value
	notes             map[string]any // per-round detail for the -out document
}

func newReport() *report {
	return &report{m: map[string]value{}, notes: map[string]any{}}
}

func (r *report) problemf(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// runCtx is one invocation's arguments as the workloads see them.
type runCtx struct {
	seed   int64
	budget time.Duration // the timed part: rounds stop when the next would overrun it
	trace  bool
	scale  float64 // 1, or 0.1 under -quick: every window is that much shorter, every table that much smaller
	outDir string  // where traces go
}

// window scales a nominal round duration for -quick.
func (c *runCtx) window(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.scale)
}

// fits reports whether another round (or rotation) of the size of the last
// one still fits the budget. The first always runs. A traced run keeps a
// sixth of the budget for what follows its rounds (probes, the trace file).
func (c *runCtx) fits(start time.Time, last time.Duration) bool {
	budget := c.budget
	if c.trace {
		budget -= budget / 6
	}
	return last == 0 || time.Since(start)+last <= budget
}

var workloads = map[string]func(*runCtx) (*report, error){
	"sim-ycsb":      runSimYCSB,
	"native-tpcc":   runNativeTPCC,
	"serve-wire":    func(c *runCtx) (*report, error) { return runServe(c, false) },
	"serve-durable": func(c *runCtx) (*report, error) { return runServe(c, true) },
}

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json, the single definition of which metrics
// exist, their units and their bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`

	root string // directory BENCHMARK.json was found in
}

// loadSpec finds BENCHMARK.json in the working directory (the repository
// root, where run.sh runs) or its parent (go test runs in benchmark/).
func loadSpec() (*benchSpec, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		s.root = dir
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root")
}

// outMetric is a metric as printed.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// docMetric is a metric in the -out document: its value and the count of
// samples behind it.
type docMetric struct {
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// runDoc is one run in full — what -out appends and -compare reads. All
// holds every metric the run measured, not only the ones its mode prints:
// an untraced run still knows its wall-clock throughput, and -compare
// reports it.
type runDoc struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Seconds  float64              `json:"seconds"`
	Trace    bool                 `json:"trace"`
	Result   resultLine           `json:"result"`
	All      map[string]docMetric `json:"all"`
	Problems []string             `json:"problems,omitempty"`
	Env      map[string]any       `json:"env"`
	Notes    map[string]any       `json:"notes,omitempty"`
	Elapsed  map[string]float64   `json:"elapsed_s"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: sim-ycsb, native-tpcc, serve-wire, serve-durable")
		seed     = fs.Int64("seed", 42, "seed of every generated input (Options.Seed / serve.Config.Seed)")
		seconds  = fs.Float64("seconds", 0, "length of the timed part (default: BENCHMARK.json run_seconds)")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced rounds")
		quick    = fs.Bool("quick", false, "smoke mode: every window a tenth as long, every table a tenth the size (numbers are not comparable)")
		out      = fs.String("out", "", "append the full run document (metrics with n, environment, per-round detail) to this JSONL file")
		compare  = fs.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files written with -out")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	fn, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "benchmark: unknown -workload %q (valid: %v)\n", *workload, names)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if runtime.NumCPU() < 2 {
		// Every workload is sized by constants, not by the machine; the
		// serve workloads need a core for the server and one for clients.
		fmt.Fprintln(stderr, "benchmark: needs at least 2 CPUs")
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	c := &runCtx{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		scale:  1,
		outDir: filepath.Join(spec.root, "benchmark", "out"),
	}
	if *quick {
		c.scale = 0.1
	}

	t0 := time.Now()
	env := probeEnv(*seed)
	t1 := time.Now()
	rep, err := fn(c)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	t2 := time.Now()

	// Every measured metric must be listed in BENCHMARK.json and finite.
	// Exactly the metrics it lists for this mode are printed: a per-layer
	// metric this workload's path never touches reads 0 (the layer did no
	// work); an end-to-end metric must be a positive number.
	known := make(map[string]bool, len(spec.EndToEnd)+len(spec.PerLayer))
	for _, m := range spec.EndToEnd {
		known[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		known[m.Name] = true
	}
	all := make(map[string]docMetric, len(rep.m))
	for name, v := range rep.m {
		if !known[name] {
			rep.problemf("metric %s is measured but not listed in BENCHMARK.json", name)
		}
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			rep.problemf("metric %s is not finite", name)
			v.V = 0
		}
		all[name] = docMetric{Value: v.V, N: v.N}
	}
	specs := spec.EndToEnd
	if c.trace {
		specs = spec.PerLayer
	}
	line := resultLine{
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]outMetric, len(specs)),
	}
	for _, m := range specs {
		v := all[m.Name].Value
		if !c.trace && v <= 0 {
			rep.problemf("end-to-end metric %s is %g, want > 0", m.Name, v)
		}
		line.Metrics[m.Name] = outMetric{Value: v, Unit: m.Unit}
	}
	if line.Attempted == 0 {
		rep.problemf("no operation was attempted")
	}
	line.Correct = len(rep.problems) == 0

	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "benchmark: INCORRECT:", p)
	}
	if *out != "" {
		doc := runDoc{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: c.trace,
			Result: line, All: all, Problems: rep.problems, Env: env, Notes: rep.notes,
			Elapsed: map[string]float64{"env": t1.Sub(t0).Seconds(), "workload": t2.Sub(t1).Seconds()},
		}
		if err := appendDoc(*out, doc); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	printTable(stderr, *workload, specs, all, line, env)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

func appendDoc(path string, doc runDoc) error {
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// printTable is the human-readable form, on standard error so the last
// line of standard output stays the contract's JSON object.
func printTable(w io.Writer, workload string, specs []metricSpec, all map[string]docMetric, line resultLine, env map[string]any) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, line.Correct, line.Attempted, line.Failed)
	for _, m := range specs {
		fmt.Fprintf(w, "  %-34s %16.4f %-8s n=%d\n", m.Name, all[m.Name].Value, m.Unit, all[m.Name].N)
	}
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  env %-30s %v\n", k, env[k])
	}
}

// probeEnv is the environment block: enough to tell a failed comparison
// from a drifted machine. The two probes cost about 60 ms.
func probeEnv(seed int64) map[string]any {
	env := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"gogc":       os.Getenv("GOGC"), // empty: the default, 100
		"seed":       seed,
		"commit":     "unknown", // the driver's checkout is not a git repository
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	// env.timer_late_us: median overshoot of time.Sleep(100µs). Around a
	// millisecond here, which is why no workload paces itself by a timer.
	late := make([]float64, 0, 21)
	for i := 0; i < 21; i++ {
		t := time.Now()
		time.Sleep(100 * time.Microsecond)
		late = append(late, float64(time.Since(t)-100*time.Microsecond)/1e3)
	}
	env["env.timer_late_us"] = median(late)
	// env.spin_ms: a fixed register-only loop, median of 5. It moves with
	// the CPU share this container is getting, and with nothing else.
	spins := make([]float64, 0, 5)
	for i := 0; i < 5; i++ {
		t := time.Now()
		x := uint64(seed) | 1
		for j := 0; j < 4_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		spins = append(spins, float64(time.Since(t))/1e6)
	}
	env["env.spin_ms"] = median(spins)
	return env
}

var spinSink uint64 // keeps the probe loop's result alive

// paperComponents are the six components of the paper's time breakdown
// (§3.2) under the breakdown's own stable JSON keys — the public wire
// form; internal/stats is not importable from here.
var paperComponents = []string{"useful", "abort", "ts_alloc", "index", "wait", "manager"}

// nativeModelComponents are the components whose cycles the native runtime
// takes from the cost model alone: there a Tick only accounts. Natively
// wait is wall-clock time and abort follows the host's real interleaving
// (no two rounds conflict alike), so neither is modelled time there.
var nativeModelComponents = []string{"useful", "ts_alloc", "index", "manager"}

// modelCycles returns the cycles a Result's breakdown bills to each paper
// component.
func modelCycles(res abyss.Result) (map[string]float64, error) {
	data, err := json.Marshal(res.Breakdown)
	if err != nil {
		return nil, err
	}
	var all map[string]float64
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, err
	}
	by := make(map[string]float64, len(paperComponents))
	for _, k := range paperComponents {
		by[k] = all[k]
	}
	return by, nil
}

// modelTxnPerCoreS is the end-to-end metric model_txn_per_core_s:
// committed transactions per second of modelled core time, summed over
// components. On the simulator, with all six, that is the paper's
// throughput divided by its core count; natively, with the four above, it
// is what the cost model says the committed work costs, and it does not
// move with the host's speed.
func modelTxnPerCoreS(res abyss.Result, components []string) (float64, error) {
	by, err := modelCycles(res)
	if err != nil {
		return 0, err
	}
	total := sumOf(by, components)
	if total <= 0 || res.Frequency <= 0 {
		return 0, nil
	}
	return float64(res.Commits) / (total / res.Frequency), nil
}

func sumOf(by map[string]float64, keys []string) (sum float64) {
	for _, k := range keys {
		sum += by[k]
	}
	return sum
}

// heapMB forces a collection and returns the live heap in MB (1e6 bytes).
// Callers keep the database under measurement reachable across the call.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
