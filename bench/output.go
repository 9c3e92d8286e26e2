package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"abyss1000/internal/core"
	"abyss1000/internal/stats"
)

// RunMeta describes a whole abyss-bench invocation. It contains only
// determinism-relevant settings — no timestamps, durations or pool widths
// — so the JSON document for a given (experiments, params) pair is
// byte-identical regardless of when or how parallel the run was.
type RunMeta struct {
	// Paper identifies the evaluation being reproduced.
	Paper string `json:"paper"`
	// Scale is "quick", "full", or "custom" (flag-overridden).
	Scale string `json:"scale"`
	// Params are the exact parameters every experiment ran with.
	Params Params `json:"params"`
}

// ReportFigure pairs a registry experiment id with its rendered figure.
type ReportFigure struct {
	Experiment string  `json:"experiment"`
	Figure     *Figure `json:"figure"`
}

// Report is the machine-readable form of one abyss-bench run: run
// metadata plus every figure with every point's full core.Result
// (commits, aborts, tuples, and the six-component cycle breakdown).
type Report struct {
	Meta    RunMeta        `json:"meta"`
	Figures []ReportFigure `json:"figures"`
	// Table2 carries the bottleneck-summary table when the run included
	// it (-all or -table 2).
	Table2 string `json:"table2,omitempty"`
}

// NewReport assembles a report from the experiments es and the figures
// they produced (parallel slices, as returned by BuildAll).
func NewReport(meta RunMeta, es []Experiment, figs []*Figure) *Report {
	rep := &Report{Meta: meta}
	for i, e := range es {
		rep.Figures = append(rep.Figures, ReportFigure{Experiment: e.ID, Figure: figs[i]})
	}
	return rep
}

// JSON renders the report as indented JSON with a trailing newline. The
// output is deterministic: same experiments, same params, same bytes.
func (rep *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// csvColumns is the flat per-point CSV header. The first columns locate
// the point within its figure; the rest are the full core.Result plus the
// derived metrics the paper plots, the commit-latency percentiles (our
// extension beyond the paper's throughput-only evaluation), and the
// per-transaction-type summary.
func csvColumns() []string {
	cols := []string{
		"experiment", "figure", "series", "x", "y",
		"scheme", "workers", "commits", "aborts", "tuples",
		"measure_cycles", "frequency_hz", "throughput_txn_s", "abort_fraction",
		"offered_tps", "goodput_tps", "shed", "deadlined",
		"queue_depth_p50", "queue_depth_max",
		"lat_p50_cycles", "lat_p95_cycles", "lat_p99_cycles", "lat_max_cycles",
	}
	for c := stats.Component(0); c < stats.NumComponents; c++ {
		cols = append(cols, c.Key()+"_cycles")
	}
	return append(cols, "per_txn")
}

// perTxnCSV flattens the per-type sub-results into one comma-free field:
// `name=commits/aborts/p50/p99` entries joined by `;`, empty when the
// workload declared no types. The full per-type histograms live in the
// JSON form; this column carries the headline numbers so the CSV stays
// one flat row per point.
func perTxnCSV(per []core.TxnStats) string {
	if len(per) == 0 {
		return ""
	}
	var b strings.Builder
	for i := range per {
		t := &per[i]
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%d/%d/%d/%d", csvEscape(t.Name), t.Commits, t.Aborts, t.Latency.P50(), t.Latency.P99())
	}
	return b.String()
}

// CSV renders every data point as one flat row (breakdown tables are a
// per-point projection of the same cycle counters, so they are not
// repeated separately). Fields never need quoting: series names contain
// no commas and numbers are formatted with strconv.
func (rep *Report) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(csvColumns(), ","))
	b.WriteByte('\n')
	for _, rf := range rep.Figures {
		for _, s := range rf.Figure.Series {
			for _, pt := range s.Points {
				r := pt.Res
				fields := []string{
					rf.Experiment,
					csvEscape(rf.Figure.ID),
					csvEscape(s.Name),
					formatFloat(pt.X),
					formatFloat(finite(pt.Y)),
					r.Scheme,
					strconv.Itoa(r.Workers),
					strconv.FormatUint(r.Commits, 10),
					strconv.FormatUint(r.Aborts, 10),
					strconv.FormatUint(r.Tuples, 10),
					strconv.FormatUint(r.MeasureCycles, 10),
					formatFloat(r.Frequency),
					formatFloat(finite(r.Throughput())),
					formatFloat(finite(r.AbortFraction())),
					formatFloat(finite(r.OfferedTPS())),
					formatFloat(finite(r.Throughput())),
					strconv.FormatUint(r.Shed, 10),
					strconv.FormatUint(r.Deadlined, 10),
					strconv.FormatUint(r.QueueDepth.P50(), 10),
					strconv.FormatUint(r.QueueDepth.Max(), 10),
					strconv.FormatUint(r.Latency.P50(), 10),
					strconv.FormatUint(r.Latency.P95(), 10),
					strconv.FormatUint(r.Latency.P99(), 10),
					strconv.FormatUint(r.Latency.Max(), 10),
				}
				for c := stats.Component(0); c < stats.NumComponents; c++ {
					fields = append(fields, strconv.FormatUint(r.Breakdown.Get(c), 10))
				}
				fields = append(fields, perTxnCSV(r.PerTxn))
				b.WriteString(strings.Join(fields, ","))
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// csvEscape replaces the field separator; names in this package never
// contain commas, but a future figure title should not corrupt the file.
func csvEscape(s string) string { return strings.ReplaceAll(s, ",", ";") }

// finite maps NaN/Inf (possible only for artificial zero results) to 0 so
// the output stays valid JSON/CSV.
func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// pointJSON fixes the Point wire format: the raw result plus the derived
// metrics — throughput, abort fraction and the commit-latency percentiles
// — so consumers need no cycle arithmetic or histogram math.
type pointJSON struct {
	X             float64     `json:"x"`
	Y             float64     `json:"y"`
	Result        core.Result `json:"result"`
	Throughput    float64     `json:"throughput_txn_s"`
	AbortFraction float64     `json:"abort_fraction"`
	OfferedTPS    float64     `json:"offered_tps"`
	GoodputTPS    float64     `json:"goodput_tps"`
	LatP50        uint64      `json:"lat_p50_cycles"`
	LatP95        uint64      `json:"lat_p95_cycles"`
	LatP99        uint64      `json:"lat_p99_cycles"`
	LatMax        uint64      `json:"lat_max_cycles"`
}

// MarshalJSON emits the point with its full result and derived metrics.
func (pt Point) MarshalJSON() ([]byte, error) {
	return json.Marshal(pointJSON{
		X:             pt.X,
		Y:             finite(pt.Y),
		Result:        pt.Res,
		Throughput:    finite(pt.Res.Throughput()),
		AbortFraction: finite(pt.Res.AbortFraction()),
		OfferedTPS:    finite(pt.Res.OfferedTPS()),
		GoodputTPS:    finite(pt.Res.Throughput()),
		LatP50:        pt.Res.Latency.P50(),
		LatP95:        pt.Res.Latency.P95(),
		LatP99:        pt.Res.Latency.P99(),
		LatMax:        pt.Res.Latency.Max(),
	})
}

// UnmarshalJSON restores a point written by MarshalJSON (the derived
// fields are recomputable and ignored).
func (pt *Point) UnmarshalJSON(data []byte) error {
	var v pointJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	pt.X, pt.Y, pt.Res = v.X, v.Y, v.Result
	return nil
}
