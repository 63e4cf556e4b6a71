// Command perfbench is the end-to-end benchmark of the PerfVec reproduction.
// One run takes a workload and a seed, generates its inputs from the seed,
// and drives the three paths a PerfVec user takes, each as timed phases of
// fixed work:
//
//   - train: ground-truth collection (emulate, featurize, simulate on K=16
//     microarchitectures), foundation-model training on a fixed step budget,
//     and held-out error on the testing programs;
//   - predict: the offline DSE path (raw unseen programs to representations,
//     then a batched sweep over a generated candidate space with top-k);
//   - serve: the real HTTP handler over loopback, with an open-loop cold
//     phase of new programs, a closed-loop capacity phase, and an open-loop
//     warm phase of cache hits, predictions and cached sweeps.
//
// The workload selects the foundation model's recurrent cell (lstm or gru);
// both see the same seeded inputs. Every output is checked against an
// offline recomputation, and every mismatch counts as a failed operation.
//
// With --trace 0 the last line of standard output is the end-to-end result;
// with --trace 1 the run records spans around every call into a layer in
// every other round of the pipeline, adds per-layer probes, writes the spans
// under .bench_build, and prints the per-layer metrics plus the tracing
// overhead of the traced rounds against the untraced ones.
//
// Usage:
//
//	bash perfbench/run.sh --workload lstm --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/perfvec"
)

// workloads maps each workload name to the encoder cell it runs.
var workloads = map[string]perfvec.ModelKind{
	"lstm": perfvec.ModelLSTM,
	"gru":  perfvec.ModelGRU,
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phaseStat counts one phase's operations.
type phaseStat struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	WallS     float64 `json:"wall_s"`
	paced     bool    // an open loop: its wall time is set by its rate
}

// op records one operation's outcome.
func (p *phaseStat) op(ok bool) {
	p.Attempted++
	if ok {
		p.Succeeded++
	} else {
		p.Failed++
	}
}

// report is everything a run measured: the metrics, the per-phase counts,
// the percentiles with their sample counts, and the reasons for failures.
type report struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Traced      bool                 `json:"traced"`
	GoMaxProcs  int                  `json:"gomaxprocs"`
	Phases      []*phaseStat         `json:"phases"`
	Percentiles map[string]pctl      `json:"percentiles"`
	Rounds      map[string][]float64 `json:"rounds"`
	Metrics     map[string]metric    `json:"metrics"`
	Problems    []string             `json:"problems,omitempty"`
	Spans       []spanStat           `json:"spans,omitempty"`
}

func newReport(o opts) *report {
	return &report{
		Workload: o.workload, Seed: o.seed, Traced: o.trace,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Percentiles: map[string]pctl{},
		Rounds:      map[string][]float64{},
		Metrics:     map[string]metric{},
	}
}

// phase starts counting a new phase.
func (r *report) phase(name string) *phaseStat {
	p := &phaseStat{Name: name}
	r.Phases = append(r.Phases, p)
	return p
}

// set records a metric.
func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// rate records a per-second metric as the work of all rounds over their
// busy time, keeping each round's rate in the report.
func (r *report) rate(name string, t throughput) {
	r.Rounds[name] = t.perRound()
	r.set(name, t.rate(), "1/s")
}

// problem records why an operation failed; the first few of each kind are
// kept so a failing run explains itself.
func (r *report) problem(format string, args ...any) {
	if len(r.Problems) < 50 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// latency records a latency percentile pair (p50 and p90) with its sample
// count under the given metric prefix, and fails the run when the sample
// cannot support the p90.
func (r *report) latency(prefix string, lat []time.Duration) error {
	vals := ms(lat)
	p50, p90 := percentile(vals, 50), percentile(vals, 90)
	r.Percentiles[prefix+"_p50_ms"] = p50
	r.Percentiles[prefix+"_p90_ms"] = p90
	r.set(prefix+"_p50_ms", p50.Value, "ms")
	r.set(prefix+"_p90_ms", p90.Value, "ms")
	return p90.check(prefix)
}

// opts are the command-line arguments.
type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	arch     perfvec.ModelKind
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (opts, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o opts
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: lstm or gru")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds the fixed work is sized for")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	arch, ok := workloads[o.workload]
	if !ok {
		return o, fmt.Errorf("unknown workload %q (want lstm or gru)", o.workload)
	}
	if o.seconds < 1 {
		return o, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.arch, o.trace = arch, trace == 1
	return o, nil
}

func run(o opts) error {
	// The process may use at most two CPUs, and never more than the host
	// has; every worker pool inside the program keeps its default size.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	in, err := genInputs(o, sizesFor(o.seconds))
	if err != nil {
		return err
	}
	rep := newReport(o)
	var out result
	if !o.trace {
		s, err := pipeline(in, rep, nil)
		if err != nil {
			return err
		}
		s.st.close()
		rep.set("mem_mb", peakRSSMB(), "MB")
		out.Metrics = rep.Metrics
	} else {
		m, err := tracedRun(in, rep)
		if err != nil {
			return err
		}
		out.Metrics = m
	}
	for _, p := range rep.Phases {
		out.Attempted += p.Attempted
		out.Failed += p.Failed
	}
	out.Correct = out.Failed == 0 && len(rep.Problems) == 0
	if out.Attempted < 1 {
		return errors.New("no operations attempted")
	}
	detail, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	last, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", detail, last)
	return nil
}

// tracedRun runs the pipeline with every other round traced, probes the
// layers under the tracer, writes the spans out, and returns the per-layer
// metrics with the tracing overhead.
func tracedRun(in *inputs, rep *report) (map[string]metric, error) {
	tr := newTracer()
	s, err := pipeline(in, rep, tr)
	if err != nil {
		return nil, err
	}
	tr.pause(false)
	c, err := probeLayers(in, rep, tr, s)
	s.st.close()
	if err != nil {
		return nil, err
	}
	spans := tr.all()
	rep.Spans = summarize(spans)
	m := layerMetrics(in, s, spans, c)
	m["trace.overhead_pct"] = metric{overheadPct(s.busy, s.traced), "%"}

	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, in.o.workload+"-"+strconv.FormatInt(in.o.seed, 10)+".jsonl")
	fh, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(fh, spans); err != nil {
		fh.Close()
		return nil, err
	}
	if err := fh.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return m, nil
}

// overheadPct compares the mean work-bound time of the traced rounds with
// that of the untraced ones, in percent.
func overheadPct(busy []float64, traced []bool) float64 {
	var sum [2]float64
	var n [2]int
	for i, b := range busy {
		k := 0
		if traced[i] {
			k = 1
		}
		sum[k] += b
		n[k]++
	}
	if n[0] == 0 || n[1] == 0 {
		return math.NaN()
	}
	return 100 * (sum[1]/float64(n[1])/(sum[0]/float64(n[0])) - 1)
}

// peakRSSMB returns the process's peak resident set size in MB, from
// /proc/self/status where available, else the Go runtime's reserved memory.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
