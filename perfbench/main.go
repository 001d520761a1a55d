// Command perfbench is the repository's benchmark: it drives three
// workloads against the public API, checks every verdict, and prints each
// end-to-end metric (untraced runs) or per-layer metric (traced runs) by
// name with its unit. README.md in this directory explains the workloads
// and the layer-to-metric map.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload region1-all --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh -compare OLD.json NEW.json
//	bash perfbench/run.sh -manifest BENCHMARK.json
//
// The last line of standard output of a run is one JSON object with the
// keys correct, attempted, failed and metrics. A fuller record (machine,
// notes, every metric) goes to OUT/results/, and the traced run's spans
// to OUT/spans/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Workload names.
const (
	wlRegion1 = "region1-all"
	wlFullOld = "fullold-routing"
	wlService = "region1-delta-service"
)

// setupReps is how many times a run sets up its workload; setup_s is the
// median.
const setupReps = 3

type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	out      string
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+wlRegion1+", "+wlFullOld+" or "+wlService)
		seed     = flag.Int64("seed", 1, "workload seed (1 = the fixtures' own seeds, checked against the golden sets)")
		seconds  = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
		out      = flag.String("out", ".bench_build", "directory for result and span files")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments, layer by layer")
		manifest = flag.String("manifest", "", "write the benchmark manifest (BENCHMARK.json) to this path and exit")
	)
	flag.Parse()
	switch {
	case *manifest != "":
		if err := writeManifest(*manifest); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	cfg := runConfig{workload: *workload, seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}

	var (
		r   *Result
		err error
	)
	switch cfg.workload {
	case wlRegion1, wlFullOld:
		r, err = runCold(cfg)
	case wlService:
		r, err = runService(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fatal(err)
	}
	if err := r.write(cfg); err != nil {
		fatal(err)
	}
	r.print(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// Metric is one printed value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome.
type Result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     bool    `json:"trace"`
	Seconds   float64 `json:"seconds"`
	Env       Env     `json:"env"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// TailLevel, TailSamples and TailBeyond qualify verify_tail_ms: the
	// percentile reported, the number of latencies it was taken over, and
	// how many of them lie beyond it.
	TailLevel   float64   `json:"tail_level,omitempty"`
	TailSamples int       `json:"tail_samples,omitempty"`
	TailBeyond  int       `json:"tail_beyond,omitempty"`
	SetupRuns   []float64 `json:"setup_runs_s"`
	// LatenciesMS are the timed window's correct verdicts, in order.
	LatenciesMS []float64         `json:"latencies_ms,omitempty"`
	Metrics     map[string]Metric `json:"metrics"`
	Notes       []string          `json:"notes,omitempty"`

	spans []Span
}

func newResult(cfg runConfig, env Env) *Result {
	return &Result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Seconds: cfg.duration.Seconds(), Env: env, Correct: true, Metrics: map[string]Metric{}}
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records one failed attempt (an error, a refusal, a timeout or a
// wrong verdict).
func (r *Result) fail(why string) {
	r.Failed++
	r.Correct = false
	if r.Failed <= 10 {
		r.note("failed: %s", why)
	}
}

// wrongAll marks every attempt failed: a check outside the timed window
// found the verdict they all returned to be wrong.
func (r *Result) wrongAll(why string) {
	r.Failed = r.Attempted
	r.Correct = false
	r.note("wrong verdict: %s", why)
}

// endToEnd fills the end-to-end metrics from the timed window: the
// latencies of correct verdicts, the window's wall time, the CPU time
// spent in it and the peak RSS at its end.
func (r *Result) endToEnd(lat []float64, tailLevel float64, elapsed time.Duration, cpu, rssMB float64) {
	r.LatenciesMS = lat
	r.Metrics["setup_s"] = Metric{median(r.SetupRuns), "s"}
	r.Metrics["verify_p50_ms"] = Metric{median(lat), "ms"}
	v, beyond := tail(lat, tailLevel)
	r.TailLevel, r.TailSamples, r.TailBeyond = tailLevel, len(lat), beyond
	r.Metrics["verify_tail_ms"] = Metric{v, "ms"}
	r.Metrics["verdicts_per_s"] = Metric{float64(len(lat)) / elapsed.Seconds(), "1/s"}
	perVerdict := cpu
	if len(lat) > 0 {
		perVerdict = cpu / float64(len(lat))
	}
	r.Metrics["cpu_s_per_verdict"] = Metric{perVerdict, "s"}
	r.Metrics["peak_rss_mb"] = Metric{rssMB, "MB"}
	correct := 0.0
	if r.Attempted > 0 {
		correct = float64(r.Attempted-r.Failed) / float64(r.Attempted)
	}
	r.Metrics["correct_frac"] = Metric{correct, "ratio"}
	r.note("verify_tail_ms is p%g over %d verdicts, %d beyond it", 100*tailLevel, len(lat), beyond)
}

// perLayer fills the per-layer metrics, with units from the manifest.
func (r *Result) perLayer(values map[string]float64) {
	for _, m := range perLayerMetrics {
		r.Metrics[m.Name] = Metric{values[m.Name], m.Unit}
	}
}

// perLayerZero is the per-layer value map with every metric at 0, for
// layers a workload does not exercise.
func perLayerZero() map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayerMetrics {
		out[m.Name] = 0
	}
	return out
}

// write stores the full record, and the traced run's spans, under cfg.out.
func (r *Result) write(cfg runConfig) error {
	trace := 0
	if r.Trace {
		trace = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, trace)
	if err := os.MkdirAll(filepath.Join(cfg.out, "results"), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "results", base+".json"), raw, 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if r.spans == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Join(cfg.out, "spans"), 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(cfg.out, "spans", base+".json"), r.spans)
}

// print writes a human-readable summary, then the result line last.
func (r *Result) print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v seconds=%g nproc=%d gomaxprocs=%d engine_workers=%d clients=%d go=%s commit=%s\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, e.NProc, e.GOMAXPROCS, e.EngineWorkers, e.Clients, e.GoVersion, e.Commit)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, m := range append(append([]manifestMetric(nil), endToEndMetrics...), perLayerMetrics...) {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintln(w, string(line))
}
