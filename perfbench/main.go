// Command perfbench is the repository's end-to-end benchmark: three
// workloads (sweep, ingest, metro) driven only through the public Go APIs of
// the reproduction, each with its own output check. An untraced run
// (--trace 0) prints the end-to-end metrics; a traced run (--trace 1) wraps
// spans around the calls into each layer and prints the per-layer ledger.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed output check makes the
// command exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable verdict (the last stdout line).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line inputs every workload receives.
type options struct {
	workload string
	seed     uint64 // seeds the benchmark's own randomness (reader phase)
	seconds  float64
	trace    bool
	seeds    seedSet
}

// spanDir is where a traced run writes its spans, relative to the
// repository root run.sh runs from.
const spanDir = ".bench_build/spans"

// run is the bookkeeping one workload run fills in: operations attempted
// and failed (seeds, batches, reads, piconets and output checks) and the
// metrics it measured.
type run struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

func newRun() *run { return &run{metrics: make(map[string]metric)} }

// set records a metric.
func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// ops counts n attempted operations of which failed failed.
func (r *run) ops(n, failed int) {
	r.attempted += n
	r.failed += failed
}

// check counts one output check; a false ok fails it with the message.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.notef("CHECK FAILED: "+format, args...)
	}
}

// notef adds a human-readable line printed before the JSON verdict.
func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps a workload name to its untraced and traced runs.
var workloads = map[string]struct {
	plain  func(o options, r *run) error
	traced func(o options, r *run) error
}{
	"sweep":  {runSweep, traceSweep},
	"ingest": {runIngest, traceIngest},
	"metro":  {runMetro, traceMetro},
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := newRun()
	w := workloads[o.workload]
	if o.trace {
		if err = w.traced(o, r); err == nil {
			err = completeLedger(r, o.workload)
		}
	} else {
		err = w.plain(o, r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, r, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.failed > 0 {
		os.Exit(1)
	}
}

// parseArgs reads the benchmark's flags.
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	workload := fs.String("workload", "", "sweep, ingest or metro")
	seed := fs.Uint64("seed", 1, "seed of the benchmark's own randomness")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	seeds := fs.String("seeds", "dev", "campaign seed set: dev (every comparison) or holdout (confirming a claim)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want sweep, ingest or metro)", o.workload)
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if !(o.seconds >= 1 && o.seconds <= 600) {
		return o, fmt.Errorf("--seconds must lie in [1, 600], got %v", o.seconds)
	}
	set, ok := seedSets[*seeds]
	if !ok {
		return o, fmt.Errorf("unknown seed set %q (want dev or holdout)", *seeds)
	}
	o.seeds = set
	return o, nil
}

// emit prints the notes, one "name value unit" line per metric and the
// JSON verdict as the last line.
func emit(w io.Writer, r *run, traced bool) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, name := range want {
		if _, ok := r.metrics[name]; !ok {
			return fmt.Errorf("internal: metric %q was not measured", name)
		}
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("internal: %d metrics measured, %d declared", len(r.metrics), len(want))
	}
	fmt.Fprintf(w, "failed_share %.6g (%d of %d operations failed)\n",
		share(r.failed, r.attempted), r.failed, r.attempted)
	blob, err := json.Marshal(result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// share is a/b, 0 when b is 0.
func share(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// since reports the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
