// Command cbibench is the repository's benchmark. It starts the
// production topology in one process — three WAL-backed collector
// shards behind a shard router, with a gateway over them, all on
// loopback listeners — and drives it, or the instrumented client, with
// inputs generated from a seed:
//
//	ingest  open-loop writes over a ladder of offered rates, shard windows full
//	client  a closed loop of instrumented MOSS runs shipping reports to a sink
//
// The ingest workload's traced run adds a read phase on a second, small
// deployment: a closed-loop predictors reader beside a background
// ingest.
//
// Usage (from the repository root):
//
//	bash cbibench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload again with spans recorded at every tier and replays
// the generated inputs through each layer's public functions, and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. A failed
// output check exits with status 1 and names the check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// heldOutSeed is never used while tuning the benchmark or a change; a
// claimed gain is confirmed on it.
const heldOutSeed = 424242

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks windows, pools and rates for the self-test.
	small   bool
	workdir string
	log     io.Writer // human-readable report
}

// value is one reported number with the sample count behind it.
type value struct {
	v float64
	n int
}

type result struct {
	attempted, failed int64
	metrics           map[string]value
	// details are the untraced ingest ladder's per-step rows, printed
	// with units and sample counts.
	details []detail
	props   [][2]string // input properties, in print order
}

type detail struct {
	name, unit string
	value
}

func (r *result) detail(name, unit string, v float64, n int) {
	r.details = append(r.details, detail{name, unit, value{v, n}})
}

func (r *result) set(name string, v float64, n int) { r.metrics[name] = value{v, n} }
func (r *result) prop(k string, f string, a ...any) {
	r.props = append(r.props, [2]string{k, fmt.Sprintf(f, a...)})
}

// checkError is a failed output check.
type checkError struct {
	check string
	err   error
}

func (e *checkError) Error() string { return "check " + e.check + " failed: " + e.err.Error() }

func failCheck(check string, f string, a ...any) error {
	return &checkError{check: check, err: fmt.Errorf(f, a...)}
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "ingest or client")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for WAL, checkpoints and spans")
	flag.Parse()
	o.trace = *trace == 1
	o.log = os.Stdout
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "cbibench:", err)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbibench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "cbibench:", err)
		os.Exit(1)
	}
}

// run executes one workload and returns its metrics; a failed output
// check is returned as a *checkError.
func run(o options) (*result, error) {
	res := &result{metrics: map[string]value{}}
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.workdir = dir
	switch o.workload {
	case "ingest":
		err = runIngest(o, res)
	case "client":
		err = runClient(o, res)
	default:
		return nil, fmt.Errorf("unknown workload %q (want ingest or client)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	if o.trace {
		res.set("failed_frac", frac(res.failed, res.attempted), int(res.attempted))
	}
	return res, nil
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// printResult writes the input properties, the metric table and, last,
// the JSON line. Every catalogued metric of the run's kind is printed;
// one a workload does not exercise reads 0 with 0 samples.
func printResult(w io.Writer, o options, res *result) error {
	fmt.Fprintf(w, "workload %s, seed %d (held-out seed: %d), %.3gs measured, trace %v\n",
		o.workload, o.seed, heldOutSeed, o.seconds, o.trace)
	fmt.Fprintln(w, "input properties:")
	for _, p := range res.props {
		fmt.Fprintf(w, "  %-34s %s\n", p[0], p[1])
	}
	type row struct{ name, unit, note string }
	var rows []row
	if o.trace {
		for _, m := range layerMetrics {
			note := "moves " + m.moves
			if m.still != "-" {
				note += "; not " + m.still
			}
			rows = append(rows, row{m.name, m.unit, note})
		}
	} else {
		for _, m := range e2eMetrics {
			rows = append(rows, row{m.name, m.unit, m.meaning(o.workload)})
		}
	}
	fmt.Fprintf(w, "%-38s %-6s %14s %8s  %s\n", "metric", "unit", "value", "samples", "meaning")
	out := map[string]any{}
	for _, r := range rows {
		v := res.metrics[r.name]
		fmt.Fprintf(w, "%-38s %-6s %14.6g %8d  %s\n", r.name, r.unit, v.v, v.n, r.note)
		out[r.name] = map[string]any{"value": v.v, "unit": r.unit}
	}
	if len(res.details) > 0 {
		fmt.Fprintln(w, "workload detail:")
	}
	for _, d := range res.details {
		fmt.Fprintf(w, "  %-36s %-6s %14.6g %8d\n", d.name, d.unit, d.v, d.n)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
