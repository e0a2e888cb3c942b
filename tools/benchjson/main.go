// Command benchjson converts `go test -bench` output on stdin into a
// JSON benchmark record, and optionally appends it to a trajectory
// artifact — a committed JSON array that accumulates one entry per
// recorded speed pass, so ingest-throughput history survives in the
// repository instead of in someone's scrollback.
//
// Usage:
//
//	go test -run=xxx -bench 'BenchmarkCollectorIngest' . |
//	  go run ./tools/benchjson -note "baseline" -append -o BENCH_collector.json
//
// Without -o the entry is printed to stdout. With -append the existing
// artifact (if any) is read first and the new entry appended; without
// it the file is overwritten with a single-entry trajectory.
//
// Repeated result lines for one benchmark (`go test -count=N`) collapse
// into a single record holding the median of each metric, with the
// number of trials alongside, so an entry reflects the middle trial
// rather than whichever ran last.
//
// With -gate-allocs N the new entry is first compared against the
// latest trajectory entry recording each benchmark: any benchmark
// whose allocs/op regressed by more than N percent fails the run
// before anything is written, so CI can gate allocation regressions on
// the committed history. Entries recorded without -benchmem carry no
// alloc metrics and are skipped when looking for a baseline. Adding
// -check makes the run gate-only: the -o trajectory supplies the
// baselines but is never rewritten (the CI mode).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one `BenchmarkName-P  N  ...` result line.
type Benchmark struct {
	Name    string  `json:"name"`
	Pkg     string  `json:"pkg,omitempty"`
	Procs   int     `json:"procs,omitempty"`
	Runs    int64   `json:"runs"`
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every other reported unit (MB/s, B/op, allocs/op,
	// custom b.ReportMetric units like reports/op).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Trials is how many result lines were collapsed into this record's
	// medians (omitted for a single trial).
	Trials int `json:"trials,omitempty"`
}

// Entry is one trajectory record: the machine context `go test` printed
// plus every benchmark parsed from the stream.
type Entry struct {
	Note       string      `json:"note,omitempty"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func parse(r io.Reader) (*Entry, error) {
	e := &Entry{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			e.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			e.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			e.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBench(line)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", line, err)
			}
			b.Pkg = pkg
			e.Benchmarks = append(e.Benchmarks, *b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(e.Benchmarks) == 0 {
		return nil, errors.New("no benchmark result lines on stdin")
	}
	sort.SliceStable(e.Benchmarks, func(i, j int) bool {
		a, b := e.Benchmarks[i], e.Benchmarks[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		return a.Name < b.Name
	})
	var merged []Benchmark
	for i := 0; i < len(e.Benchmarks); {
		j := i + 1
		for j < len(e.Benchmarks) && e.Benchmarks[j].Pkg == e.Benchmarks[i].Pkg && e.Benchmarks[j].Name == e.Benchmarks[i].Name {
			j++
		}
		merged = append(merged, medianOf(e.Benchmarks[i:j]))
		i = j
	}
	e.Benchmarks = merged
	return e, nil
}

// medianOf collapses repeated trials of one benchmark into their
// per-metric medians.
func medianOf(trials []Benchmark) Benchmark {
	if len(trials) == 1 {
		return trials[0]
	}
	pick := func(get func(Benchmark) (float64, bool)) (float64, bool) {
		var vs []float64
		for _, t := range trials {
			if v, ok := get(t); ok {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return 0, false
		}
		sort.Float64s(vs)
		n := len(vs)
		if n%2 == 1 {
			return vs[n/2], true
		}
		return (vs[n/2-1] + vs[n/2]) / 2, true
	}
	b := trials[0]
	b.Trials = len(trials)
	runs, _ := pick(func(t Benchmark) (float64, bool) { return float64(t.Runs), true })
	b.Runs = int64(runs)
	b.NsPerOp, _ = pick(func(t Benchmark) (float64, bool) { return t.NsPerOp, true })
	b.Metrics = nil
	for unit := range trials[0].Metrics {
		if v, ok := pick(func(t Benchmark) (float64, bool) { v, ok := t.Metrics[unit]; return v, ok }); ok {
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b
}

// parseBench parses `BenchmarkFoo-8  1000  22749 ns/op  1.2 MB/s ...`:
// the name (with a trailing -GOMAXPROCS suffix), the iteration count,
// then value/unit pairs.
func parseBench(line string) (*Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, errors.New("too few fields")
	}
	b := &Benchmark{Name: fields[0]}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("iteration count: %w", err)
	}
	b.Runs = runs
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("metric value %q: %w", fields[i], err)
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[unit] = v
	}
	return b, nil
}

// gateAllocs compares each new benchmark's allocs/op against the most
// recent trajectory entry that recorded the same benchmark with an
// allocs/op metric; a regression beyond pct percent is an error.
// History entries without alloc metrics (recorded before -benchmem was
// part of the bench step) are skipped, so the gate arms itself on the
// first entry that carries them.
func gateAllocs(trajectory []*Entry, entry *Entry, pct float64) error {
	var violations []string
	for _, b := range entry.Benchmarks {
		now, ok := b.Metrics["allocs/op"]
		if !ok {
			continue
		}
		base, found := -1.0, false
		for i := len(trajectory) - 1; i >= 0 && !found; i-- {
			for _, old := range trajectory[i].Benchmarks {
				if old.Name == b.Name && old.Pkg == b.Pkg {
					if v, ok := old.Metrics["allocs/op"]; ok {
						base, found = v, true
					}
					break
				}
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "benchjson: %s: no prior allocs/op in trajectory; gate skipped\n", b.Name)
			continue
		}
		if now > base*(1+pct/100) {
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op %.1f exceeds baseline %.1f by more than %.0f%%", b.Name, now, base, pct))
		}
	}
	if len(violations) > 0 {
		return errors.New("allocs/op regression:\n  " + strings.Join(violations, "\n  "))
	}
	return nil
}

func run() error {
	out := flag.String("o", "", "trajectory file to write (default: print the entry to stdout)")
	appendTo := flag.Bool("append", false, "append to the existing -o trajectory instead of replacing it")
	note := flag.String("note", "", "free-form label stored with the entry")
	gatePct := flag.Float64("gate-allocs", 0,
		"fail if any benchmark's allocs/op regresses more than this percent vs the latest trajectory entry recording it (0 = off)")
	check := flag.Bool("check", false,
		"gate-only mode: read the -o trajectory for baselines, print the entry, write nothing")
	flag.Parse()

	entry, err := parse(os.Stdin)
	if err != nil {
		return err
	}
	entry.Note = *note

	var trajectory []*Entry
	if *out != "" && (*appendTo || *gatePct > 0 || *check) {
		data, err := os.ReadFile(*out)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// First entry.
		case err != nil:
			return err
		default:
			if err := json.Unmarshal(data, &trajectory); err != nil {
				return fmt.Errorf("existing trajectory %s: %w", *out, err)
			}
		}
	}

	if *gatePct > 0 {
		if err := gateAllocs(trajectory, entry, *gatePct); err != nil {
			return err
		}
	}

	if *out == "" || *check {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(entry)
	}

	if !*appendTo {
		trajectory = nil
	}
	trajectory = append(trajectory, entry)
	data, err := json.MarshalIndent(trajectory, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(data, '\n'), 0o644)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
