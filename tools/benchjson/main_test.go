package main

import (
	"strings"
	"testing"
)

// TestParseCollapsesTrialsToMedian checks that repeated result lines of
// one benchmark (go test -count=N) become one record of per-metric
// medians, while a single-trial benchmark passes through unchanged.
func TestParseCollapsesTrialsToMedian(t *testing.T) {
	in := `pkg: cbi
BenchmarkA-2   	 10	 300 ns/op	 7 allocs/op
BenchmarkB-2   	 5	 50 ns/op
BenchmarkA-2   	 30	 100 ns/op	 5 allocs/op
BenchmarkA-2   	 20	 200 ns/op	 9 allocs/op
`
	e, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Benchmarks) != 2 {
		t.Fatalf("got %d records, want 2", len(e.Benchmarks))
	}
	a, b := e.Benchmarks[0], e.Benchmarks[1]
	if a.Name != "BenchmarkA" || a.Trials != 3 || a.Runs != 20 || a.NsPerOp != 200 || a.Metrics["allocs/op"] != 7 {
		t.Fatalf("collapsed record = %+v", a)
	}
	if b.Name != "BenchmarkB" || b.Trials != 0 || b.NsPerOp != 50 {
		t.Fatalf("single-trial record = %+v", b)
	}
}
