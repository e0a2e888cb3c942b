package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"cbi/internal/collector"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/lang"
	"cbi/internal/report"
	"cbi/internal/sampling"
	"cbi/internal/subjects"
)

// clientScale fixes the client workload's sizes.
type clientScale struct {
	block  int // runs per instrumented or uninstrumented block
	warmup int // warm-up runs of each kind
	setups int
}

func clientSizes(o options) clientScale {
	if o.small {
		return clientScale{block: 8, warmup: 2, setups: 1}
	}
	return clientScale{block: 32, warmup: 64, setups: 3}
}

// sink is the benchmark's stand-in for a collector: it reads each batch
// body, keeps it, and acks with 202.
type sink struct {
	mu     sync.Mutex
	bodies [][]byte
	srv    *http.Server
	url    string
	done   chan error
}

func startSink(tr *tracer) (*sink, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sink{url: "http://" + l.Addr().String(), done: make(chan error, 1)}
	s.srv = &http.Server{Handler: tr.wrap("sink", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.bodies = append(s.bodies, body)
		s.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	}))}
	go func() { s.done <- s.srv.Serve(l) }()
	return s, nil
}

func (s *sink) close() {
	s.srv.Close()
	<-s.done
}

// take detaches the received bodies.
func (s *sink) take() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bodies
	s.bodies = nil
	return b
}

// clientEnv is the deployed program: MOSS, its instrumentation plan, a
// uniform 1/100 runtime, a collector client and the sink it ships to.
type clientEnv struct {
	subject *subjects.Subject
	plan    *instrument.Plan
	prog    *lang.Program
	rt      *instrument.Runtime
	instr   *interp.Interp
	plain   *interp.Interp
	cl      *collector.Client
	sink    *sink
	heap0   float64
	seed    int64
	next    int64 // next input index
}

func setupClient(o options, sc clientScale, tr *tracer) (*clientEnv, error) {
	e := &clientEnv{heap0: liveHeapMB(), seed: o.seed}
	e.subject = subjects.Moss()
	e.prog = e.subject.Program(true)
	e.plan = instrument.BuildPlan(e.prog)
	e.rt = instrument.NewRuntime(e.plan, sampling.NewUniform(sampling.DefaultRate))
	e.instr = interp.New(e.prog, e.rt)
	e.plain = interp.New(e.prog, nil)
	var err error
	if e.sink, err = startSink(tr); err != nil {
		return nil, err
	}
	e.cl = collector.NewClient(e.sink.url, e.plan.NumSites(), e.plan.NumPreds(),
		collector.WithBatchSize(batchSize),
		collector.WithClientID(fmt.Sprintf("bench-client-%d", o.seed)),
		collector.WithHTTPClient(newHTTPClient(1)))
	ctx := context.Background()
	for i := 0; i < sc.warmup; i++ {
		in := e.input()
		if _, err := e.instrumented(ctx, in, nil); err != nil {
			e.sink.close()
			return nil, err
		}
		e.plain.Run(in)
	}
	if err := e.cl.Flush(ctx); err != nil {
		e.sink.close()
		return nil, err
	}
	e.sink.take()
	return e, nil
}

// input returns the next MOSS input; the index stream is the seed's.
func (e *clientEnv) input() interp.Input {
	in := e.subject.Input(e.seed*1_000_000 + e.next)
	e.next++
	return in
}

// runTimes are one instrumented run's parts.
type runTimes struct {
	total, run, snapshot, add time.Duration
	sites                     int
}

// instrumented does one deployed run: BeginRun, Interp.Run, Snapshot,
// Client.Add. keep, when set, receives the report's hash.
func (e *clientEnv) instrumented(ctx context.Context, in interp.Input, keep *[]uint64) (runTimes, error) {
	var rt runTimes
	start := time.Now()
	e.rt.BeginRun(in.Seed)
	out := e.instr.Run(in)
	t1 := time.Now()
	rep := e.rt.Snapshot(out.Crashed)
	t2 := time.Now()
	err := e.cl.Add(ctx, rep)
	t3 := time.Now()
	rt.total, rt.run, rt.snapshot, rt.add = t3.Sub(start), t1.Sub(start), t2.Sub(t1), t3.Sub(t2)
	rt.sites = len(rep.ObservedSites)
	if keep != nil {
		*keep = append(*keep, reportHash(rep))
	}
	return rt, err
}

func reportHash(r *report.Report) uint64 {
	h := fnv.New64a()
	h.Write(report.AppendRecord(nil, r))
	return h.Sum64()
}

// clientPhase is one timed closed loop.
type clientPhase struct {
	instr   []runTimes
	plainUS []float64 // uninstrumented Interp.Run, same inputs
	pairs   []float64 // instrumented total / uninstrumented, per input
	overUS  []float64 // instrumented Run - uninstrumented Run, per input
	hashes  []uint64
	failed  int
}

// runPhase alternates blocks of instrumented and uninstrumented runs on
// the same inputs for the given time, flipping which kind goes first
// every block.
func (e *clientEnv) runPhase(ctx context.Context, sc clientScale, seconds float64) *clientPhase {
	p := &clientPhase{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for b := 0; time.Now().Before(deadline); b++ {
		ins := make([]interp.Input, sc.block)
		for i := range ins {
			ins[i] = e.input()
		}
		plain := make([]time.Duration, sc.block)
		runPlain := func() {
			for i, in := range ins {
				t0 := time.Now()
				e.plain.Run(in)
				plain[i] = time.Since(t0)
			}
		}
		if b%2 == 1 {
			runPlain()
		}
		first := len(p.instr)
		for _, in := range ins {
			rt, err := e.instrumented(ctx, in, &p.hashes)
			if err != nil {
				p.failed++
			}
			p.instr = append(p.instr, rt)
		}
		if b%2 == 0 {
			runPlain()
		}
		for i, d := range plain {
			rt := p.instr[first+i]
			p.plainUS = append(p.plainUS, d.Seconds()*1e6)
			p.pairs = append(p.pairs, rt.total.Seconds()/d.Seconds())
			p.overUS = append(p.overUS, (rt.run-d).Seconds()*1e6)
		}
	}
	return p
}

func runClient(o options, res *result) error {
	sc := clientSizes(o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var setupTimes []float64
	var e *clientEnv
	for i := 0; i < sc.setups; i++ {
		start := time.Now()
		env, err := setupClient(o, sc, tr)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < sc.setups-1 {
			env.sink.close()
			continue
		}
		e = env
	}
	defer func() { e.sink.close() }()
	res.set("setup_s", median(setupTimes), len(setupTimes))
	ctx := context.Background()

	if o.trace {
		tr.on.Store(true)
	}
	cpu0 := readCPU()
	p := e.runPhase(ctx, sc, o.seconds)
	cpu1 := readCPU()
	bodies := e.deliver(ctx, p)
	if err := checkSink(p, bodies); err != nil {
		return err
	}
	res.attempted, res.failed = int64(len(p.instr)), int64(p.failed)

	var total, snap, add []float64
	sites := 0.0
	for _, rt := range p.instr {
		total = append(total, rt.total.Seconds()*1e3)
		snap = append(snap, rt.snapshot.Seconds()*1e6)
		add = append(add, rt.add.Seconds()*1e6)
		sites += float64(rt.sites)
	}
	n := len(p.instr)
	res.prop("program", "MOSS: %d sites, %d predicates, uniform 1/%.0f sampling", e.plan.NumSites(), e.plan.NumPreds(), 1/sampling.DefaultRate)
	res.prop("observed sites per run", "%.1f", sites/float64(n))
	res.prop("batches", "%d reports in %d batches of %d, gzip", len(p.hashes), len(bodies), batchSize)
	res.prop("loop", "closed, 1 thread, blocks of %d instrumented and %d uninstrumented runs on the same inputs", sc.block, sc.block)

	if !o.trace {
		res.set("p50_ms", quantile(total, 0.5), n)
		// Measured last: the phase's records and the sink's bodies are the
		// benchmark's data, not the deployed program's state, and nothing
		// refers to them any more.
		res.set("live_heap_mb", liveHeapMB()-e.heap0, 1)
		return nil
	}

	res.set("interp.run_us_p50", median(p.plainUS), len(p.plainUS))
	res.set("instrument.overhead_us_p50", median(p.overUS), len(p.overUS))
	res.set("instrument.overhead_x", median(p.pairs), len(p.pairs))
	res.set("instrument.snapshot_us_p50", median(snap), n)
	res.set("sampling.observed_sites_per_run", sites/float64(n), n)
	res.set("collector.client_add_us_p99", quantile(add, 0.99), n)
	res.set("gc_cpu_frac", gcFrac(cpu0, cpu1), 1)

	// The same loop with the sink's spans off, for the tracing overhead
	// and the untraced tail.
	tr.on.Store(false)
	u := e.runPhase(ctx, sc, o.seconds)
	if err := checkSink(u, e.deliver(ctx, u)); err != nil {
		return err
	}
	var utotal []float64
	for _, rt := range u.instr {
		utotal = append(utotal, rt.total.Seconds()*1e3)
	}
	res.set("client.run_p99_ms", quantile(utotal, 0.99), len(utotal))
	res.attempted += int64(len(u.instr))
	res.failed += int64(u.failed)
	res.set("trace_overhead_frac", quantile(total, 0.5)/quantile(utotal, 0.5)-1, n)
	if err := writeSpans(o, tr, "sink"); err != nil {
		return err
	}
	return replayClient(res, e, bodies)
}

// deliver flushes the client's last partial batch and takes what the
// sink received.
func (e *clientEnv) deliver(ctx context.Context, p *clientPhase) [][]byte {
	if err := e.cl.Flush(ctx); err != nil {
		p.failed++
	}
	return e.sink.take()
}

// checkSink decodes every body the sink received and checks that the
// reports equal, in order, the ones Snapshot produced.
func checkSink(p *clientPhase, bodies [][]byte) error {
	k := 0
	for b, body := range bodies {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return failCheck("client-sink-equals-snapshot", "batch %d: %v", b, err)
		}
		set, err := report.UnmarshalBinary(zr)
		if err != nil {
			return failCheck("client-sink-equals-snapshot", "batch %d: %v", b, err)
		}
		for _, r := range set.Reports {
			if k >= len(p.hashes) || reportHash(r) != p.hashes[k] {
				return failCheck("client-sink-equals-snapshot", "report %d differs from the one Snapshot produced", k)
			}
			k++
		}
	}
	if k != len(p.hashes) {
		return failCheck("client-sink-equals-snapshot", "sink decoded %d reports, Snapshot produced %d", k, len(p.hashes))
	}
	return nil
}

// replayClient times what the timed loop does not isolate: batch
// encoding (MarshalBinary + gzip, as Client does) on the delivered
// batches, allocations per instrumented run, and the never-sampling
// runtime against uninstrumented runs on the same inputs.
func replayClient(res *result, e *clientEnv, bodies [][]byte) error {
	var encUS []float64
	for _, body := range bodies {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return err
		}
		set, err := report.UnmarshalBinary(zr)
		if err != nil {
			return err
		}
		start := time.Now()
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		if err := set.MarshalBinary(gz); err != nil {
			return err
		}
		if err := gz.Close(); err != nil {
			return err
		}
		encUS = append(encUS, time.Since(start).Seconds()*1e6)
	}
	res.set("report.encode_us_per_batch", median(encUS), len(encUS))

	const runs = 64
	ins := make([]interp.Input, runs)
	for i := range ins {
		ins[i] = e.input()
	}
	m0 := mallocs()
	for _, in := range ins {
		e.rt.BeginRun(in.Seed)
		e.instr.Run(in)
	}
	res.set("instrument.allocs_per_run", float64(mallocs()-m0)/runs, runs)

	never := interp.New(e.prog, instrument.NewRuntime(e.plan, sampling.Never{}))
	var ratios []float64
	for _, in := range ins {
		t0 := time.Now()
		never.Run(in)
		t1 := time.Now()
		e.plain.Run(in)
		ratios = append(ratios, t1.Sub(t0).Seconds()/time.Since(t1).Seconds())
	}
	res.set("instrument.unsampled_overhead_x", median(ratios), runs)
	return nil
}
