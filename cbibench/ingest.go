package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"cbi/internal/collector"
	"cbi/internal/report"
)

// ingestScale fixes the ingest workload's sizes and its rate ladder.
type ingestScale struct {
	runLog   int       // per-shard RunLogSize
	poolRuns int       // base pool of real MOSS runs
	ladder   []float64 // offered rates, reports/s, ascending
	share    []float64 // share of the measured seconds per step
	nominal  int       // the ladder step below capacity, reported end to end
	limitMs  float64   // ack p99 limit a sustained step must meet
	warmup   time.Duration
	setups   int
}

func ingestSizes(o options) ingestScale {
	if o.small {
		return ingestScale{runLog: 256, poolRuns: 16, ladder: []float64{640, 1280}, share: []float64{0.5, 0.5},
			nominal: 0, limitMs: 1000, warmup: 100 * time.Millisecond, setups: 1}
	}
	return ingestScale{
		runLog:   65536,
		poolRuns: 256,
		ladder:   []float64{3200, 6400, 9600, 12800},
		share:    []float64{0.6, 0.1, 0.15, 0.15},
		nominal:  0,
		limitMs:  100,
		warmup:   time.Second,
		setups:   3,
	}
}

// ingestEnv is one set-up ingest deployment with its pre-encoded
// traffic.
type ingestEnv struct {
	g      *gen
	t      *topo
	warm   []*batch
	steps  [][]*batch // per ladder step
	traced []*batch   // the traced nominal step (trace runs only)
	heap0  float64    // live heap with only the generator's inputs
	tr     *tracer
}

func stepBatches(rate, seconds float64) int {
	n := int(rate * seconds / batchSize)
	if n < 2 {
		n = 2
	}
	return n
}

func setupIngest(o options, sc ingestScale, idx int) (*ingestEnv, error) {
	e := &ingestEnv{g: newGen(o.seed, sc.poolRuns)}
	nominal := sc.ladder[sc.nominal]
	var err error
	if e.warm, err = e.g.encodeBatches(stepBatches(nominal, sc.warmup.Seconds())); err != nil {
		return nil, err
	}
	for i, r := range sc.ladder {
		b, err := e.g.encodeBatches(stepBatches(r, o.seconds*sc.share[i]))
		if err != nil {
			return nil, err
		}
		e.steps = append(e.steps, b)
	}
	if o.trace {
		if e.traced, err = e.g.encodeBatches(stepBatches(nominal, o.seconds*sc.share[sc.nominal])); err != nil {
			return nil, err
		}
		e.tr = newTracer()
	}
	e.heap0 = liveHeapMB()
	e.t, err = startTopo(topoConfig{dir: fmt.Sprintf("%s/setup%d", o.workdir, idx), runLog: sc.runLog, g: e.g, tr: e.tr})
	if err != nil {
		return nil, err
	}
	if err := prefill(e.g, e.t, sc.runLog+4*batchSize); err != nil {
		e.t.close()
		return nil, err
	}
	ol := &openLoop{t: e.t, hc: newHTTPClient(2), conns: 2}
	ph := ol.run(context.Background(), e.warm, rateInterval(nominal))
	if err := e.t.quiesce(30 * time.Second); err != nil {
		e.t.close()
		return nil, err
	}
	if n := okCount(ph.res); n != len(e.warm) {
		e.t.close()
		return nil, fmt.Errorf("warm-up: %d of %d batches failed", len(e.warm)-n, len(e.warm))
	}
	return e, nil
}

// prefill folds perRuns generated runs into every shard through
// Server.IngestBatch (WAL on), so each shard's window starts at its cap
// and every timed report evicts one. Shards fill in parallel, each from
// its own stream of perturbations.
func prefill(g *gen, t *topo, perShard int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(t.shards))
	for i, s := range t.shards {
		wg.Add(1)
		go func(i int, s *collector.Server) {
			defer wg.Done()
			f := g.fork(int64(i) + 1)
			reps := make([]*report.Report, batchSize)
			for k := range reps {
				reps[k] = &report.Report{}
			}
			for n := 0; n < perShard; n += batchSize {
				for _, r := range reps {
					f.reportInto(r)
				}
				// No batch id: pre-fill runs are not client retries, and an
				// id would keep their records alive in the dedup window.
				if err := s.IngestBatch("", reps); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func rateInterval(reportsPerSec float64) time.Duration {
	return time.Duration(float64(time.Second) * batchSize / reportsPerSec)
}

func okCount(res []sent) int {
	n := 0
	for _, r := range res {
		if r.ok {
			n++
		}
	}
	return n
}

// steadyGuard refuses to time a deployment whose shard windows are not
// full: a number measured while a window still fills is not the
// steady-state number.
func steadyGuard(t *topo, cap int) error {
	for i, s := range t.shards {
		st := s.StatsNow()
		if st.RunLogRuns != cap || st.RunLogCap != cap {
			return failCheck("steady-state", "shard %d holds %d runs (cap %d), want a full window of %d", i, st.RunLogRuns, st.RunLogCap, cap)
		}
	}
	return nil
}

type shardCounters struct {
	applied, evicted, accepted, rejected int64
}

func counters(t *topo) []shardCounters {
	out := make([]shardCounters, len(t.shards))
	for i, s := range t.shards {
		st := s.StatsNow()
		out[i] = shardCounters{st.ReportsApplied, st.RunLogEvicted, st.BatchesAccepted, st.BatchesRejected}
	}
	return out
}

func runIngest(o options, res *result) error {
	sc := ingestSizes(o)
	var setupTimes []float64
	var e *ingestEnv
	for i := 0; i < sc.setups; i++ {
		start := time.Now()
		env, err := setupIngest(o, sc, i)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < sc.setups-1 {
			env.t.close()
			continue
		}
		e = env
	}
	defer func() { e.t.close() }()
	if err := steadyGuard(e.t, sc.runLog); err != nil {
		return err
	}
	res.set("setup_s", median(setupTimes), len(setupTimes))

	ol := &openLoop{t: e.t, hc: newHTTPClient(2), conns: 2}
	ctx := context.Background()
	before := counters(e.t)
	rstBefore := e.t.router.StatsNow()
	cpu0 := readCPU()
	var phases []*phase
	var late []float64
	for i, rate := range sc.ladder {
		ph := ol.run(ctx, e.steps[i], rateInterval(rate))
		if err := e.t.quiesce(60 * time.Second); err != nil {
			return err
		}
		phases = append(phases, ph)
		for _, r := range ph.res {
			late = append(late, r.late.Seconds()*1e3)
		}
	}
	cpu1 := readCPU()
	heap := liveHeapMB() - e.heap0
	after := counters(e.t)
	rstAfter := e.t.router.StatsNow()

	// Output checks.
	var acked, batches, failed int64
	for _, ph := range phases {
		acked += ph.reports
		batches += int64(len(ph.res))
		failed += int64(len(ph.res) - okCount(ph.res))
	}
	var dApplied, dEvicted, dAccepted, dRejected int64
	perShard := make([]float64, len(after))
	for i := range after {
		dApplied += after[i].applied - before[i].applied
		dEvicted += after[i].evicted - before[i].evicted
		dAccepted += after[i].accepted - before[i].accepted
		dRejected += after[i].rejected - before[i].rejected
		perShard[i] = float64(after[i].applied - before[i].applied)
	}
	if dApplied != acked {
		return failCheck("ingest-applied-equals-acked", "shards applied %d reports, %d were acked", dApplied, acked)
	}
	if err := steadyGuard(e.t, sc.runLog); err != nil {
		return failCheck("ingest-window-at-cap", "%v", err)
	}
	if dEvicted != dApplied {
		return failCheck("ingest-evict-per-report", "%d evictions for %d applied reports, want exactly one each", dEvicted, dApplied)
	}
	res.attempted, res.failed = batches, failed

	nom := phases[sc.nominal]
	acks, fresh := latencies(nom.res)
	sustained := 0.0
	for i, ph := range phases {
		a, f := latencies(ph.res)
		p99 := quantile(a, 0.99)
		grew := backlogGrew(ph.backlog)
		if okCount(ph.res) == len(ph.res) && p99 <= sc.limitMs && !grew {
			sustained = sc.ladder[i]
		}
		if o.trace {
			continue
		}
		// The ladder's own rows; the traced run reports the nominal step
		// and the sustained rate as per-layer metrics instead.
		step := fmt.Sprintf("step%d@%.0f", i, sc.ladder[i])
		res.detail(step+".ack_p50_ms", "ms", quantile(a, 0.5), len(a))
		res.detail(step+".ack_p99_ms", "ms", p99, len(a))
		res.detail(step+".fresh_p50_ms", "ms", quantile(f, 0.5), len(f))
		res.detail(step+".fresh_p99_ms", "ms", quantile(f, 0.99), len(f))
		res.detail(step+".backlog_grew", "bool", b2f(grew), len(ph.backlog))
	}

	interned, retained := internedRatio(e.t)
	res.prop("window sizes", "%d shards x %d runs (cap %d), pre-filled with %d each", numShards, sc.runLog, sc.runLog, sc.runLog+4*batchSize)
	res.prop("distinct-vector share", "%.4f of retained runs (interned vectors / retained)", frac(interned, retained))
	res.prop("reports per shard (skew)", "%v (max/mean %.3f)", perShard, maxOverMean(perShard))
	res.prop("ids per report", "%.1f sites + %.1f preds", e.g.meanSites(), e.g.meanPreds())
	res.prop("bytes per report", "%.0f encoded, %.0f on the wire (gzip)", rawPerReport(e.steps[sc.nominal]), wirePerReport(e.steps[sc.nominal]))
	res.prop("ladder", "%v reports/s, nominal %.0f, ack p99 limit %.0fms", sc.ladder, sc.ladder[sc.nominal], sc.limitMs)

	if !o.trace {
		res.set("live_heap_mb", heap, 1)
		res.set("p50_ms", quantile(fresh, 0.5), len(fresh))
		return nil
	}

	// Traced run: the untraced ladder's nominal step, then the nominal
	// step again with spans on, then the layer replays.
	res.set("ingest.ack_p50_ms", quantile(acks, 0.5), len(acks))
	res.set("ingest.ack_p99_ms", quantile(acks, 0.99), len(acks))
	res.set("ingest.fresh_p99_ms", quantile(fresh, 0.99), len(fresh))
	res.set("ingest.sustained_rps", sustained, len(phases))
	res.set("shard.router_queue_max", float64(nom.queueMax), len(nom.backlog))
	res.set("collector.apply_backlog_max", float64(nom.applyMax), len(nom.backlog))
	res.set("shard.router_shed_frac", frac(rstAfter.Shed-rstBefore.Shed, (rstAfter.Accepted-rstBefore.Accepted)+(rstAfter.Shed-rstBefore.Shed)), int(batches))
	res.set("collector.rejected_frac", frac(dRejected, dAccepted+dRejected), int(dAccepted+dRejected))
	res.set("shard.skew", maxOverMean(perShard), len(perShard))
	res.set("collector.evict_per_report", float64(dEvicted)/float64(dApplied), int(dApplied))
	res.set("collector.interned_ratio", frac(interned, retained), int(retained))
	res.set("gc_cpu_frac", gcFrac(cpu0, cpu1), 1)
	res.set("generator_late_ms_p99", quantile(late, 0.99), len(late))

	e.tr.on.Store(true)
	tph := ol.run(ctx, e.traced, rateInterval(sc.ladder[sc.nominal]))
	if err := e.t.quiesce(60 * time.Second); err != nil {
		return err
	}
	e.tr.on.Store(false)
	if n := okCount(tph.res); n != len(tph.res) {
		res.failed += int64(len(tph.res) - n)
	}
	res.attempted += int64(len(tph.res))
	_, tfresh := latencies(tph.res)
	res.set("trace_overhead_frac", quantile(tfresh, 0.5)/quantile(fresh, 0.5)-1, len(tfresh))
	if err := writeSpans(o, e.tr, "write"); err != nil {
		return err
	}
	setWriteSpanMetrics(res, e.tr.stats())
	e.t.close()
	if err := replayWrite(o, res, e.g, e.traced, sc.runLog); err != nil {
		return err
	}
	return readPhase(o, res, e.g)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// latencies returns the ack and freshness times (ms) of the batches
// that were acked.
func latencies(rs []sent) (acks, fresh []float64) {
	for _, r := range rs {
		if !r.ok {
			continue
		}
		acks = append(acks, r.ack.Seconds()*1e3)
		if r.fresh > 0 {
			fresh = append(fresh, r.fresh.Seconds()*1e3)
		}
	}
	return acks, fresh
}

// backlogGrew reports whether the write path fell behind during a step:
// the backlog over the step's last third averages more than four
// batches above its first third.
func backlogGrew(samples []int64) bool {
	if len(samples) < 3 {
		return false
	}
	k := len(samples) / 3
	var first, last float64
	for _, v := range samples[:k] {
		first += float64(v)
	}
	for _, v := range samples[len(samples)-k:] {
		last += float64(v)
	}
	return (last-first)/float64(k) > 4*batchSize
}

func maxOverMean(xs []float64) float64 {
	m, hi := mean(xs), 0.0
	for _, x := range xs {
		hi = max(hi, x)
	}
	if m == 0 {
		return 0
	}
	return hi / m
}

// writeSpans links the spans and writes them to the run's spans file
// for the named phase.
func writeSpans(o options, tr *tracer, phase string) error {
	tr.link()
	path := filepath.Join(filepath.Dir(o.workdir), fmt.Sprintf("spans-%s-%s-seed%d.jsonl", o.workload, phase, o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "spans written to %s\n", path)
	return nil
}

func setWriteSpanMetrics(res *result, st spanStats) {
	res.set("shard.router_accept_us_p50", quantile(st.routerAccept, 0.5), len(st.routerAccept))
	res.set("shard.router_accept_us_p99", quantile(st.routerAccept, 0.99), len(st.routerAccept))
	res.set("shard.forward_wait_ms_p50", quantile(st.forwardWait, 0.5), len(st.forwardWait))
	res.set("shard.forward_wait_ms_p99", quantile(st.forwardWait, 0.99), len(st.forwardWait))
	res.set("collector.accept_us_p50", quantile(st.collAccept, 0.5), len(st.collAccept))
	res.set("collector.accept_us_p99", quantile(st.collAccept, 0.99), len(st.collAccept))
}

func setReadSpanMetrics(res *result, st spanStats) {
	res.set("collector.snapshot_serve_ms_p50", quantile(st.snapshotServe, 0.5), len(st.snapshotServe))
	for _, eng := range []string{"eliminate", "ochiai"} {
		xs := st.gatewaySelf[eng]
		res.set("shard.gateway_self_ms_p50."+eng, quantile(xs, 0.5), len(xs))
	}
}
