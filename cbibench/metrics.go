package main

// The benchmark's metric catalogue. BENCHMARK.json at the repository
// root lists the same names and units; the self-test keeps the two in
// step.

// e2eMetric is an end-to-end metric: what a user of the system sees,
// measured with tracing off. Every workload reports every one; what it
// measures on each workload is given per workload.
type e2eMetric struct {
	name, unit, better string
	ingest, client     string
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower",
		"median of 3 set-ups: pool runs, perturbation and encoding, 3x65536-run pre-fill, warm-up",
		"median of 3 set-ups: pool runs, program and plan, sink, warm-up"},
	{"live_heap_mb", "MB", "lower",
		"post-GC heap after timing minus the heap holding only the generator's inputs",
		"post-GC heap of the deployed program (program, plan, runtime, client) after timing"},
	{"p50_ms", "ms", "lower",
		"batch freshness at the nominal rate: scheduled send until the owning shard applied it (router, decode, WAL, queue, fold, evict)",
		"one instrumented run with Snapshot and Client.Add"},
}

func (m e2eMetric) meaning(workload string) string {
	if workload == "ingest" {
		return m.ingest
	}
	return m.client
}

// layerMetric is a per-layer metric, reported by the traced run. moves
// names the end-to-end metric and workload it should move; still names
// where it should not move.
type layerMetric struct {
	name, unit, better string
	moves, still       string
}

var layerMetrics = []layerMetric{
	{"shard.router_accept_us_p50", "us", "lower", "p50_ms and ingest.ack_p50_ms on ingest", "client"},
	{"shard.router_accept_us_p99", "us", "lower", "ingest.ack_p99_ms on ingest", "client"},
	{"shard.forward_wait_ms_p50", "ms", "lower", "p50_ms on ingest", "client"},
	{"shard.forward_wait_ms_p99", "ms", "lower", "ingest.fresh_p99_ms on ingest", "client"},
	{"shard.router_queue_max", "count", "lower", "ingest.sustained_rps and failed_frac on ingest", "client"},
	{"shard.router_shed_frac", "frac", "lower", "ingest.sustained_rps and failed_frac on ingest", "client"},
	{"shard.skew", "x", "lower", "ingest.sustained_rps on ingest", "client"},
	{"collector.accept_us_p50", "us", "lower", "p50_ms on ingest", "client"},
	{"collector.accept_us_p99", "us", "lower", "ingest.fresh_p99_ms on ingest", "client"},
	{"collector.fold_us_per_report", "us", "lower", "ingest.sustained_rps and ingest.fresh_p99_ms on ingest", "client"},
	{"collector.fold_allocs_per_report", "count", "lower", "ingest.sustained_rps and ingest.fresh_p99_ms on ingest", "client"},
	{"collector.apply_backlog_max", "count", "lower", "ingest.fresh_p99_ms and failed_frac on ingest", "client"},
	{"collector.rejected_frac", "frac", "lower", "failed_frac on ingest", "client"},
	{"collector.evict_per_report", "count", "lower", "regime check: exactly 1.00 on ingest", "client"},
	{"collector.interned_ratio", "frac", "higher", "live_heap_mb on ingest", "client"},
	{"collector.snapshot_serve_ms_p50", "ms", "lower", "predictors_p50_ms.ochiai (ingest's read phase)", "p50_ms on ingest and client"},
	{"report.decode_us_per_batch", "us", "lower", "p50_ms and ingest.sustained_rps on ingest", "client"},
	{"report.decode_allocs_per_batch", "count", "lower", "p50_ms and ingest.sustained_rps on ingest", "client"},
	{"report.wire_bytes_per_report", "B", "lower", "ingest.sustained_rps on ingest", "client"},
	{"report.encode_us_per_batch", "us", "lower", "client.run_p99_ms on client", "ingest"},
	{"corpus.wal_append_us_per_batch", "us", "lower", "p50_ms on ingest", "client"},
	{"corpus.wal_bytes_per_report", "B", "lower", "p50_ms on ingest", "client"},
	{"corpus.delta_apply_ms_p50", "ms", "lower", "predictors_p50_ms.ochiai (ingest's read phase)", "p50_ms on ingest and client"},
	{"corpus.delta_bytes_per_pull", "B", "lower", "predictors_p50_ms.ochiai (ingest's read phase)", "p50_ms on ingest and client"},
	{"shard.gateway_self_ms_p50.eliminate", "ms", "lower", "predictors_p50_ms.eliminate (ingest's read phase)", "p50_ms on ingest and client"},
	{"shard.gateway_self_ms_p50.ochiai", "ms", "lower", "predictors_p50_ms.ochiai (ingest's read phase)", "p50_ms on ingest and client"},
	{"shard.delta_pull_ratio", "frac", "higher", "predictors_p50_ms.eliminate and .ochiai (ingest's read phase)", "p50_ms on ingest and client"},
	{"core.score_ms_p50.eliminate", "ms", "lower", "predictors_p50_ms.eliminate and predictors_p90_ms.eliminate (ingest's read phase)", "p50_ms on ingest and client"},
	{"core.score_ms_p50.ochiai", "ms", "lower", "predictors_p50_ms.ochiai and predictors_p90_ms.ochiai (ingest's read phase)", "p50_ms on ingest and client"},
	{"interp.run_us_p50", "us", "lower", "p50_ms on client", "ingest"},
	{"instrument.overhead_us_p50", "us", "lower", "p50_ms and instrument.overhead_x on client", "ingest"},
	{"instrument.overhead_x", "x", "lower", "p50_ms on client (the paper's per-run cost claim)", "ingest"},
	{"instrument.unsampled_overhead_x", "x", "lower", "p50_ms and instrument.overhead_x on client", "ingest"},
	{"instrument.allocs_per_run", "count", "lower", "p50_ms and instrument.overhead_x on client", "ingest"},
	{"instrument.snapshot_us_p50", "us", "lower", "p50_ms on client", "ingest"},
	{"sampling.observed_sites_per_run", "count", "lower", "none: a correctness guard, identical for a fixed seed", "-"},
	{"collector.client_add_us_p99", "us", "lower", "client.run_p99_ms on client", "ingest"},
	{"ingest.ack_p50_ms", "ms", "lower", "none: untraced, at the nominal rate, scheduled send until the router's 202 (no collector work)", "-"},
	{"ingest.ack_p99_ms", "ms", "lower", "none: untraced, the p99 of ingest.ack_p50_ms's samples", "-"},
	{"ingest.fresh_p99_ms", "ms", "lower", "none: untraced, the p99 of p50_ms's samples on ingest", "-"},
	{"ingest.sustained_rps", "1/s", "higher", "none: highest ladder rate within the ack p99 limit, without failures or backlog growth", "-"},
	{"client.run_p99_ms", "ms", "lower", "none: untraced, the p99 of p50_ms's samples on client, including the runs that flush a batch", "-"},
	{"predictors_p50_ms.eliminate", "ms", "lower", "none: answer time of engine=eliminate&k=12&affinity=3 in ingest's read phase", "-"},
	{"predictors_p90_ms.eliminate", "ms", "lower", "none: the p90 of predictors_p50_ms.eliminate's samples", "-"},
	{"predictors_p50_ms.ochiai", "ms", "lower", "none: answer time of engine=ochiai&k=12&affinity=3 in ingest's read phase", "-"},
	{"predictors_p90_ms.ochiai", "ms", "lower", "none: the p90 of predictors_p50_ms.ochiai's samples", "-"},
	{"failed_frac", "frac", "lower", "none: failed operations over attempted ones, all workloads", "-"},
	{"gc_cpu_frac", "frac", "lower", "every end-to-end metric a little, on every workload", "-"},
	{"generator_late_ms_p99", "ms", "lower", "none: the generator must keep its schedule", "-"},
	{"trace_overhead_frac", "frac", "lower", "none: traced over untraced p50_ms, minus 1", "-"},
}
