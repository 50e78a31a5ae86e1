package main

// metricDef names one metric and its unit. BENCHMARK.json repeats these two
// tables (the smoke test fails if they drift apart).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a caller of the system sees; a run with -trace 0
// prints exactly these.
var endToEnd = []metricDef{
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_kb_per_op", "KB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers; a run with -trace 1 prints
// exactly these, 0 where a layer does nothing on the workload.
var perLayer = []metricDef{
	// graph
	{"graph.compile_us", "us"},
	{"graph.fuse_us", "us"},
	{"graph.fingerprint_us", "us"},
	{"graph.delta_apply_us", "us"},
	{"graph.patch_us", "us"},
	// lpa
	{"lpa.compress_us", "us"},
	{"lpa.incremental_us", "us"},
	{"lpa.rounds_mean", "count"},
	{"lpa.nodes_after_ratio", "ratio"},
	// spectral, eigen
	{"spectral.bisect_us", "us"},
	{"spectral.self_us", "us"},
	{"eigen.fiedler_us", "us"},
	{"eigen.fiedler_us_dim_le32", "us"},
	{"eigen.fiedler_us_dim_33_64", "us"},
	{"eigen.fiedler_us_dim_65_96", "us"},
	{"eigen.fiedler_us_dim_gt96", "us"},
	{"eigen.calls_dim_gt96", "count"},
	{"eigen.dim_max", "count"},
	// core, mec
	{"core.solve_us", "us"},
	{"core.pipeline_us", "us"},
	{"core.greedy_us", "us"},
	{"core.self_us", "us"},
	{"core.greedy_moves", "count"},
	{"core.parts", "count"},
	{"core.objective_sum", "cost"},
	{"core.solve_delta_us", "us"},
	{"core.delta_patch_us", "us"},
	{"core.dirty_components_mean", "count"},
	{"core.touched_fraction_mean", "ratio"},
	{"mec.evaluate_us", "us"},
	// serve
	{"serve.handler_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.body_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.rounds", "count"},
	{"serve.users_per_round", "count"},
	{"serve.fused_rounds", "count"},
	{"serve.active_users_mean", "count"},
	{"serve.deduped", "count"},
	{"serve.shed", "count"},
	{"serve.delta_solves", "count"},
	{"serve.cold_fallbacks", "count"},
	{"serve.lanczos_iters_saved", "count"},
	// durable
	{"durable.append_us", "us"},
	{"durable.appends", "count"},
	{"durable.fsyncs", "count"},
	{"durable.bytes", "B"},
	// router
	{"router.handler_us", "us"},
	{"router.self_us", "us"},
	{"router.ident_hit_ratio", "ratio"},
	{"router.failovers", "count"},
	{"router.hedges", "count"},
	{"router.affinity_ratio", "ratio"},
	// client and trace
	{"client.transport_us", "us"},
	{"client.p99_ms", "ms"},
	{"client.max_ms", "ms"},
	{"client.samples", "count"},
	{"client.loadgen_busy_ratio", "ratio"},
	{"client.calib_kernel_us", "us"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// metric is one value on the wire.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// withUnits renders vals as the wire form of defs; a name vals lacks reads 0.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
