package main

import "slices"

// The metric registry: the one place a metric's name, unit, direction
// and regression bound are declared. BENCHMARK.json repeats the
// end-to-end and per-layer entries (bench_test.go pins the two against
// each other); the class-resolved entries exist only here because the
// pipeline's contract wants every end-to-end metric printed by every
// workload, and a build has no "batch" class.

type metricKind int

const (
	// kindE2E metrics are printed by every workload's untraced run and
	// are the ones BENCHMARK.json bounds.
	kindE2E metricKind = iota
	// kindClass metrics resolve an end-to-end metric by operation
	// class or restate it in the paper's unit. Printed by the untraced
	// run of the workloads that have the class; compared by -compare.
	kindClass
	// kindLayer metrics come from the traced run only and carry no
	// bound.
	kindLayer
)

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	kind   metricKind
	// workloads restricts a kindClass metric; nil means every workload.
	workloads []string
	// info marks a number that describes the box, not the program:
	// -compare lists it and never judges it.
	info bool
}

var (
	buildWorkloads = []string{"build_hier", "build_skew"}
	serveWorkloads = []string{"serve_read", "serve_live", "fed_read"}
)

var metricDefs = []metricDef{
	// End to end (every workload).
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, kind: kindE2E},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, kind: kindE2E},
	{name: "p50_us", unit: "us", better: "lower", bound: 0.25, kind: kindE2E},
	{name: "tail_us", unit: "us", better: "lower", bound: 0.25, kind: kindE2E},
	{name: "relative_size", unit: "ratio", better: "lower", bound: 0.02, kind: kindE2E},

	// Class-resolved (ISSUE 11's per-workload end-to-end metrics).
	{name: "failed_share", unit: "ratio", better: "lower", bound: 0, kind: kindClass},
	{name: "calib_ms", unit: "ms", better: "lower", kind: kindClass, info: true},
	{name: "boot_ms", unit: "ms", better: "lower", bound: 0.15, kind: kindClass, workloads: []string{"serve_read"}},
	{name: "build_edges_per_s", unit: "edges/s", better: "higher", bound: 0.10, kind: kindClass, workloads: buildWorkloads},
	{name: "traverse_medges_per_s", unit: "Medges/s", better: "higher", bound: 0.10, kind: kindClass, workloads: []string{"analytics"}},
	{name: "point_p50_us", unit: "us", better: "lower", bound: 0.10, kind: kindClass, workloads: serveWorkloads},
	{name: "point_p99_us", unit: "us", better: "lower", bound: 0.15, kind: kindClass, workloads: serveWorkloads},
	{name: "batch_p50_us", unit: "us", better: "lower", bound: 0.10, kind: kindClass, workloads: serveWorkloads},
	{name: "batch_p99_us", unit: "us", better: "lower", bound: 0.15, kind: kindClass, workloads: serveWorkloads},
	{name: "update_p50_us", unit: "us", better: "lower", bound: 0.10, kind: kindClass, workloads: []string{"serve_live"}},
	{name: "update_p99_us", unit: "us", better: "lower", bound: 0.15, kind: kindClass, workloads: []string{"serve_live"}},

	// Per layer (traced run, every workload's graph walked through every layer).
	layer("graph.generate_s", "s", "lower"),
	layer("graph.partition_s", "s", "lower"),
	layer("graph.cut_edges", "count", "lower"),

	layer("core.iterations_s", "s", "lower"),
	layer("core.iter1_s", "s", "lower"),
	layer("core.iterT_s", "s", "lower"),
	layer("core.prune_s", "s", "lower"),
	layer("core.merges", "count", "higher"),
	layer("core.cost_before_prune", "count", "lower"),
	layer("core.final_cost", "count", "lower"),
	layer("core.alloc_mb", "MB", "lower"),
	layer("core.allocs", "count", "lower"),
	layer("core.gc_cycles", "count", "lower"),
	layer("core.workers2_speedup", "ratio", "higher"),

	layer("model.compile_ms", "ms", "lower"),
	layer("model.height", "count", "lower"),
	layer("model.avg_leaf_depth", "count", "lower"),
	layer("model.supernodes", "count", "lower"),
	layer("model.superedges", "count", "lower"),
	layer("model.neighbors_ns", "ns", "lower"),
	layer("model.hasedge_ns", "ns", "lower"),
	layer("model.batch64_us", "us", "lower"),
	layer("model.decode_ms", "ms", "lower"),
	layer("model.from_mapped_ms", "ms", "lower"),
	layer("model.overlay_neighbors_ns", "ns", "lower"),
	layer("model.apply_empty_us", "us", "lower"),
	layer("model.apply_full_us", "us", "lower"),
	layer("model.lock_hold_share", "ratio", "lower"),
	layer("model.lock_hold_max_us", "us", "lower"),
	layer("model.compactions", "count", "lower"),
	layer("model.compact_s", "s", "lower"),

	layer("algos.pagerank_ms", "ms", "lower"),

	layer("slug.save_v1_ms", "ms", "lower"),
	layer("slug.save_v2_ms", "ms", "lower"),
	layer("slug.v1_bytes_per_edge", "bytes/edge", "lower"),
	layer("slug.v2_bytes_per_edge", "bytes/edge", "lower"),
	layer("slug.load_v1_ms", "ms", "lower"),
	layer("slug.open_mapped_ms", "ms", "lower"),
	layer("slug.summarize_sharded_s", "s", "lower"),
	layer("slug.split_ms", "ms", "lower"),
	layer("slug.recover_ms", "ms", "lower"),
	layer("slug.recovered_records", "count", "lower"),

	layer("wal.append_us", "us", "lower"),
	layer("wal.append_always_us", "us", "lower"),
	layer("wal.records", "count", "lower"),
	layer("wal.bytes_per_update", "bytes", "lower"),
	layer("wal.syncs", "count", "lower"),
	layer("wal.checkpoint_ms", "ms", "lower"),

	layer("serve.handler_point_us", "us", "lower"),
	layer("serve.handler_hasedge_us", "us", "lower"),
	layer("serve.handler_batch_us", "us", "lower"),
	layer("serve.handler_batch_json_us", "us", "lower"),
	layer("serve.handler_update_us", "us", "lower"),
	layer("serve.self_point_us", "us", "lower"),
	layer("serve.self_batch_us", "us", "lower"),
	layer("serve.transport_point_us", "us", "lower"),
	layer("serve.transport_batch_us", "us", "lower"),
	layer("serve.resp_bytes_point", "bytes", "lower"),
	layer("serve.resp_bytes_batch", "bytes", "lower"),
	layer("serve.errors", "count", "lower"),
	layer("serve.shed", "count", "lower"),

	layer("fed.neighbors_local_us", "us", "lower"),
	layer("fed.hop_overhead_us", "us", "lower"),
	layer("fed.coord_handler_point_us", "us", "lower"),
	layer("fed.coord_handler_batch_us", "us", "lower"),
	layer("fed.pagerank_gather_ms", "ms", "lower"),
	layer("fed.retries", "count", "lower"),
	layer("fed.hedges", "count", "lower"),
	layer("fed.breaker_opens", "count", "lower"),

	layer("loadgen.paced_p50_us", "us", "lower"),
	layer("loadgen.paced_p99_us", "us", "lower"),
	layer("loadgen.sched_lag_max_us", "us", "lower"),

	layer("bench.calib_ms", "ms", "lower"),
	layer("bench.calib_spread", "ratio", "lower"),
	layer("bench.steal_share", "ratio", "lower"),
	layer("bench.reps_dropped", "count", "lower"),
	layer("bench.noisy", "0/1", "lower"),
	layer("bench.trace_overhead", "ratio", "lower"),
	layer("bench.peak_rss_mb", "MB", "lower"),
	layer("bench.client_us", "us", "lower"),
}

func layer(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better, kind: kindLayer}
}

var metricByName = func() map[string]*metricDef {
	m := make(map[string]*metricDef, len(metricDefs))
	for i := range metricDefs {
		m[metricDefs[i].name] = &metricDefs[i]
	}
	return m
}()

// appliesTo reports whether workload w prints metric d.
func (d *metricDef) appliesTo(w string) bool {
	return d.workloads == nil || slices.Contains(d.workloads, w)
}

// metricValue is one measured metric as it appears in result files and
// in the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics; set panics on a name the registry
// does not declare or a second write, so a typo cannot ship.
type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64) {
	d, ok := metricByName[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if _, dup := m[name]; dup {
		panic("bench: metric set twice: " + name)
	}
	m[name] = metricValue{Value: v, Unit: d.unit}
}
