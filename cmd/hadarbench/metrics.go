package main

// metricDef names one reported metric. The lists below are the
// benchmark's contract with BENCHMARK.json at the repository root;
// TestCatalogueMatchesBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the gated metrics, reported by every workload with no
// wrapper around any layer. "op" is the unit of work a user of the
// workload waits on: one round boundary (ProcessNextEvent) for the
// batch workloads, one submit→verdict trip for serve-http.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a
// layer it does not exercise. The first group are workload-specific
// end-to-end views, measured in the traced run's untraced phase; they
// carry no bound because not every workload has them.
var perLayer = []metricDef{
	{"sim_wall_s", "s", "lower"},
	{"round_p50_ms", "ms", "lower"},
	{"round_p99_ms", "ms", "lower"},
	{"avg_jct_h", "h", "lower"},
	{"makespan_h", "h", "lower"},
	{"submit_p50_ms.r50", "ms", "lower"},
	{"submit_p99_ms.r50", "ms", "lower"},
	{"submit_p50_ms.r100", "ms", "lower"},
	{"submit_p99_ms.r100", "ms", "lower"},
	{"submit_p50_ms.r200", "ms", "lower"},
	{"submit_p99_ms.r200", "ms", "lower"},
	{"submit_fail_ratio", "ratio", "lower"},
	{"trace.overhead_pct", "%", "lower"},

	{"core.schedule.calls", "count", "lower"},
	{"core.schedule.busy_s", "s", "lower"},
	{"core.schedule.p50_us", "us", "lower"},
	{"core.schedule.p99_us", "us", "lower"},
	{"core.schedule.dp_calls", "count", "lower"},
	{"core.schedule.dp_busy_s", "s", "lower"},
	{"core.schedule.greedy_busy_s", "s", "lower"},
	{"core.inconsistencies", "count", "lower"},

	{"sim.step.calls", "count", "lower"},
	{"sim.step.busy_s", "s", "lower"},
	{"sim.step.self_s", "s", "lower"},
	{"sim.submit.busy_s", "s", "lower"},
	{"sim.submit.p50_us", "us", "lower"},
	{"sim.snapshot.calls", "count", "lower"},
	{"sim.snapshot.p50_us", "us", "lower"},
	{"sim.snapshot.p99_us", "us", "lower"},
	{"sim.decision_time_s", "s", "lower"},

	{"invariant.overhead_s", "s", "lower"},
	{"invariant.violations", "count", "lower"},

	{"service.accepted", "count", "higher"},
	{"service.rejected_busy", "count", "lower"},
	{"service.rejected_invalid", "count", "lower"},
	{"service.rounds", "count", "lower"},
	{"service.rounds_per_s", "1/s", "higher"},

	{"wal.frames", "count", "lower"},
	{"wal.bytes", "bytes", "lower"},
	{"wal.frames_per_submit", "count", "lower"},
	{"wal.bytes_per_submit", "bytes", "lower"},
	{"wal.replay_s", "s", "lower"},

	{"web.handler.p50_ms", "ms", "lower"},
	{"web.handler.p99_ms", "ms", "lower"},
	{"web.handler.busy_s", "s", "lower"},
	{"web.status_429", "count", "lower"},
	{"web.status_503", "count", "lower"},
	{"web.status_409", "count", "lower"},
	{"web.client_gap_p50_ms", "ms", "lower"},

	{"gen.sent", "count", "higher"},
	{"gen.late_p50_ms.r50", "ms", "lower"},
	{"gen.late_p99_ms.r50", "ms", "lower"},
	{"gen.late_p50_ms.r100", "ms", "lower"},
	{"gen.late_p99_ms.r100", "ms", "lower"},
	{"gen.late_p50_ms.r200", "ms", "lower"},
	{"gen.late_p99_ms.r200", "ms", "lower"},

	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gomaxprocs", "count", "higher"},
}

// unitOf returns a metric's unit from the catalogue.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
