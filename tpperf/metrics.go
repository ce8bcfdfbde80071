package main

import (
	"timeprotection/internal/experiments"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the program sees, measured with
// tracing off. Every workload reports every one of them, so each is
// defined on the workload's own operation: a regeneration of the paper
// on paper, a request on serve, a step on sessions (README.md has the table). The
// bound is the share of the parent's median by which a metric may get
// worse.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"heap_end_mb", "MB", "lower", 0.15},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
}

// paperPlan is the `tpbench -all` plan at default scale and the default
// seed: 21 cells, one at a time, in plan order.
func paperPlan() []experiments.PlanEntry {
	return experiments.Expand(experiments.PlanSpec{
		Platforms: platforms(),
		Base:      experiments.Config{Seed: paperSeed},
		All:       true,
	})
}

// cellMetric names the per-cell span metric of a plan entry:
// experiments.<artefact>.<arch>_s, with arch "any" for the
// platform-independent Table 1.
func cellMetric(e experiments.PlanEntry) string {
	arch := e.Config.Platform.Arch
	if e.Artefact.Global {
		arch = "any"
	}
	return "experiments." + e.Artefact.Name + "." + arch + "_s"
}

// perLayer are the metrics of single layers, from the traced pass. Each
// traced run prints all of them; a layer that does no work on the
// workload reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	var d []metricDecl
	add := func(name, unit, better string) { d = append(d, metricDecl{Name: name, Unit: unit, Better: better}) }
	for _, l := range cpuLayers {
		add("cpu."+l+"_s", "s", "lower")
	}
	for _, e := range paperPlan() {
		add(cellMetric(e), "s", "lower")
	}
	add("mi.estimate_ms", "ms", "lower")
	add("mi.analyze_ms", "ms", "lower")
	add("snapshot.captures", "count", "lower")
	add("snapshot.forks", "count", "lower")
	add("snapshot.memo_hits", "count", "higher")
	add("snapshot.disk_hits", "count", "higher")
	add("snapshot.capture_ms", "ms", "lower")
	add("snapshot.fork_ms", "ms", "lower")
	for _, disp := range dispositions {
		better := "higher"
		if disp == "miss" || disp == "forward" {
			better = "lower"
		}
		add("service."+disp, "count", better)
	}
	for _, disp := range dispositions {
		add("service."+disp+"_p50_ms", "ms", "lower")
	}
	add("service.run_ms_p50", "ms", "lower")
	add("service.wait_ms_p50", "ms", "lower")
	add("service.singleflight_shared", "count", "higher")
	add("service.cache_evictions", "count", "lower")
	add("store.update_ms_p50", "ms", "lower")
	add("store.update_ms_p99", "ms", "lower")
	add("store.journal_bytes", "bytes", "lower")
	add("store.hits", "count", "higher")
	add("store.puts", "count", "lower")
	add("store.updates", "count", "lower")
	add("cluster.hop_ms_p50", "ms", "lower")
	add("cluster.hop_ms_p90", "ms", "lower")
	add("cluster.forwards", "count", "lower")
	add("cluster.forward_shared", "count", "higher")
	add("cluster.replicated", "count", "lower")
	add("session.step_first_ms", "ms", "lower")
	add("session.step_last_ms", "ms", "lower")
	add("session.verdict_step_ms", "ms", "lower")
	add("session.journal_bytes_per_step", "bytes", "lower")
	add("session.events_published", "count", "higher")
	add("session.events_dropped", "count", "lower")
	add("go.gc_cycles", "count", "lower")
	add("go.alloc_mb", "MB", "lower")
	add("sim.accesses", "count", "lower")
	add("sim.misses", "count", "lower")
	add("sim.cycles", "count", "lower")
	for _, c := range classMetrics {
		add(c.Name, c.Unit, c.Better)
	}
	add("bench.trace_overhead_frac", "frac", "lower")
	return d
}

// classMetrics are the end-to-end figures of one workload's request
// classes, from the untraced pass. They exist on one workload only, so
// they cannot be end-to-end metrics (those every workload reports);
// they are reported with the per-layer metrics, unbounded, and printed
// as text on every untraced run of their workload.
var classMetrics = []metricDecl{
	{Name: "bench.served_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.served_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.served_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.computed_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.late_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.create_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.step_p99_ms", Unit: "ms", Better: "lower"},
}

// dispositions are the X-Cache values tpserved answers with.
var dispositions = []string{"hit", "disk", "miss", "forward"}
