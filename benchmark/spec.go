package main

import "strings"

// metricSpec names one metric with its unit and direction. BENCHMARK.json
// at the repository root mirrors these tables; bench_test.go fails when
// the two drift apart.
type metricSpec struct {
	name   string
	unit   string
	higher bool // true when a higher value is better
	// bound is how far the value may worsen, as a share of the other
	// side's median, before -compare (two result sets at equal seed)
	// flags a regression.
	bound float64
	// driver is the bound BENCHMARK.json records for the outside driver,
	// which judges a metric by ten runs on ten different seeds; zero for
	// the metrics that regime cannot bound (see endToEnd).
	driver float64
}

// rounds is how many fresh processes one set runs per workload; host
// timings are pooled over them.
const rounds = 5

// endToEnd are the end-to-end metrics every workload reports: what a
// user of the simulator waits for and pays (host clock) and what the
// simulated system did (simulated clock).
//
// The bound column is the issue's: it is what -compare holds two result
// sets of equal seed to. The driver column is what BENCHMARK.json
// records. The outside driver runs each workload on ten different seeds
// and requires the interquartile spread of every bounded metric to stay
// within its bound, so only metrics that are steady across seeds and
// across the sandbox's speed drift can be bounded there, and their
// bounds are sized on the measured across-seed spreads (README, "Noise"):
//
//   - host_ops_per_s swings 10-25% from run to run with the shared
//     sandbox's speed, and on serve_lookahead another 20% with the
//     arrival sample (the queue sits at the knee); peak_rss_mb of a 10 MB
//     process swings 20% with the garbage collector's pacing.
//   - sim_total_s and sim_p99_s are functions of the seed (and constants
//     on the data-independent workloads), and fail_share is zero where
//     nothing is shed or late. They repeat bit for bit at equal seed,
//     which the benchmark itself enforces.
var endToEnd = []metricSpec{
	{"setup_s", "s", false, 0.25, 0.25},
	{"host_ops_per_s", "1/s", true, 0.10, 0},
	{"allocs_per_op", "count", false, 0.10, 0.20},
	{"bytes_per_op", "B", false, 0.10, 0.25},
	{"peak_rss_mb", "MiB", false, 0.10, 0},
	{"sim_total_s", "sim_s", false, 1e-9, 0},
	{"sim_p99_s", "sim_s", false, 1e-9, 0},
	{"fail_share", "ratio", false, 0, 0},
}

// driverEndToEnd is the end_to_end list of BENCHMARK.json: the metrics a
// -workload run reports with -trace 0.
func driverEndToEnd() []metricSpec {
	var out []metricSpec
	for _, m := range endToEnd {
		if m.driver > 0 {
			out = append(out, m)
		}
	}
	return out
}

// layerMetricNames lists the per-layer metrics by module. A unit and a
// direction follow from the name (unitOf, higherIsBetter).
var layerMetricNames = []string{
	"vec.transpose8x8_ns", "vec.reduce_ns",
	"dram.read_burst_ns", "dram.write_burst_ns", "dram.carve_free_us",
	"elem.reduce_into_mbps",
	"host.tally_bursts_ns", "host.bulk_read_mbps", "host.bulk_write_mbps", "host.bursts_per_pass",
	"dpu.launch_us", "dpu.launch_charges_us",
	"par.do_overhead_us", "par.cpu_per_wall",
	"cost.timeline_place_us", "cost.timeline_set_floor_us", "cost.timeline_clone_us",
	"cost.meter_add_ns", "cost.pipelined_makespan_us",
	"cost.fig14_speedup_AA", "cost.fig14_speedup_RS", "cost.fig14_speedup_AR", "cost.paper_err_mean",
	"algo.lower_ring_us", "algo.lower_tree_us", "algo.lower_rsag_us",
	"core.compile_cold_us", "core.compile_hit_ns", "core.auto_resolve_us", "core.compile_sequence_us",
	"core.replay_cost_us",
	"core.replay_func.AA.base_us", "core.replay_func.AA.cm_us",
	"core.replay_func.RS.base_us", "core.replay_func.RS.cm_us",
	"core.replay_func.AR.base_us", "core.replay_func.AR.cm_us",
	"core.replay_func.AG.base_us", "core.replay_func.AG.cm_us",
	"core.replay_func.Sc.base_us", "core.replay_func.Sc.cm_us",
	"core.replay_func.Ga.base_us", "core.replay_func.Ga.cm_us",
	"core.replay_func.Re.base_us", "core.replay_func.Re.cm_us",
	"core.replay_func.Br.base_us", "core.replay_func.Br.cm_us",
	"core.submit_us", "core.step_us", "core.step_lookahead_us", "core.step_fifo_us",
	"core.pick_overhead_us", "core.queue_depth_mean", "core.tenant_churn_us",
	"core.cluster_compile_us", "core.cluster_run_us",
	"core.plans_compiled", "core.replays", "core.steps", "core.compile_share",
	"serve.run_us_per_req", "serve.self_share", "serve.calibrate_ms",
	"serve.requests", "serve.shed", "serve.missed",
	"serve.sim_p99_rho060", "serve.sim_p99_rho075", "serve.sim_p99_rho090", "serve.sim_p99_rho105",
	"serve.sim_max_rho",
	"apps.dlrm.base_ms", "apps.dlrm.cm_ms", "apps.gnn.base_ms", "apps.gnn.cm_ms",
	"apps.mlp.base_ms", "apps.mlp.cm_ms", "apps.bfs.base_ms", "apps.bfs.cm_ms",
	"apps.cc.base_ms", "apps.cc.cm_ms", "apps.sim_speedup_geomean",
	"pidcomm.new_machine_func_ms", "pidcomm.new_machine_cost_ms", "pidcomm.set_pe_buffer_mbps",
	"data.rmat_ms",
	"trace_overhead",
}

// ratioMetrics are the dimensionless per-layer metrics. Everything else
// carries its unit as a name suffix, or is a plain count.
var (
	ratioMetrics = map[string]bool{
		"par.cpu_per_wall": true, "cost.fig14_speedup_AA": true, "cost.fig14_speedup_RS": true,
		"cost.fig14_speedup_AR": true, "cost.paper_err_mean": true, "core.compile_share": true,
		"serve.self_share": true, "serve.sim_max_rho": true, "apps.sim_speedup_geomean": true,
		"trace_overhead": true,
	}
	// higherBetter are the per-layer metrics where more is better; for all
	// others (times, counts of work, errors) less is.
	higherBetter = map[string]bool{
		"par.cpu_per_wall": true, "cost.fig14_speedup_AA": true, "cost.fig14_speedup_RS": true,
		"cost.fig14_speedup_AR": true, "serve.sim_max_rho": true, "apps.sim_speedup_geomean": true,
		"serve.requests": true,
	}
)

// unitOf derives a per-layer metric's unit from its name: the suffix
// gives host time per call (_ns, _us, _ms) or host MB/s (_mbps); a
// serve.sim_p99_* value is simulated seconds.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	switch {
	case name == "serve.run_us_per_req":
		return "us"
	case ratioMetrics[name]:
		return "ratio"
	case strings.HasPrefix(name, "serve.sim_p99_"):
		return "sim_s"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mbps"):
		return "MB/s"
	}
	return "count"
}

// higherIsBetter gives a per-layer metric's direction.
func higherIsBetter(name string) bool {
	return higherBetter[name] || strings.HasSuffix(name, "_mbps")
}

// perLayer is the per_layer list of BENCHMARK.json, every metric a
// -workload run reports with -trace 1: the per-layer metrics, and the
// end-to-end metrics BENCHMARK.json does not bound.
func perLayer() []metricSpec {
	out := make([]metricSpec, 0, len(layerMetricNames)+len(endToEnd))
	for _, n := range layerMetricNames {
		out = append(out, metricSpec{name: n, unit: unitOf(n), higher: higherIsBetter(n)})
	}
	for _, m := range endToEnd {
		if m.driver == 0 {
			out = append(out, m)
		}
	}
	return out
}
