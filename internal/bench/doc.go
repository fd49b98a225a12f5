// Package bench is the evaluation harness: one registered experiment per
// table and figure of the paper's evaluation (§ VIII), each regenerating
// the corresponding rows/series on the simulated system, plus the
// harness-native experiments (async overlap, reordering, fusion,
// tenancy, serving). Everything here reads the simulated clock;
// wall-clock measurement of the simulator itself is benchmark/'s job.
// Use cmd/pidbench to run them from the command line.
//
// # Structure
//
//   - Experiment couples an ID (the -exp flag value, e.g. "fig14",
//     "table1", "async") with a run function writing an aligned text
//     table; experiments self-register in init and are enumerated by
//     Experiments / looked up by ByID.
//   - A figure is a table of named cells. A gated experiment (every one
//     that runs cost-only) records each simulated time its table prints
//     as a cell, "<experiment>/<name>" in seconds (fig14/AA/Base,
//     fig17/AR/+CM/DT, fig23b/AR/h4/ours, serving/edf_p99), and renders
//     the table from the cells: GB/s, ratios, shares and speedups are
//     derived at print time. A sweep's pinned point keeps the bare name
//     (fusion/fused); its other points add the swept value
//     (fusion/fused_1K). Counts and picks are printed from the same run
//     and are not cells.
//   - `pidbench -json` (CollectMetrics) runs every gated experiment
//     cost-only at the default scale and emits its cells, lower is
//     better; bench_baseline.json holds them byte for byte and is
//     regenerated (`make bench-json`) only by a change that moves a
//     number on purpose. The gated set is fig14, fig16-fig20, fig23a,
//     fig23b, ext-dsa, ext-rank, ext-launch, async, multitenant, fusion,
//     cluster, serving, algo and reorder. The application experiments
//     (fig4, fig13, fig15, fig21, fig22) always run functionally and the
//     static tables print no number; neither is gated. The serving and
//     reorder experiments also record acceptance checks, which fail the
//     collection.
//   - Options selects scale and policy: Full switches to paper-scale
//     payloads (the timing model is linear in payload, so the default
//     small scale preserves every shape) and Sched names the policy of
//     the async experiment's scheduled comm. There is no engine choice:
//     every experiment but the applications runs on the cost-only
//     backend over phantom (no-MRAM) systems, whose breakdowns are the
//     functional backend's bit for bit (core's
//     TestCostBackendMatchesFunctional).
//   - PrimSpec / RunPrimitive (prims.go) is the single primitive-
//     measurement path all figure experiments and cmd/pidtrace share;
//     apps.go wires the five application benchmarks (Table III) through
//     internal/apps.
//
// # Harness-native experiments
//
//   - "async" (async.go): serial replay vs asynchronous submission of a
//     DLRM-style pipeline of independent collectives, reporting the
//     overlap speedup of the elapsed-time timeline.
//
// # Paper map
//
//	table1..3       support matrices and app configurations
//	fig4, fig13     application time breakdowns
//	fig14..20       primitive throughput studies (§ VIII-B..F)
//	fig21, fig22    CPU comparison, element-width sensitivity
//	fig23a, fig23b  topology and multi-host studies (§ VIII-H, § IX-A)
package bench
