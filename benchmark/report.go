package main

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"text/tabwriter"
)

// printSet renders a result set: per workload every end-to-end metric by
// name with its unit, quartiles, p90, sample count and spread, and — if a
// traced round ran — every per-layer metric it produced.
func printSet(w io.Writer, set resultSet) {
	fmt.Fprintf(w, "two-clock benchmark: %s, %d CPUs, rounds at GOMAXPROCS=%d, seed %d, %d rounds, %.4gs of timed passes per workload\n",
		set.Go, set.NProc, set.GOMAXPROCS, set.Seed, set.Rounds, set.Seconds)
	fmt.Fprintln(w, "host clock: one client issuing passes back to back (closed loop); simulated clock (sim_*, unit sim_s): deterministic,")
	fmt.Fprintln(w, "the serving runs are open loop in simulated time, sojourn counted from the scheduled arrival (generator lateness 0 by construction)")
	if set.Smoke {
		fmt.Fprintln(w, "SMOKE MODE: tiny shapes, one pass - the numbers mean nothing")
	}
	for _, res := range set.Workloads {
		fmt.Fprintf(w, "\n== %s: %d ops/pass, %d passes pooled, pass %.2f ms median (q1 %.2f, q3 %.2f, p90 %.2f)\n",
			res.Name, res.OpsPerPass, res.PassMs.N, res.PassMs.Median, res.PassMs.Q1, res.PassMs.Q3, res.PassMs.P90)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  metric\tvalue\tunit\tq1\tq3\tp90\tn\tspread\tbound")
		for _, m := range endToEnd {
			v := res.Metrics[m.name]
			if v.N > 1 {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%.6g\t%.6g\t%.6g\t%d\t%.1f%%\t%g\n",
					m.name, v.Value, v.Unit, v.Q1, v.Q3, v.P90, v.N, 100*v.spread(), m.bound)
			} else {
				fmt.Fprintf(tw, "  %s\t%.17g\t%s\t\t\t\t\t\t%g\n", m.name, v.Value, v.Unit, m.bound)
			}
		}
		tw.Flush()
		fmt.Fprintf(w, "  attempted %d ops, failed %d (errors and wrong outputs), %d shed or late in simulated time\n",
			res.Attempted, res.Failed, res.SimFailed)
		if res.Layer != nil {
			printLayer(w, res, !set.Smoke)
		}
	}
}

// printLayer renders a traced round's per-layer metrics in name order
// (so by module) and, unless checks is off, whether the workload starves
// the layers it is meant to.
func printLayer(w io.Writer, res workloadResult, checks bool) {
	fmt.Fprintf(w, "  traced round: trace_overhead %+.1f%% (traced pass median over untraced, minus one); spans in %s\n",
		100*res.TraceOverhead, res.TraceFile)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, k := range slices.Sorted(maps.Keys(res.Layer)) {
		note := ""
		if strings.HasPrefix(k, "cost.fig14_speedup_") {
			note = fmt.Sprintf("simulated; mean error vs the paper's 5.19x/4.46x/4.23x is %.1f%% - the only reference the repo holds, the model is otherwise unvalidated",
				100*res.Layer["cost.paper_err_mean"])
		}
		fmt.Fprintf(tw, "    %s\t%.6g\t%s\t%s\n", k, res.Layer[k], unitOf(k), note)
	}
	tw.Flush()
	if !checks {
		return // smoke shapes are too small to starve anything
	}
	for _, line := range starvationChecks(res) {
		fmt.Fprintln(w, "  check:", line)
	}
}

// starvationChecks states, from the traced round, whether the workload
// leaves idle the layers it is meant to leave idle.
func starvationChecks(res workloadResult) []string {
	l := res.Layer
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "NOT MET"
	}
	var out []string
	if share, ok := l["core.compile_share"]; ok {
		switch res.Name {
		case "cost_sweep":
			out = append(out, fmt.Sprintf("compile is the majority of a pass: %.1f%% (%s)", 100*share, verdict(share > 0.5)))
		default:
			out = append(out, fmt.Sprintf("compile is under 1%% of a pass: %.2f%% (%s)", 100*share, verdict(share < 0.01)))
		}
	}
	switch res.Name {
	case "serve_steady":
		pick, step := l["core.pick_overhead_us"], l["core.step_us"]
		out = append(out, fmt.Sprintf("pick overhead under a tenth of a step: %.3f of %.3f us (%s)", pick, step, verdict(pick < step/10)))
	case "serve_lookahead":
		pick, step := l["core.pick_overhead_us"], l["core.step_lookahead_us"]
		out = append(out, fmt.Sprintf("pick overhead over half of a step: %.3f of %.3f us (%s)", pick, step, verdict(pick > step/2)))
	}
	return out
}
