// Command pidbench regenerates the paper's evaluation artifacts on the
// simulated clock: every table and figure of § VIII has a registered
// experiment (internal/bench's package doc maps them to the paper). Wall-clock
// measurements of the simulator itself live in benchmark/.
//
// Usage:
//
//	pidbench -list
//	pidbench -exp fig14
//	pidbench -exp async -sched lookahead
//	pidbench -exp reorder
//	pidbench -exp all [-full]
//	pidbench -exp fig14,fig16,async -json
//	pidbench -compare bench_baseline.json [-threshold 0.10]
//
// The default scale keeps the whole suite within laptop memory and
// minutes; -full uses paper-scale payloads (the timing model is linear in
// payload, so shapes are identical; see bench.Options). Every experiment
// but the applications (fig4, fig13, fig15, fig21, fig22), whose kernels
// consume real data, runs on the cost-only backend: its breakdowns are
// the functional backend's bit for bit. -sched names the submission
// scheduling policy the "async" experiment's scheduled comm uses (wfq,
// edf, fifo, lookahead — see `pidinfo -sched`); the "reorder" experiment
// sweeps all registered policies against an adversarial submission
// order. -exp accepts a comma-separated list.
//
// -json runs the selected gated experiments (all of them by default:
// fig14, fig16-fig20, fig23a, fig23b, ext-dsa, ext-rank, ext-launch,
// async, multitenant, fusion, cluster, serving, algo and reorder)
// cost-only at the default scale and emits their cells as JSON, the
// format of the checked-in bench_baseline.json. A cell is one simulated
// time a table prints, named "<experiment>/<name>" (fig16/RS/+PR,
// fig23b/AR/h4/ours), in seconds, lower is better. The application
// experiments always run functionally and are not gated. -compare
// recollects the baseline's cells and fails (exit 1) on any more than
// -threshold worse, or on a failed acceptance check of serving or
// reorder: the CI benchmark-regression gate. Regenerate the baseline with
// `make bench-json` only in a change that moves a number on purpose.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/pidcomm"
)

func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "", "experiment ID (e.g. fig14, table1), a comma-separated list, or 'all'")
	full := flag.Bool("full", false, "use paper-scale payloads (slower, more memory)")
	sched := flag.String("sched", "wfq", "submission scheduling policy of the 'async' experiment's scheduled comm, by registry name (see pidinfo -sched); the 'reorder' experiment sweeps all registered policies")
	jsonOut := flag.Bool("json", false, "emit the selected gated experiments' cells (simulated seconds, run cost-only) as JSON instead of tables (deterministic)")
	compare := flag.String("compare", "", "baseline metrics JSON to compare against; exits 1 on >threshold regression")
	threshold := flag.Float64("threshold", 0.10, "relative regression allowed by -compare (0.10 = 10%)")
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	pol, err := pidcomm.ParseSchedPolicy(*sched)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pidbench:", err)
		return 2
	}

	ids := strings.FieldsFunc(*exp, func(r rune) bool { return r == ',' })

	if *jsonOut {
		if len(ids) == 0 {
			ids = bench.MetricExperimentIDs()
		}
		if err := bench.WriteMetricsJSON(os.Stdout, ids); err != nil {
			fmt.Fprintln(os.Stderr, "pidbench:", err)
			return 1
		}
		return 0
	}
	if *compare != "" {
		f, err := os.Open(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pidbench:", err)
			return 1
		}
		baseline, err := bench.ReadMetricsJSON(f)
		f.Close()
		if err == nil {
			err = bench.CompareMetrics(os.Stdout, baseline, ids, *threshold)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pidbench:", err)
			return 1
		}
		return 0
	}

	if *list || *exp == "" {
		fmt.Println("Available experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}
	o := bench.Options{W: os.Stdout, Full: *full, Sched: pol}
	start := time.Now()
	if *exp == "all" {
		err = bench.RunAll(o)
	} else {
		// Resolve the whole list before running anything: a typo in the
		// last ID must not waste the earlier experiments' run time.
		exps := make([]bench.Experiment, 0, len(ids))
		for _, id := range ids {
			var e bench.Experiment
			if e, err = bench.ByID(id); err != nil {
				fmt.Fprintln(os.Stderr, "pidbench:", err)
				return 2
			}
			exps = append(exps, e)
		}
		for i, e := range exps {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
			if err = e.Run(o); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pidbench:", err)
		return 1
	}
	fmt.Printf("\n(%s)\n", time.Since(start).Round(time.Millisecond))
	return 0
}
