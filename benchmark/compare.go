package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

func readSet(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	if set.Schema != 1 {
		return set, fmt.Errorf("%s: result set schema %d, want 1", path, set.Schema)
	}
	return set, nil
}

// compareFiles prints one row per workload x end-to-end metric of two
// result sets: both medians with their quartiles, the ratio b/a with its
// base, and the bound. A row is a REGRESSION when b is worse than a by
// more than the bound, and UNRESOLVED — not unchanged — when either
// side's quartile spread is wider than the bound, because then the runs
// cannot tell. The simulated-clock rows are functions of the seed and are
// compared only between sets of equal seed. It returns an error when any
// row regressed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s (%s, %d CPUs, seed %d, %gs)\nb = %s (%s, %d CPUs, seed %d, %gs)\n",
		pathA, a.Go, a.NProc, a.Seed, a.Seconds, pathB, b.Go, b.NProc, b.Seed, b.Seconds)
	byName := map[string]workloadResult{}
	for _, res := range b.Workloads {
		byName[res.Name] = res
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3]\tb median [q1, q3]\tb/a (base a)\tbound\tverdict")
	regressions, unresolved := 0, 0
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t(absent from b)\n", ra.Name)
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.name], rb.Metrics[m.name]
			verdict := "within bound"
			worse := worseBy(m, va.Value, vb.Value)
			switch {
			case a.Seed != b.Seed && (m.unit == "sim_s" || m.name == "fail_share"):
				verdict = "not compared (seeds differ)"
			case math.Max(va.spread(), vb.spread()) > m.bound:
				verdict = "UNRESOLVED (spread wider than bound)"
				unresolved++
			case worse > m.bound:
				verdict = "REGRESSION"
				regressions++
			case worse < -m.bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%g\t%s\n", ra.Name, m.name, m.unit,
				cell(va), cell(vb), ratio(va.Value, vb.Value), m.bound, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d regressions, %d unresolved rows\n", regressions, unresolved)
	if regressions > 0 {
		return fmt.Errorf("%d rows regressed beyond their bound", regressions)
	}
	return nil
}

// worseBy returns how much worse b is than a as a share of a, in the
// metric's own direction (negative when b is better). A metric whose base
// is zero (fail_share) worsens by its absolute increase.
func worseBy(m metricSpec, a, b float64) float64 {
	d := b - a
	if m.higher {
		d = a - b
	}
	if a == 0 {
		return d
	}
	return d / math.Abs(a)
}

func cell(v value) string {
	if v.N > 1 {
		return fmt.Sprintf("%.6g [%.6g, %.6g]", v.Value, v.Q1, v.Q3)
	}
	return fmt.Sprintf("%.10g", v.Value)
}

func ratio(a, b float64) string {
	if a == 0 {
		return fmt.Sprintf("%g vs 0", b)
	}
	return fmt.Sprintf("%.4f", b/a)
}
