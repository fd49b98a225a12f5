package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file implements the benchmark-regression machinery behind
// `pidbench -json` and `pidbench -compare`: every gated experiment
// (Experiment.Gated) runs cost-only at the default scale, and the cells
// it records — each simulated time its table prints, in seconds, lower
// is better — are the metrics. The cost model is bit-deterministic on a
// given platform, so the checked-in bench_baseline.json holds the last
// accepted values exactly; CI recollects and fails on any metric that
// regressed beyond the threshold, which turns every figure into a
// *trajectory* guard.

// MetricsSchema versions the JSON layout.
const MetricsSchema = 1

// MetricsFile is the JSON document `pidbench -json` emits and
// `pidbench -compare` consumes.
type MetricsFile struct {
	// Schema is MetricsSchema.
	Schema int `json:"schema"`
	// Experiments lists the experiment IDs the metrics were collected
	// from, in collection order.
	Experiments []string `json:"experiments"`
	// Metrics maps "<experiment>/<name>" to simulated seconds (lower is
	// better). Wall-clock is not gated here; that is benchmark/'s job.
	Metrics map[string]float64 `json:"metrics"`
}

// MetricExperimentIDs returns the gated experiment IDs in registration
// order: what a bare `pidbench -json` collects.
func MetricExperimentIDs() []string {
	var ids []string
	for _, e := range registry {
		if e.Gated {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// CollectMetrics runs the given gated experiments cost-only at the
// default scale and gathers their cells. An experiment whose acceptance
// checks fail fails the collection.
func CollectMetrics(ids []string) (MetricsFile, error) {
	mf := MetricsFile{Schema: MetricsSchema, Metrics: map[string]float64{}}
	for _, id := range ids {
		e, err := ByID(id)
		if err == nil && !e.Gated {
			err = fmt.Errorf("bench: experiment %q has no regression metrics (have %v)", id, MetricExperimentIDs())
		}
		if err != nil {
			return mf, err
		}
		c := &cells{id: id, m: mf.Metrics}
		if err := e.run(Options{W: io.Discard}, c); err != nil {
			return mf, fmt.Errorf("%s: %w", id, err)
		}
		if len(c.failed) > 0 {
			return mf, fmt.Errorf("%s: %s", id, strings.Join(c.failed, "; "))
		}
		mf.Experiments = append(mf.Experiments, id)
	}
	return mf, nil
}

// WriteMetricsJSON collects the metrics for ids and writes the document.
func WriteMetricsJSON(w io.Writer, ids []string) error {
	mf, err := CollectMetrics(ids)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(mf)
}

// ReadMetricsJSON parses a metrics document.
func ReadMetricsJSON(r io.Reader) (MetricsFile, error) {
	var mf MetricsFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return mf, fmt.Errorf("bench: parsing baseline: %w", err)
	}
	if mf.Schema != MetricsSchema {
		return mf, fmt.Errorf("bench: baseline schema %d, want %d (regenerate with `make bench-json`)", mf.Schema, MetricsSchema)
	}
	return mf, nil
}

// CompareMetrics recollects the baseline's metrics (restricted to ids if
// non-empty), writes a per-metric delta table to w, and returns an error
// naming every metric whose simulated cost regressed more than threshold
// (e.g. 0.10 = 10%) over the baseline, or that the current build no
// longer produces. Improvements and new metrics are reported but never
// fail the comparison.
func CompareMetrics(w io.Writer, baseline MetricsFile, ids []string, threshold float64) error {
	if len(ids) == 0 {
		ids = baseline.Experiments
	}
	current, err := CollectMetrics(ids)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(baseline.Metrics))
	for name := range baseline.Metrics {
		for _, id := range ids {
			if len(name) > len(id) && name[:len(id)] == id && name[len(id)] == '/' {
				names = append(names, name)
				break
			}
		}
	}
	sort.Strings(names)

	t := newTable("Metric", "Baseline (ms)", "Current (ms)", "Delta")
	var regressions []string
	for _, name := range names {
		base := baseline.Metrics[name]
		cur, ok := current.Metrics[name]
		if !ok {
			t.add(name, fmt.Sprintf("%.4f", base*1e3), "MISSING", "")
			regressions = append(regressions, name+" (missing)")
			continue
		}
		delta := 0.0
		if base > 0 {
			delta = (cur - base) / base
		}
		mark := ""
		if delta > threshold {
			mark = "  << REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s (+%.1f%%)", name, delta*100))
		}
		t.add(name, fmt.Sprintf("%.4f", base*1e3), fmt.Sprintf("%.4f", cur*1e3),
			fmt.Sprintf("%+.2f%%%s", delta*100, mark))
	}
	var added []string
	for name := range current.Metrics {
		if _, ok := baseline.Metrics[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		t.add(name, "(new)", fmt.Sprintf("%.4f", current.Metrics[name]*1e3), "")
	}
	t.write(w)
	if len(regressions) > 0 {
		return fmt.Errorf("bench: %d metric(s) regressed beyond %.0f%%: %v",
			len(regressions), threshold*100, regressions)
	}
	fmt.Fprintf(w, "\nall %d metrics within %.0f%% of baseline\n", len(names), threshold*100)
	return nil
}
