package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/elem"
)

// This file implements the benchmark-regression machinery behind
// `pidbench -json` and `pidbench -compare`: a fixed set of scalar
// metrics (simulated seconds — lower is better) per experiment,
// collected on the cost-only backend so a full sweep runs in
// milliseconds and is bit-deterministic on a given platform. The
// checked-in bench_baseline.json holds the last accepted values; CI
// recollects and fails on any metric that regressed beyond the
// threshold, which turns every perf pin into a *trajectory* guard.

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

// metricExperiments pairs each gated experiment ID with its collector,
// in the order bench_baseline.json lists them (so a bare `pidbench
// -json` reproduces the checked-in file byte for byte). Collectors run
// cost-only at fixed small-scale configurations, so the whole set
// completes in CI time and the values are deterministic.
var metricExperiments = []struct {
	id      string
	collect func(add func(name string, seconds float64)) error
}{
	{"fig14", collectFig14},
	{"async", collectAsync},
	{"multitenant", collectMultiTenant},
	{"fusion", collectFusion},
	{"cluster", collectCluster},
	{"serving", collectServing},
	{"algo", collectAlgo},
	{"reorder", collectReorder},
}

// MetricExperimentIDs returns the experiment IDs with metric collectors,
// in baseline order.
func MetricExperimentIDs() []string {
	ids := make([]string, len(metricExperiments))
	for i, me := range metricExperiments {
		ids[i] = me.id
	}
	return ids
}

// CollectMetrics gathers the metrics of the given experiment IDs.
func CollectMetrics(ids []string) (MetricsFile, error) {
	mf := MetricsFile{Schema: MetricsSchema, Metrics: map[string]float64{}}
	for _, id := range ids {
		var collect func(add func(string, float64)) error
		for _, me := range metricExperiments {
			if me.id == id {
				collect = me.collect
				break
			}
		}
		if collect == nil {
			return mf, fmt.Errorf("bench: experiment %q has no regression metrics (have %v)", id, MetricExperimentIDs())
		}
		if err := collect(func(name string, v float64) {
			mf.Metrics[id+"/"+name] = v
		}); err != nil {
			return mf, fmt.Errorf("%s: %w", id, err)
		}
		mf.Experiments = append(mf.Experiments, id)
	}
	return mf, nil
}

func collectFig14(add func(string, float64)) error {
	const size = 64 << 10
	for _, prim := range core.Primitives() {
		for _, lvl := range []core.Level{core.Baseline, core.CM} {
			spec := PrimSpec{Shape: []int{32, 32}, Dims: "10", RecvPerPE: size,
				Prim: prim, Level: lvl, Elem: elem.I32, Op: elem.Sum, CostOnly: true}
			_, bd, err := RunPrimitive(spec)
			if err != nil {
				return err
			}
			add(prim.String()+"/"+lvl.String(), float64(bd.Total()))
		}
	}
	return nil
}

func collectAsync(add func(string, float64)) error {
	results, err := MeasureAsyncOverlap(64<<10, []int{1, 8})
	if err != nil {
		return err
	}
	for _, r := range results {
		add(fmt.Sprintf("serial_d%d", r.Batches), float64(r.SerialElapsed))
		add(fmt.Sprintf("async_d%d", r.Batches), float64(r.AsyncElapsed))
	}
	return nil
}

func collectMultiTenant(add func(string, float64)) error {
	specs := []tenantSpec{{"dlrm-a", 4}, {"dlrm-b", 2}, {"gnn", 1}, {"mlp", 1}}
	serial, fair, err := runMultiTenant(specs, 16<<10, 8)
	if err != nil {
		return err
	}
	add("serial", float64(serial.Elapsed))
	add("fair", float64(fair.Elapsed))
	return nil
}

func collectFusion(add func(string, float64)) error {
	r, err := fusionPinned()
	if err != nil {
		return err
	}
	add("unfused", float64(r.Unfused))
	add("fused", float64(r.Fused))
	return nil
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
