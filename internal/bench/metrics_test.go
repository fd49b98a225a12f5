package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestCompareMetricsGate exercises the benchmark-regression gate logic
// against real collected cells (the fusion experiment's alone):
// an equal baseline passes, a baseline the current build beats by more
// than the threshold fails, and a baseline metric the build no longer
// produces fails.
func TestCompareMetricsGate(t *testing.T) {
	ids := []string{"fusion"}
	mf, err := CollectMetrics(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Metrics) == 0 || mf.Schema != MetricsSchema {
		t.Fatalf("collected %+v", mf)
	}

	var out bytes.Buffer
	if err := CompareMetrics(&out, mf, ids, 0.10); err != nil {
		t.Fatalf("identical baseline failed: %v", err)
	}

	// Halve the baseline: every current metric is now a 100% regression.
	worse := MetricsFile{Schema: MetricsSchema, Experiments: mf.Experiments, Metrics: map[string]float64{}}
	for k, v := range mf.Metrics {
		worse.Metrics[k] = v / 2
	}
	out.Reset()
	err = CompareMetrics(&out, worse, ids, 0.10)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("halved baseline did not fail: %v", err)
	}

	// A baseline metric the build no longer produces must fail too.
	ghost := MetricsFile{Schema: MetricsSchema, Experiments: mf.Experiments, Metrics: map[string]float64{}}
	for k, v := range mf.Metrics {
		ghost.Metrics[k] = v
	}
	ghost.Metrics["fusion/ghost"] = 1
	out.Reset()
	err = CompareMetrics(&out, ghost, ids, 0.10)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("ghost metric did not fail: %v", err)
	}

	// Determinism: recollecting yields bit-identical values (the gate's
	// premise — the cost model has no nondeterminism).
	again, err := CollectMetrics(ids)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range mf.Metrics {
		if again.Metrics[k] != v {
			t.Fatalf("metric %s not deterministic: %v vs %v", k, v, again.Metrics[k])
		}
	}

	if _, err := CollectMetrics([]string{"nope"}); err == nil {
		t.Fatal("unknown experiment id did not fail")
	}
}

// The whole gated set is deterministic to the byte: two collections in
// one process — where meter history, map order and goroutine timing all
// differ between the passes — serialize identically, and to exactly the
// checked-in baseline.
func TestMetricsJSONStableAcrossRuns(t *testing.T) {
	var runs [2]bytes.Buffer
	for i := range runs {
		if err := WriteMetricsJSON(&runs[i], MetricExperimentIDs()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(runs[0].Bytes(), runs[1].Bytes()) {
		t.Errorf("two collections differ:\n%s\n---\n%s", runs[0].Bytes(), runs[1].Bytes())
	}
	baseline, err := os.ReadFile("../../bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(runs[0].Bytes(), baseline) {
		t.Errorf("collection differs from bench_baseline.json (regenerate with `make bench-json` only for an intended change): %s",
			cellDiff(t, runs[0].Bytes(), baseline))
	}
}

// cellDiff names the cells whose values differ between two metrics
// documents, and those only one of them has.
func cellDiff(t *testing.T, got, want []byte) string {
	t.Helper()
	var g, w MetricsFile
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	var diffs []string
	for name, v := range g.Metrics {
		if old, ok := w.Metrics[name]; !ok || old != v {
			diffs = append(diffs, fmt.Sprintf("%s = %v (baseline %v, present %v)", name, v, old, ok))
		}
	}
	for name := range w.Metrics {
		if _, ok := g.Metrics[name]; !ok {
			diffs = append(diffs, name+" missing")
		}
	}
	sort.Strings(diffs)
	return fmt.Sprintf("%d cells:\n%s", len(diffs), strings.Join(diffs, "\n"))
}

// Every experiment that runs cost-only is gated: it is Gated and records
// at least one cell in the collection. The application experiments
// (always functional) and the static tables are neither and record none.
// A new figure registered without cells fails here instead of escaping
// the baseline.
func TestEveryCostOnlyExperimentIsGated(t *testing.T) {
	ungated := map[string]bool{"table1": true, "table2": true, "table3": true,
		"fig4": true, "fig13": true, "fig15": true, "fig21": true, "fig22": true}
	mf, err := CollectMetrics(MetricExperimentIDs())
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]int{}
	for name := range mf.Metrics {
		cells[name[:strings.IndexByte(name, '/')]]++
	}
	for _, e := range Experiments() {
		if ungated[e.ID] {
			if e.Gated || cells[e.ID] > 0 {
				t.Errorf("%s always runs functionally or prints no number, but is gated (%d cells)", e.ID, cells[e.ID])
			}
		} else if !e.Gated || cells[e.ID] == 0 {
			t.Errorf("%s runs cost-only but records no cell (gated %v)", e.ID, e.Gated)
		}
	}
}
