package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesSpec pins BENCHMARK.json to the tables in
// spec.go and workload.go: same workloads with the same reasons, same
// metrics with the same units, directions and bounds.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the benchmark has %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != better(m.higher) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %s [%s] %s", kind, i, g, m.name, m.unit, better(m.higher))
			}
			if bounded && (g.Bound == nil || *g.Bound != m.driver) {
				t.Errorf("%s %s: bound in BENCHMARK.json differs from %g", kind, m.name, m.driver)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.name)
			}
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s %s: name must be letters, digits, '_', '.', '-'", kind, m.name)
			}
			if seen[m.name] {
				t.Errorf("%s %s: named twice", kind, m.name)
			}
			seen[m.name] = true
		}
	}
	check("end_to_end", bj.EndToEnd, driverEndToEnd(), true)
	check("per_layer", bj.PerLayer, perLayer(), false)
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bj.RunSeconds)
	}
}

// smokeLine runs one workload in smoke mode the way a driver would and
// returns the JSON object it printed last.
func smokeLine(t *testing.T, name string, trace bool) driverLine {
	t.Helper()
	sc := setConfig{seed: 1, rounds: 1, smoke: true, trace: trace,
		traceDir: t.TempDir(), progress: func(string, ...any) {}}
	var out bytes.Buffer
	if err := runDriver(&out, sc, name, ""); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var line driverLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, line.Correct, line.Attempted, line.Failed)
	}
	return line
}

// checkEmitted requires line to carry exactly the metrics of want, each
// with its unit and a finite value. A JSON object holds a key once, so
// equal sets mean every metric is emitted exactly once.
func checkEmitted(t *testing.T, name string, line driverLine, want []metricSpec) {
	t.Helper()
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d named in BENCHMARK.json", name, len(line.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := line.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", name, m.name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s = %v is not finite", name, m.name, v.Value)
		case v.Unit != m.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", name, m.name, v.Unit, m.unit)
		}
	}
}

// TestSmoke is the benchmark's CI hook: every workload runs once on tiny
// shapes, untraced and traced, with every output check on, and must emit
// every metric BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		checkEmitted(t, w.name, smokeLine(t, w.name, false), driverEndToEnd())
	}
	// One traced run covers every workload's traced pass and every layer
	// driver, whichever workload is selected.
	checkEmitted(t, "func_replay -trace 1", smokeLine(t, "func_replay", true), perLayer())
}
