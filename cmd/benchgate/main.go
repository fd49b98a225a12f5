// Command benchgate is the allocation gate over the wall-clock benchmark
// (benchmark/): it reruns the workloads whose allocs_per_op repeats to
// within a fraction of a percent — cost_sweep, serve_steady,
// serve_lookahead and app_mix — with the seed and seconds of the newest
// BENCH_<n>.json in the repository root, under that file's GOMAXPROCS,
// and fails when a workload allocates more than 2% above the file's
// value. Run it from the repository root:
//
//	go run ./cmd/benchgate   (make bench-gate)
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// workload is the part of one workload's result the gate reads: a row of
// a result set, or the last line of a -workload run.
type workload struct {
	Name    string
	Metrics struct {
		Allocs struct{ Value float64 } `json:"allocs_per_op"`
	}
}

// gatedWorkloads are the workloads whose allocs_per_op the gate holds.
var gatedWorkloads = []string{"cost_sweep", "serve_steady", "serve_lookahead", "app_mix"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run() error {
	names, _ := filepath.Glob("BENCH_*.json") // the pattern is well-formed
	path, newest := "", -1
	for _, p := range names {
		if n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(p, "BENCH_"), ".json")); err == nil && n > newest {
			path, newest = p, n
		}
	}
	if path == "" {
		return fmt.Errorf("no BENCH_<n>.json in the working directory (run from the repository root)")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ref struct {
		GOMAXPROCS int     `json:"gomaxprocs"`
		Seed       int64   `json:"seed"`
		Seconds    float64 `json:"seconds"`
		Workloads  []workload
	}
	if err := json.Unmarshal(raw, &ref); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var over []string
	gated := 0
	for _, w := range ref.Workloads {
		if !slices.Contains(gatedWorkloads, w.Name) {
			continue
		}
		gated++
		cmd := exec.Command("go", "run", "./benchmark", "-workload", w.Name, "-trace", "0",
			"-seed", strconv.FormatInt(ref.Seed, 10), "-seconds", strconv.FormatFloat(ref.Seconds, 'g', -1, 64))
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(ref.GOMAXPROCS))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		var got workload
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
			return fmt.Errorf("%s: reading the result line: %w", w.Name, err)
		}
		limit := w.Metrics.Allocs.Value * 1.02
		fmt.Printf("%-16s allocs_per_op %.4f, %s %.4f, limit %.4f\n", w.Name, got.Metrics.Allocs.Value, path, w.Metrics.Allocs.Value, limit)
		if got.Metrics.Allocs.Value > limit {
			over = append(over, w.Name)
		}
	}
	if gated != len(gatedWorkloads) {
		return fmt.Errorf("%s holds %d of the %d gated workloads", path, gated, len(gatedWorkloads))
	}
	if len(over) > 0 {
		return fmt.Errorf("allocs_per_op more than 2%% above %s on %s", path, strings.Join(over, ", "))
	}
	return nil
}
