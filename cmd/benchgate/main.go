// Command benchgate is the allocation gate over the wall-clock benchmark
// (benchmark/): it reruns the workloads whose allocs_per_op and
// bytes_per_op repeat to within a fraction of a percent — cost_sweep,
// serve_steady, serve_lookahead and app_mix — with the seed and seconds
// of the newest BENCH_<n>.json in the repository root, under that file's
// GOMAXPROCS, and fails when a workload allocates more objects or more
// bytes per op than 2% above the file's values. Run it from the
// repository root:
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
	Metrics map[string]struct{ Value float64 }
}

// gatedMetrics are the metrics the gate holds to 2% above the reference.
var gatedMetrics = []string{"allocs_per_op", "bytes_per_op"}

// gatedWorkloads are the workloads whose gatedMetrics the gate holds.
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
		for _, m := range gatedMetrics {
			want, ok := w.Metrics[m]
			if !ok {
				return fmt.Errorf("%s holds no %s for %s", path, m, w.Name)
			}
			have, ok := got.Metrics[m]
			if !ok {
				return fmt.Errorf("%s: the run reported no %s", w.Name, m)
			}
			limit := want.Value * 1.02
			fmt.Printf("%-16s %-13s %.4f, %s %.4f, limit %.4f\n", w.Name, m, have.Value, path, want.Value, limit)
			if have.Value > limit {
				over = append(over, w.Name+" "+m)
			}
		}
	}
	if gated != len(gatedWorkloads) {
		return fmt.Errorf("%s holds %d of the %d gated workloads", path, gated, len(gatedWorkloads))
	}
	if len(over) > 0 {
		return fmt.Errorf("more than 2%% above %s: %s", path, strings.Join(over, ", "))
	}
	return nil
}
