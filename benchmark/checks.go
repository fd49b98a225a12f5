package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
)

// repoRoot walks up from the working directory to the directory holding
// go.mod: the benchmark runs from the repository root (`go run
// ./benchmark`) or from its own directory (`go test`).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run the benchmark from inside the repository")
		}
		dir = parent
	}
}

// readBaseline loads the metrics of bench_baseline.json, the repository's
// gated simulated-clock values. The benchmark only reads the file: the
// cost-only and serving workloads must reproduce their share of it bit
// for bit through the public API before they time anything.
func readBaseline() (map[string]float64, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "bench_baseline.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("bench_baseline.json: %w", err)
	}
	return doc.Metrics, nil
}

// checksumFloats digests the exact bit patterns of xs.
func checksumFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
