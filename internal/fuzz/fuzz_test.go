package fuzz

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestFuzzSmoke runs a small, deterministic slice of the pidfuzz loop in
// process so CI catches reference-model divergences without the
// standalone binary. The Auto pseudo-level is in the draw pool, so the
// autotuner's dry-run, cache and level-skip paths are exercised too.
func TestFuzzSmoke(t *testing.T) {
	const scenarios = 24
	rng := rand.New(rand.NewSource(7))
	autoSeen := false
	for i := 0; i < scenarios; i++ {
		sc := Random(rng)
		if sc.Lvl == core.Auto {
			autoSeen = true
		}
		if err := sc.Check(rng); err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
	}
	if !autoSeen {
		// The fixed seed should draw Auto at least once; if a draw-pool
		// change broke that, pin one explicitly.
		sc := Random(rng)
		sc.Lvl = core.Auto
		if err := sc.Check(rng); err != nil {
			t.Fatalf("pinned Auto scenario: %v", err)
		}
	}
}

// TestServingFuzzSmoke runs a deterministic slice of randomized
// online-serving scenarios: random tenant mixes, arrival processes,
// deadlines, overload budgets and mid-run churn, checked for replay
// determinism, future leaks, hazard violations and allocator
// re-coalescing (see ServingScenario).
func TestServingFuzzSmoke(t *testing.T) {
	const scenarios = 12
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < scenarios; i++ {
		sc, err := RandomServing(rng)
		if err != nil {
			t.Fatalf("serving scenario %d: draw: %v", i, err)
		}
		if err := sc.Check(); err != nil {
			t.Fatalf("serving scenario %d: %v", i, err)
		}
	}
}

// TestClusterFuzzSmoke runs a deterministic slice of randomized cluster
// scenarios: hierarchical collectives over 1-4 hosts diffed against the
// reference model on global ranks, with a cost-only twin cluster whose
// breakdowns must match the functional ones bit-for-bit.
func TestClusterFuzzSmoke(t *testing.T) {
	const scenarios = 8
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < scenarios; i++ {
		sc := RandomCluster(rng)
		if err := sc.Check(rng); err != nil {
			t.Fatalf("cluster scenario %d: %v", i, err)
		}
	}
}
