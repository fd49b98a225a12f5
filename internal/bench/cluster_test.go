package bench

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
)

// The acceptance gate of the cluster experiment: at the pinned
// configuration the hierarchical lowering must beat the flat baseline,
// and the network leg must be priced (nonzero) on both.
func TestClusterSpeedupGate(t *testing.T) {
	p := cost.DefaultParams()
	hier, err := MeasureClusterAllReduce(clusterPinHosts, clusterPinPerPE, p, core.AlgoAuto, false)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := MeasureClusterAllReduce(clusterPinHosts, clusterPinPerPE, p, core.AlgoAuto, true)
	if err != nil {
		t.Fatal(err)
	}
	if hier.Get(cost.Network) <= 0 || flat.Get(cost.Network) <= 0 {
		t.Fatal("cluster AllReduce charged no network time")
	}
	speedup := float64(flat.Total()) / float64(hier.Total())
	if speedup <= 1 {
		t.Fatalf("hierarchical lowering does not beat the flat baseline: %.3fx (hier %v, flat %v)",
			speedup, hier.Total(), flat.Total())
	}
	t.Logf("pinned hier/flat speedup: %.2fx", speedup)
}

// The cost-only sweep must reach cluster scale (>= 1024 hosts) quickly —
// this is what CI runs, so it doubles as the wall-clock guard.
func TestClusterSweepScales(t *testing.T) {
	bd, err := MeasureClusterAllReduce(1024, 16<<10, cost.DefaultParams(), core.AlgoAuto, false)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total() <= 0 || bd.Get(cost.Network) <= 0 {
		t.Fatalf("1024-host sweep produced an empty breakdown: %+v", bd)
	}
	small, err := MeasureClusterAllReduce(16, 16<<10, cost.DefaultParams(), core.AlgoAuto, false)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Get(cost.Network) <= small.Get(cost.Network) {
		t.Error("network time did not grow from 16 to 1024 hosts")
	}
}

func TestClusterExperimentRuns(t *testing.T) {
	e, err := ByID("cluster")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(Options{W: &buf}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("cluster experiment produced no output")
	}
}
