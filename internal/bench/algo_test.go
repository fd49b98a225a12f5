package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/elem"
)

func TestAlgoExperimentRegistered(t *testing.T) {
	e, err := ByID("algo")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(Options{W: &buf}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "makespan objective gains") {
		t.Error("algo experiment produced no objective-gain line")
	}
}

// The pinned cluster crossover: at 64 hosts the tree wire algorithm must
// win the latency-bound small payload and lose the bandwidth-bound large
// one, and the analytic Auto pick must match the measured winner at both
// points.
func TestClusterAlgoCrossoverPinned(t *testing.T) {
	params := cost.DefaultParams()
	for _, c := range []struct {
		name     string
		perPE    int
		treeWins bool
	}{
		{"small", algoClusterSmall, true},
		{"large", algoClusterLarge, false},
	} {
		ring, err := MeasureClusterAllReduce(clusterPinHosts, c.perPE, params, core.AlgoRing, false)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := MeasureClusterAllReduce(clusterPinHosts, c.perPE, params, core.AlgoTree, false)
		if err != nil {
			t.Fatal(err)
		}
		auto, err := MeasureClusterAllReduce(clusterPinHosts, c.perPE, params, core.AlgoAuto, false)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s (%dK/PE): ring %.3fms tree %.3fms auto %.3fms", c.name, c.perPE>>10,
			float64(ring.Total())*1e3, float64(tree.Total())*1e3, float64(auto.Total())*1e3)
		if c.treeWins && tree.Total() >= ring.Total() {
			t.Errorf("%s: tree %v should beat ring %v", c.name, tree.Total(), ring.Total())
		}
		if !c.treeWins && ring.Total() >= tree.Total() {
			t.Errorf("%s: ring %v should beat tree %v", c.name, ring.Total(), tree.Total())
		}
		best := ring.Total()
		if tree.Total() < best {
			best = tree.Total()
		}
		if auto.Total() != best {
			t.Errorf("%s: Auto total %v, want the winner's %v", c.name, auto.Total(), best)
		}
	}
}

// The pinned objective gate: on the AllGather point the two objectives
// must resolve to different candidates, and the makespan pick must win
// the overlapped elapsed measurement outright.
func TestMakespanObjectiveBeatsMeterPinned(t *testing.T) {
	g, err := MeasureAutoObjectiveGain()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("meter pick (%v,%v) %.4fms; makespan pick (%v,%v) %.4fms",
		g.MeterAlgo, g.MeterLevel, float64(g.MeterElapsed)*1e3,
		g.MakespanAlgo, g.MakespanLevel, float64(g.MakespanElapsed)*1e3)
	if g.MeterAlgo == g.MakespanAlgo && g.MeterLevel == g.MakespanLevel {
		t.Fatal("objectives resolved to the same candidate; the pinned point no longer exercises the makespan objective")
	}
	if g.MakespanElapsed >= g.MeterElapsed {
		t.Errorf("makespan pick elapsed %v does not beat meter pick %v", g.MakespanElapsed, g.MeterElapsed)
	}
}

// PrimSpec.Algo must route to the descriptor path for AllReduce and
// Broadcast and be rejected everywhere else.
func TestPrimSpecAlgorithm(t *testing.T) {
	spec := PrimSpec{Shape: []int{8, 8}, Dims: "10", RecvPerPE: 512,
		Prim: core.AllReduce, Level: core.Baseline, Elem: elem.I32, Op: elem.Sum, Algo: core.AlgoRing}
	if _, err := RunPrimitive(spec); err != nil {
		t.Fatalf("AllReduce/ring: %v", err)
	}
	spec.Prim = core.Broadcast
	spec.Algo = core.AlgoTree
	if _, err := RunPrimitive(spec); err != nil {
		t.Fatalf("Broadcast/tree: %v", err)
	}
	spec.Prim = core.AlltoAll
	spec.Algo = core.AlgoRing
	if _, err := RunPrimitive(spec); err == nil {
		t.Error("AlltoAll with an explicit algorithm accepted")
	}
}
