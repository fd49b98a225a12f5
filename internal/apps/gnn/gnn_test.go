package gnn

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/elem"
)

func testCfg() Config {
	in := data.GNNInput{Name: "test", Graph: data.RMAT(1024, 4096, 20), F: 16}
	return Config{Input: &in, Rows: 8, Cols: 8, Layers: 2, Elem: elem.I32, Seed: 3}
}

func TestValidate(t *testing.T) {
	if err := testCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testCfg()
	bad.Rows = 3 // 1024 % 24 != 0
	if err := bad.Validate(); err == nil {
		t.Error("bad grid accepted")
	}
}

func TestPIMMatchesCPUBothVariants(t *testing.T) {
	cfg := testCfg()
	for _, variant := range []Variant{RSAR, ARAG} {
		want, _, err := RunCPU(cfg, variant)
		if err != nil {
			t.Fatal(err)
		}
		for _, lvl := range []core.Level{core.Baseline, core.IM} {
			t.Run(fmt.Sprintf("%v/%v", variant, lvl), func(t *testing.T) {
				got, prof, err := RunPIM(cfg, variant, lvl)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("feature[%d] = %d, want %d", i, got[i], want[i])
					}
				}
				if prof.KernelTime <= 0 {
					t.Error("no kernel time")
				}
			})
		}
	}
}

func TestVariantsUseTheRightPrimitives(t *testing.T) {
	cfg := testCfg()
	_, rsar, err := RunPIM(cfg, RSAR, core.IM)
	if err != nil {
		t.Fatal(err)
	}
	if rsar.ByPrimitive[core.ReduceScatter] <= 0 || rsar.ByPrimitive[core.AllReduce] <= 0 {
		t.Error("RS&AR must use ReduceScatter and AllReduce")
	}
	if rsar.ByPrimitive[core.AllGather] != 0 {
		t.Error("RS&AR must not use AllGather")
	}
	_, arag, err := RunPIM(cfg, ARAG, core.IM)
	if err != nil {
		t.Fatal(err)
	}
	if arag.ByPrimitive[core.AllReduce] <= 0 || arag.ByPrimitive[core.AllGather] <= 0 {
		t.Error("AR&AG must use AllReduce and AllGather")
	}
	if arag.ByPrimitive[core.ReduceScatter] != 0 {
		t.Error("AR&AG must not use ReduceScatter")
	}
}

// Figure 22: smaller word widths speed communication up, and 8-bit
// elements remove domain transfer entirely (§ V-C).
func TestWordWidthSensitivity(t *testing.T) {
	times := map[elem.Type]cost.Seconds{}
	dts := map[elem.Type]cost.Seconds{}
	for _, et := range []elem.Type{elem.I8, elem.I16, elem.I32} {
		cfg := testCfg()
		cfg.Elem = et
		// Widths must agree between CPU and PIM despite wrapping.
		want, _, err := RunCPU(cfg, RSAR)
		if err != nil {
			t.Fatal(err)
		}
		got, prof, err := RunPIM(cfg, RSAR, core.IM)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: feature[%d] = %d, want %d", et, i, got[i], want[i])
			}
		}
		times[et] = prof.CommTotal()
		dts[et] = prof.CommBreakdown.Get(cost.DomainTransfer)
	}
	if !(times[elem.I8] < times[elem.I16] && times[elem.I16] < times[elem.I32]) {
		t.Errorf("comm time should grow with width: %v", times)
	}
	// INT8 removes DT from ReduceScatter and AllReduce (§ V-C); only the
	// setup/teardown primitives (Scatter/Broadcast/Gather) still pay it,
	// so the DT share must collapse relative to INT32 far beyond the 4x
	// data-size ratio.
	if dts[elem.I32] <= 0 {
		t.Fatal("INT32 should pay domain transfer")
	}
	if ratio := float64(dts[elem.I8]) / float64(dts[elem.I32]); ratio > 0.15 {
		t.Errorf("INT8 DT share %.3f of INT32's, want < 0.15 (only setup primitives)", ratio)
	}
}

func TestDeterministic(t *testing.T) {
	a, _, err := RunPIM(testCfg(), ARAG, core.CM)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := RunPIM(testCfg(), ARAG, core.CM)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic")
		}
	}
}

// tilesOracle is the allocating builder tileSize and packTiles replaced:
// it counts every tile's entries, then serializes each row block's tiles
// into their slots of a fresh payload.
func tilesOracle(g *data.Graph, rows, cols int) ([]byte, int) {
	rowsPer := g.V / rows
	strip := func(w int32) int { return int(w) % rowsPer / (rowsPer / cols) }
	nnz := make([]int, rows*cols)
	maxNnz := 0
	for v := 0; v < g.V; v++ {
		for _, w := range g.Neighbors(v) {
			k := strip(w) + v/rowsPer*cols
			nnz[k]++
			maxNnz = max(maxNnz, nnz[k])
		}
	}
	maxTile := (4*(rowsPer+1) + 4*maxNnz + 7) &^ 7
	out := make([]byte, rows*cols*maxTile)
	fill := make([]int, cols)
	for i := 0; i < rows; i++ {
		clear(fill)
		tiles := out[i*cols*maxTile:]
		for r := 0; r < rowsPer; r++ {
			for _, w := range g.Neighbors(i*rowsPer + r) {
				j := strip(w)
				putU32(tiles[j*maxTile+4*(rowsPer+1)+4*fill[j]:], uint32(localCol(g.V, rows, cols, j, int(w))))
				fill[j]++
			}
			for j, n := range fill {
				putU32(tiles[j*maxTile+4*(r+1):], uint32(n))
			}
		}
	}
	return out, maxTile
}

// tileSize plus packTiles into a staged payload is the allocating builder,
// byte for byte, on several graphs and grids.
func TestPackTilesMatchesOracle(t *testing.T) {
	for _, g := range []*data.Graph{data.RMAT(1024, 4096, 20), data.Uniform(512, 2048, 21),
		data.Undirected(data.RMAT(256, 1024, 22))} {
		for _, grid := range [][2]int{{8, 8}, {4, 8}, {2, 2}, {1, 4}} {
			rows, cols := grid[0], grid[1]
			want, wantTile := tilesOracle(g, rows, cols)
			maxTile := tileSize(g, rows, cols)
			got := make([]byte, rows*cols*maxTile)
			packTiles(got, g, rows, cols, maxTile)
			if maxTile != wantTile || !bytes.Equal(got, want) {
				t.Errorf("%d vertices on %dx%d: the staged tiles differ from the oracle's", g.V, rows, cols)
			}
		}
	}
}
