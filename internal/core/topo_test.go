package core

import (
	"bytes"
	"testing"

	"repro/internal/dram"
	"repro/internal/elem"
)

func TestTopoAllProduceCorrectResults(t *testing.T) {
	for _, topo := range []Topology{TopoHypercube, TopoRing, TopoTree} {
		c := testSystem(t, geo64, []int{8, 8})
		p, _ := c.plan("10")
		m := p.n * 16
		in := fillSrc(c, 0, m, 31)
		if _, err := c.AllReduceTopo(topo, Collective{Dims: "10", Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum}); err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		for _, grp := range p.groups {
			want := RefAllReduce(elem.I32, elem.Sum, groupInputs(in, grp))
			for j, pe := range grp {
				if !bytes.Equal(c.GetPEBuffer(pe, 2*m, m), want[j]) {
					t.Fatalf("%v: PE %d mismatch", topo, pe)
				}
			}
		}
	}
}

// Figure 23(a): hypercube beats ring beats tree, with tree substantially
// slower (paper: up to 2.05x and 7.89x at 32x32).
func TestTopoOrderingMatchesFigure23a(t *testing.T) {
	geo := dram.Geometry{Channels: 2, RanksPerChannel: 2, BanksPerChip: 8, MramPerBank: 1 << 18}
	run := func(topo Topology) float64 {
		c := testSystem(t, geo, []int{16, 16})
		m := 16 * 4096 // large enough that data terms dominate sync terms
		fillSrc(c, 0, m, 9)
		bd, err := c.AllReduceTopo(topo, Collective{Dims: "10", Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum})
		if err != nil {
			t.Fatal(err)
		}
		return float64(bd.Total())
	}
	hyper, ring, tree := run(TopoHypercube), run(TopoRing), run(TopoTree)
	if !(hyper < ring && ring < tree) {
		t.Fatalf("ordering wrong: hypercube=%v ring=%v tree=%v", hyper, ring, tree)
	}
	if ring/hyper < 1.2 || ring/hyper > 5 {
		t.Errorf("ring slowdown %.2fx out of plausible band (paper ~2x)", ring/hyper)
	}
	if tree/hyper < 3 || tree/hyper > 20 {
		t.Errorf("tree slowdown %.2fx out of plausible band (paper ~7.9x)", tree/hyper)
	}
}

func TestTopoStrings(t *testing.T) {
	for _, topo := range []Topology{TopoHypercube, TopoRing, TopoTree, Topology(9)} {
		if topo.String() == "" {
			t.Error("empty topology label")
		}
	}
}

func TestTopoUnknownErrors(t *testing.T) {
	c := testSystem(t, geo64, []int{8, 8})
	fillSrc(c, 0, 128, 1)
	if _, err := c.AllReduceTopo(Topology(9), Collective{Dims: "10", Src: Span(0, 128), Dst: At(256), Elem: elem.I32, Op: elem.Sum}); err == nil {
		t.Error("unknown topology accepted")
	}
}
