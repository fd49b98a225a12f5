package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/elem"
)

// TestAlgorithmsNeedNoImport pins the table as the whole algorithm axis:
// this test binary links nothing but core's own imports, and still every
// primitive has its rows and an alternative compiles.
func TestAlgorithmsNeedNoImport(t *testing.T) {
	for _, prim := range Primitives() {
		want := "[ref]"
		switch prim {
		case AllReduce:
			want = "[ref ring tree rsag]"
		case Broadcast:
			want = "[ref ring tree]"
		}
		if got := fmt.Sprint(RegisteredAlgorithms(prim)); got != want {
			t.Errorf("RegisteredAlgorithms(%v) = %v, want %v", prim, got, want)
		}
	}
	cp, err := costSystem(t, geo64, []int{8, 8}).Compile(Collective{Prim: AllReduce, Dims: "10",
		Src: Span(0, 64), Dst: At(64), Elem: elem.I32, Op: elem.Sum, Level: Baseline, Algorithm: AlgoRing})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Algorithm() != AlgoRing {
		t.Errorf("compiled %v, want ring", cp.Algorithm())
	}
}

// TestRsagIsReduceScatterThenAllGather pins the Rabenseifner AllReduce
// to its two halves: compiled unfused, it charges entry for entry what
// the unfused sequence of a Baseline ReduceScatter and a Baseline
// AllGather placed elsewhere charges, and it leaves at its destination
// the bytes that AllGather leaves at its own.
func TestRsagIsReduceScatterThenAllGather(t *testing.T) {
	const n, m = 8, 512
	c := newTestComm(t, geo64, []int{8, 8}, Config{Fuse: FuseOff})
	fillPEs(c, 0, m, 3)
	rsag, err := c.Compile(Collective{Prim: AllReduce, Dims: "10", Src: Span(0, m), Dst: At(m),
		Elem: elem.I32, Op: elem.Sum, Level: Baseline, Algorithm: AlgoRabenseifner})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.CompileSequence(
		Collective{Prim: ReduceScatter, Dims: "10", Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: Baseline},
		Collective{Prim: AllGather, Dims: "10", Src: Span(2*m, m/n), Dst: At(3 * m), Level: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	got, want := rsag.tr.adds, seq.tr.adds
	if len(got) != len(want) {
		t.Fatalf("rsag charges %d additions, the ReduceScatter+AllGather sequence %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("addition %d: rsag charges %+v, the sequence %+v", i, got[i], want[i])
		}
	}
	if rsag.Cost() != seq.Cost() {
		t.Errorf("rsag costs %v, the sequence %v", rsag.Cost(), seq.Cost())
	}
	for _, cp := range []*CompiledPlan{rsag, seq} {
		if _, err := cp.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for pe := 0; pe < geo64.NumPEs(); pe++ {
		if !bytes.Equal(c.GetPEBuffer(pe, m, m), c.GetPEBuffer(pe, 3*m, m)) {
			t.Fatalf("PE %d: rsag's result differs from the AllGather's", pe)
		}
	}
}

// treeSenders' closed form counts what a scan of every rank counts: in
// the round of pair distance d, the ranks r < n with r mod 2d == d.
func TestTreeSendersMatchesRankScan(t *testing.T) {
	for n := 1; n <= 4096; n++ {
		var want []int
		for d := 1; d < n; d <<= 1 {
			senders := 0
			for r := range n {
				if r%(2*d) == d {
					senders++
				}
			}
			want = append(want, senders)
		}
		if got := treeSenders(n); !slices.Equal(got, want) {
			t.Fatalf("treeSenders(%d) = %v, the scan counts %v", n, got, want)
		}
	}
}
