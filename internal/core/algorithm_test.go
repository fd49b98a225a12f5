package core

import (
	"fmt"
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
