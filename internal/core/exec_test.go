package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
)

// costSystem builds a cost-only comm on a phantom system (no MRAM is
// allocated, and any byte access panics — proving the cost backend never
// touches data).
func costSystem(t *testing.T, geo dram.Geometry, shape []int) *testComm {
	t.Helper()
	return newTestComm(t, geo, shape, Config{Backend: CostBackend()})
}

// diffBreakdowns returns a description of the first differing category,
// or "" if the breakdowns are bit-identical.
func diffBreakdowns(a, b cost.Breakdown) string {
	for _, cat := range cost.Categories() {
		if a.Get(cat) != b.Get(cat) {
			return fmt.Sprintf("%v: functional=%v cost=%v", cat, a.Get(cat), b.Get(cat))
		}
	}
	return ""
}

// runOnBackend executes one primitive call on the given comm and returns
// its breakdown. For the functional comm, PE source regions are filled
// with deterministic data first; the cost comm runs the identical call
// signature with no data.
func runOnBackend(t *testing.T, c *testComm, prim Primitive, dims string, lvl Level, s int) cost.Breakdown {
	t.Helper()
	p, err := c.plan(dims)
	if err != nil {
		t.Fatal(err)
	}
	functional := c.Backend().Functional()
	m := p.n * s
	fill := func(n int) {
		if functional {
			fillSrcComm(c, 0, n, 11)
		}
	}
	hostBufs := func(perGroup int) [][]byte {
		bufs := make([][]byte, len(p.groups))
		rng := rand.New(rand.NewSource(6))
		for g := range bufs {
			bufs[g] = make([]byte, perGroup)
			if functional {
				rng.Read(bufs[g])
			}
		}
		return bufs
	}
	var bd cost.Breakdown
	switch prim {
	case AlltoAll:
		fill(m)
		bd, err = c.Run(Collective{Prim: AlltoAll, Dims: dims,
			Src: Span(0, m), Dst: At(2 * m), Level: lvl})
	case ReduceScatter:
		fill(m)
		bd, err = c.Run(Collective{Prim: ReduceScatter, Dims: dims,
			Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: lvl})
	case AllReduce:
		fill(m)
		bd, err = c.Run(Collective{Prim: AllReduce, Dims: dims,
			Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: lvl})
	case AllGather:
		fill(s)
		bd, err = c.Run(Collective{Prim: AllGather, Dims: dims,
			Src: Span(0, s), Dst: At(2 * s), Level: lvl})
	case Scatter:
		bd, err = c.Run(Collective{Prim: Scatter, Dims: dims,
			Hosts: hostBufs(p.n * s), Dst: Span(0, s), Level: lvl})
	case Gather:
		fill(s)
		_, bd, err = runRooted(c, Collective{Prim: Gather, Dims: dims, Src: Span(0, s), Level: lvl})
	case Reduce:
		fill(m)
		_, bd, err = runRooted(c, Collective{Prim: Reduce, Dims: dims, Src: Span(0, m), Elem: elem.I32, Op: elem.Sum, Level: lvl})
	case Broadcast:
		bd, err = c.Run(Collective{Prim: Broadcast, Dims: dims,
			Hosts: hostBufs(s), Dst: At(0), Level: lvl})
	default:
		t.Fatalf("unknown primitive %v", prim)
	}
	if err != nil {
		t.Fatalf("%v/%v on %s backend: %v", prim, lvl, c.Backend().Name(), err)
	}
	return bd
}

// TestCostBackendMatchesFunctional pins the refactor's core guarantee:
// for every primitive x level x a set of irregular hypercube shapes x
// block sizes (including odd multiples of the burst grain, which pin the
// shared rotate-blocks instruction rounding), the cost-only backend's
// breakdown — computed on a phantom system with no MRAM — is
// bit-identical to the functional backend's, and so are the cumulative
// bus-transfer statistics.
func TestCostBackendMatchesFunctional(t *testing.T) {
	shapes := []caseSpec{
		{"2D-x", geo64, []int{8, 8}, "10"},
		{"2D-subEG-y", geo64, []int{4, 16}, "01"},
		{"3D-xz", geo64, []int{4, 2, 8}, "101"},
		{"nonpow2-strided", geo24, []int{4, 6}, "01"},
		{"paper-32x32", dram.PaperGeometry(1 << 14), []int{32, 32}, "10"},
	}
	for _, tc := range shapes {
		for _, prim := range Primitives() {
			for _, lvl := range Levels() {
				for _, s := range []int{16, 24, 40} {
					t.Run(fmt.Sprintf("%s/%v/%v/s%d", tc.name, prim, lvl, s), func(t *testing.T) {
						fc := testSystem(t, tc.geo, tc.shape)
						cc := costSystem(t, tc.geo, tc.shape)
						fbd := runOnBackend(t, fc, prim, tc.dims, lvl, s)
						cbd := runOnBackend(t, cc, prim, tc.dims, lvl, s)
						if d := diffBreakdowns(fbd, cbd); d != "" {
							t.Errorf("breakdown mismatch: %s", d)
						}
						fs, cs := fc.Host().Stats(), cc.Host().Stats()
						if fs.Bursts != cs.Bursts || fs.TotalBytes() != cs.TotalBytes() {
							t.Errorf("bus stats mismatch: functional %d bursts/%d B, cost %d bursts/%d B",
								fs.Bursts, fs.TotalBytes(), cs.Bursts, cs.TotalBytes())
						}
					})
				}
			}
		}
	}
}

// The cost backend must accept nil Scatter buffers (sizes are implied),
// which is what Auto dry runs rely on.
func TestCostBackendScatterNilBufs(t *testing.T) {
	cc := costSystem(t, geo64, []int{8, 8})
	fc := testSystem(t, geo64, []int{8, 8})
	p, _ := fc.plan("10")
	s := 16
	bufs := make([][]byte, len(p.groups))
	for g := range bufs {
		bufs[g] = make([]byte, p.n*s)
	}
	for _, lvl := range []Level{Baseline, IM} {
		want, err := fc.Run(Collective{Prim: Scatter, Dims: "10",
			Hosts: bufs, Dst: Span(0, s), Level: lvl})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cc.Run(Collective{Prim: Scatter, Dims: "10",
			Hosts: nil, Dst: Span(0, s), Level: lvl})
		if err != nil {
			t.Fatal(err)
		}
		if d := diffBreakdowns(want, got); d != "" {
			t.Errorf("%v: %s", lvl, d)
		}
	}
	// The functional backend must still reject nil buffers.
	if _, err := fc.Run(Collective{Prim: Scatter, Dims: "10",
		Hosts: nil, Dst: Span(0, s), Level: IM}); err == nil {
		t.Error("functional Scatter accepted nil buffers")
	}
}
