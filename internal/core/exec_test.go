package core

import (
	"fmt"
	"math/rand"
	"reflect"
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

// testCall returns the call runOnBackend runs for prim over dims at lvl
// with s-byte blocks: sources at 0, destinations past them, I32 sums,
// and host payloads of deterministic data for Scatter and Broadcast.
func testCall(t *testing.T, c *testComm, prim Primitive, dims string, lvl Level, s int) Collective {
	t.Helper()
	p, err := c.plan(dims)
	if err != nil {
		t.Fatal(err)
	}
	m := p.n * s
	hostBufs := func(perGroup int) [][]byte {
		bufs := make([][]byte, len(p.groups))
		rng := rand.New(rand.NewSource(6))
		for g := range bufs {
			bufs[g] = make([]byte, perGroup)
			if c.Backend().Functional() {
				rng.Read(bufs[g])
			}
		}
		return bufs
	}
	d := Collective{Prim: prim, Dims: dims, Level: lvl, Elem: elem.I32, Op: elem.Sum}
	switch prim {
	case AlltoAll, ReduceScatter, AllReduce:
		d.Src, d.Dst = Span(0, m), At(2*m)
	case AllGather:
		d.Src, d.Dst = Span(0, s), At(2*s)
	case Reduce:
		d.Src = Span(0, m)
	case Gather:
		d.Src = Span(0, s)
	case Scatter:
		d.Hosts, d.Dst = hostBufs(m), Span(0, s)
	case Broadcast:
		d.Hosts, d.Dst = hostBufs(s), At(0)
	default:
		t.Fatalf("unknown primitive %v", prim)
	}
	if !shapes[prim].reducing {
		d.Elem, d.Op = 0, 0
	}
	return d
}

// runOnBackend executes testCall's call on the given comm and returns
// its breakdown. For the functional comm, PE source regions are filled
// with deterministic data first; the cost comm runs the identical call
// signature with no data.
func runOnBackend(t *testing.T, c *testComm, prim Primitive, dims string, lvl Level, s int) cost.Breakdown {
	t.Helper()
	d := testCall(t, c, prim, dims, lvl, s)
	if c.Backend().Functional() && d.Src.Bytes > 0 {
		fillSrcComm(c, 0, d.Src.Bytes, 11)
	}
	var bd cost.Breakdown
	var err error
	if shapes[prim].rooted() {
		_, bd, err = runRooted(c, d)
	} else {
		bd, err = c.Run(d)
	}
	if err != nil {
		t.Fatalf("%v/%v on %s backend: %v", prim, lvl, c.Backend().Name(), err)
	}
	return bd
}

// backendShapes are irregular hypercube shapes, and backendBlocks block
// sizes, odd multiples of the burst grain among them, that the
// backend-equivalence and closed-form tables run over.
var (
	backendShapes = []caseSpec{
		{"2D-x", geo64, []int{8, 8}, "10"},
		{"2D-subEG-y", geo64, []int{4, 16}, "01"},
		{"3D-xz", geo64, []int{4, 2, 8}, "101"},
		{"nonpow2-strided", geo24, []int{4, 6}, "01"},
		{"paper-32x32", dram.PaperGeometry(1 << 14), []int{32, 32}, "10"},
	}
	backendBlocks = []int{16, 24, 40}
)

// TestCostBackendMatchesFunctional holds the one booking path: for every
// primitive × level × backendShapes shape × backendBlocks block size, a
// run on a functional machine books what a run on a cost-only (phantom)
// machine books — its returned breakdown, the snapshot (machine and
// session meters, admitted time, timeline, shape table) and the bus
// statistics, bit for bit — so a functional run neither skips nor repeats
// a booking, and lowering and tracing do not depend on the backend. What
// the booking itself is, is held to closed formulas by
// TestColumnStreamBurstsMatchClosedForms,
// TestRotateBlocksWorkMatchesClosedForms and
// TestStagedHostBytesMatchClosedForms.
func TestCostBackendMatchesFunctional(t *testing.T) {
	for _, tc := range backendShapes {
		for _, prim := range Primitives() {
			for _, lvl := range Levels() {
				for _, s := range backendBlocks {
					t.Run(fmt.Sprintf("%s/%v/%v/s%d", tc.name, prim, lvl, s), func(t *testing.T) {
						fc := testSystem(t, tc.geo, tc.shape)
						cc := costSystem(t, tc.geo, tc.shape)
						fbd := runOnBackend(t, fc, prim, tc.dims, lvl, s)
						cbd := runOnBackend(t, cc, prim, tc.dims, lvl, s)
						if d := diffBreakdowns(fbd, cbd); d != "" {
							t.Errorf("breakdown mismatch: %s", d)
						}
						if fs, cs := fc.Snapshot(), cc.Snapshot(); !reflect.DeepEqual(fs, cs) {
							t.Errorf("snapshot mismatch: functional\n%v\ncost\n%v", fs, cs)
						}
						if fs, cs := fc.Host().Stats(), cc.Host().Stats(); !reflect.DeepEqual(fs, cs) {
							t.Errorf("bus stats mismatch: functional %+v, cost %+v", fs, cs)
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
