package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
)

// AlltoAll is an involution: applying it twice restores the original
// placement (dst[j][i] = src[i][j] twice over). This exercises the
// full pipeline — including the destructive in-place pre-rotation —
// because the second call consumes the first call's output.
func TestAlltoAllInvolution(t *testing.T) {
	for _, lvl := range Levels() {
		c := testSystem(t, geo64, []int{8, 8})
		p, _ := c.plan("10")
		m := p.n * 24
		in := fillSrc(c, 0, m, 55)
		if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
			Src: Span(0, m), Dst: At(2 * m), Level: lvl}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
			Src: Span(2*m, m), Dst: At(4 * m), Level: lvl}); err != nil {
			t.Fatal(err)
		}
		for pe := 0; pe < 64; pe++ {
			if !bytes.Equal(c.GetPEBuffer(pe, 4*m, m), in[pe]) {
				t.Fatalf("%v: double AlltoAll != identity at PE %d", lvl, pe)
			}
		}
	}
}

// Broadcast then Gather returns n copies of each group's payload.
func TestBroadcastGatherRoundTrip(t *testing.T) {
	c := testSystem(t, geo64, []int{4, 16})
	p, _ := c.plan("01")
	s := 48
	rng := rand.New(rand.NewSource(2))
	bufs := make([][]byte, len(p.groups))
	for g := range bufs {
		bufs[g] = make([]byte, s)
		rng.Read(bufs[g])
	}
	if _, err := c.Run(Collective{Prim: Broadcast, Dims: "01",
		Hosts: bufs, Dst: At(0), Level: CM}); err != nil {
		t.Fatal(err)
	}
	got, _, err := runRooted(c, Collective{Prim: Gather, Dims: "01", Src: Span(0, s), Level: IM})
	if err != nil {
		t.Fatal(err)
	}
	for g := range bufs {
		for r := 0; r < p.n; r++ {
			if !bytes.Equal(got[g][r*s:(r+1)*s], bufs[g]) {
				t.Fatalf("group %d rank %d does not hold the broadcast payload", g, r)
			}
		}
	}
}

// Reduce must equal the elementwise fold of Gather's result.
func TestReduceEqualsFoldedGather(t *testing.T) {
	c := testSystem(t, geo64, []int{4, 2, 8})
	p, _ := c.plan("101")
	s := 8
	m := p.n * s
	fillSrc(c, 0, m, 71)
	gathered, _, err := runRooted(c, Collective{Prim: Gather, Dims: "101", Src: Span(0, m), Level: IM})
	if err != nil {
		t.Fatal(err)
	}
	reduced, _, err := runRooted(c, Collective{Prim: Reduce, Dims: "101", Src: Span(0, m), Elem: elem.I32, Op: elem.Sum, Level: IM})
	if err != nil {
		t.Fatal(err)
	}
	for g := range reduced {
		want := make([]byte, m)
		elem.Fill(elem.I32, want, 0)
		for r := 0; r < p.n; r++ {
			elem.ReduceInto(elem.I32, elem.Sum, want, gathered[g][r*m:(r+1)*m])
		}
		if !bytes.Equal(reduced[g], want) {
			t.Fatalf("group %d: Reduce != fold(Gather)", g)
		}
	}
}

// AllReduce equals ReduceScatter followed by AllGather (the composition
// PID-Comm fuses, § V-B3).
func TestAllReduceEqualsRSThenAG(t *testing.T) {
	mk := func() (*testComm, int) {
		c := testSystem(t, geo64, []int{8, 8})
		p, _ := c.plan("01")
		return c, p.n
	}
	c1, n := mk()
	s := 16
	m := n * s
	in := fillSrc(c1, 0, m, 88)
	if _, err := c1.Run(Collective{Prim: AllReduce, Dims: "01",
		Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: IM}); err != nil {
		t.Fatal(err)
	}
	c2, _ := mk()
	for pe := range in {
		c2.SetPEBuffer(pe, 0, in[pe])
	}
	if _, err := c2.Run(Collective{Prim: ReduceScatter, Dims: "01",
		Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: IM}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(Collective{Prim: AllGather, Dims: "01",
		Src: Span(2*m, s), Dst: At(4 * m), Level: IM}); err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 64; pe++ {
		if !bytes.Equal(c1.GetPEBuffer(pe, 2*m, m), c2.GetPEBuffer(pe, 4*m, m)) {
			t.Fatalf("AR != RS+AG at PE %d", pe)
		}
	}
}

// Randomized property check over shapes, dims, block sizes and levels:
// AlltoAll always matches the reference model.
func TestAlltoAllQuickProperty(t *testing.T) {
	shapes := []struct {
		shape []int
		dims  []string
	}{
		{[]int{64}, []string{"1"}},
		{[]int{8, 8}, []string{"10", "01", "11"}},
		{[]int{4, 16}, []string{"10", "01"}},
		{[]int{2, 4, 8}, []string{"100", "010", "001", "110", "011", "101"}},
	}
	f := func(pick, dimPick, sizePick uint8, seed int64) bool {
		sc := shapes[int(pick)%len(shapes)]
		dims := sc.dims[int(dimPick)%len(sc.dims)]
		lvl := Levels()[int(seed&3)]
		c := testSystem(t, geo64, sc.shape)
		p, err := c.plan(dims)
		if err != nil {
			return false
		}
		s := 8 * (1 + int(sizePick)%3)
		m := p.n * s
		in := fillSrc(c, 0, m, seed)
		if _, err := c.Run(Collective{Prim: AlltoAll, Dims: dims,
			Src: Span(0, m), Dst: At(2 * m), Level: lvl}); err != nil {
			return false
		}
		for _, grp := range p.groups {
			want := RefAlltoAll(groupInputs(in, grp), s)
			for j, pe := range grp {
				if !bytes.Equal(c.GetPEBuffer(pe, 2*m, m), want[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Randomized property: ReduceScatter matches the reference for every
// type/op pairing.
func TestReduceScatterQuickProperty(t *testing.T) {
	f := func(typPick, opPick, lvlPick uint8, seed int64) bool {
		typ := elem.Types()[int(typPick)%4]
		op := elem.Ops()[int(opPick)%6]
		lvl := []Level{Baseline, PR, IM}[int(lvlPick)%3]
		c := testSystem(t, geo64, []int{8, 8})
		p, _ := c.plan("10")
		s := 16
		m := p.n * s
		in := fillSrc(c, 0, m, seed)
		if _, err := c.Run(Collective{Prim: ReduceScatter, Dims: "10",
			Src: Span(0, m), Dst: At(2 * m), Elem: typ, Op: op, Level: lvl}); err != nil {
			return false
		}
		for _, grp := range p.groups {
			want := RefReduceScatter(typ, op, groupInputs(in, grp), s)
			for j, pe := range grp {
				if !bytes.Equal(c.GetPEBuffer(pe, 2*m, s), want[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Multi-instance invocations on different dims must compose: running an
// x-axis collective then a y-axis collective is the 2-D decomposition
// apps use (Algorithm 1).
func TestAlternatingDimsComposition(t *testing.T) {
	c := testSystem(t, geo64, []int{8, 8})
	px, _ := c.plan("10")
	py, _ := c.plan("01")
	s := 8
	m := 8 * s
	in := fillSrc(c, 0, m, 13)

	// RS along x, then AG along y on the results.
	if _, err := c.Run(Collective{Prim: ReduceScatter, Dims: "10",
		Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: IM}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Collective{Prim: AllGather, Dims: "01",
		Src: Span(2*m, s), Dst: At(4 * m), Level: IM}); err != nil {
		t.Fatal(err)
	}
	// Expected: per x-group RS result, then per y-group concatenation.
	rsOut := make([][]byte, 64)
	for _, grp := range px.groups {
		want := RefReduceScatter(elem.I32, elem.Sum, groupInputs(in, grp), s)
		for j, pe := range grp {
			rsOut[pe] = want[j]
		}
	}
	for _, grp := range py.groups {
		want := RefAllGather(groupInputs(rsOut, grp))
		for j, pe := range grp {
			if !bytes.Equal(c.GetPEBuffer(pe, 4*m, 8*s), want[j]) {
				t.Fatalf("composition mismatch at PE %d", pe)
			}
		}
	}
}

// The DSA-offload what-if (§ IX-B) must speed up the optimized paths and
// leave results untouched.
func TestDSAOffloadSpeedsUpWithoutChangingResults(t *testing.T) {
	run := func(dsa bool) ([]byte, float64) {
		params := cost.DefaultParams()
		params.DSAOffload = dsa
		c := newTestComm(t, dram.Geometry{Channels: 1, RanksPerChannel: 4, BanksPerChip: 8, MramPerBank: 1 << 16},
			[]int{16, 16}, Config{Params: params})
		m := 16 * 1024
		fillSrcComm(c, 0, m, 3)
		bd, err := c.Run(Collective{Prim: ReduceScatter, Dims: "10",
			Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: IM})
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for pe := 0; pe < 256; pe++ {
			all = append(all, c.GetPEBuffer(pe, 2*m, 1024)...)
		}
		return all, float64(bd.Total())
	}
	plain, tPlain := run(false)
	dsa, tDSA := run(true)
	if !bytes.Equal(plain, dsa) {
		t.Fatal("DSA offload changed functional results")
	}
	if tDSA >= tPlain {
		t.Errorf("DSA offload did not speed up: %v vs %v", tDSA, tPlain)
	}
}

// Auto property: the auto-picked level is never costlier than any
// fixed level for the same call, across primitives, shapes and element
// types — on the cost model that both backends share bit-for-bit.
func TestAutoNeverCostlier(t *testing.T) {
	type combo struct {
		prim  Primitive
		shape []int
		dims  string
		et    elem.Type
		op    elem.Op
	}
	combos := []combo{
		{AlltoAll, []int{8, 8}, "10", elem.I32, elem.Sum},
		{AlltoAll, []int{4, 2, 8}, "101", elem.I32, elem.Sum},
		{ReduceScatter, []int{8, 8}, "01", elem.I8, elem.Max},
		{AllReduce, []int{4, 16}, "01", elem.I32, elem.Sum},
		{AllGather, []int{8, 8}, "10", elem.I32, elem.Sum},
		{Scatter, []int{8, 8}, "10", elem.I32, elem.Sum},
		{Gather, []int{64}, "1", elem.I32, elem.Sum},
		{Reduce, []int{8, 8}, "11", elem.I16, elem.Min},
	}
	for _, cb := range combos {
		for _, blocks := range []int{1, 8} {
			c := testSystem(t, geo64, cb.shape)
			p, err := c.plan(cb.dims)
			if err != nil {
				t.Fatal(err)
			}
			bytesPerPE := p.n * 8 * blocks // always block-divisible
			t.Run(fmt.Sprintf("%v/%s/%d", cb.prim, cb.dims, bytesPerPE), func(t *testing.T) {
				d := Collective{Prim: cb.prim, Dims: cb.dims}
				switch sh := &shapes[cb.prim]; {
				case sh.hostInput():
					d.Dst = Span(0, bytesPerPE)
				case sh.rooted():
					d.Src = Span(0, bytesPerPE)
				default:
					d.Src, d.Dst = Span(0, bytesPerPE), At(bytesPerPE)
				}
				if shapes[cb.prim].reducing {
					d.Elem, d.Op = cb.et, cb.op
				}
				alg, auto, err := c.Resolve(d)
				if err != nil {
					t.Fatal(err)
				}
				// The dry builds ran on the functional comm itself, filling its
				// shape rows, one fusion report per row built, and score exactly
				// as on a cost-only comm of the same geometry.
				if s := c.Snapshot(); s.PlanCache.TraceMisses == 0 || uint64(s.Fusion.PlansCompiled) != s.PlanCache.TraceMisses {
					t.Errorf("Auto dry builds booked %+v, %+v: want one fusion report per candidate row", s.PlanCache, s.Fusion)
				}
				if calg, clvl, err := costSystem(t, geo64, cb.shape).Resolve(d); err != nil || calg != alg || clvl != auto {
					t.Errorf("functional comm resolved to %v/%v, cost-only comm to %v/%v (%v)", alg, auto, calg, clvl, err)
				}
				// Measure every fixed level on a fresh cost-only comm and
				// check the auto pick against the minimum.
				fixed := func(lvl Level) cost.Seconds {
					cc := costSystem(t, geo64, cb.shape)
					d.Algorithm, d.Level = AlgoReference, lvl
					cp, err := cc.Compile(d)
					if err != nil {
						t.Fatal(err)
					}
					return cp.Cost().Total()
				}
				autoT := fixed(auto)
				for _, lvl := range Levels() {
					if got := fixed(lvl); autoT > got {
						t.Errorf("auto level %v costs %v, but %v costs %v", auto, autoT, lvl, got)
					}
				}
			})
		}
	}
}

// Collectives must accept the Auto sentinel directly and produce results
// identical to the concrete level Resolve reports.
func TestAutoSentinelMatchesFixedLevel(t *testing.T) {
	c := testSystem(t, geo64, []int{8, 8})
	m := 8 * 32
	in := fillSrc(c, 0, m, 31)
	if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
		Src: Span(0, m), Dst: At(2 * m), Level: Auto}); err != nil {
		t.Fatal(err)
	}
	auto := Collective{Prim: AlltoAll, Dims: "10", Src: Span(0, m), Dst: At(2 * m)}
	_, picked, err := c.Resolve(auto)
	if err != nil {
		t.Fatal(err)
	}
	ref := testSystem(t, geo64, []int{8, 8})
	for pe, b := range in {
		ref.SetPEBuffer(pe, 0, b)
	}
	if _, err := ref.Run(Collective{Prim: AlltoAll, Dims: "10",
		Src: Span(0, m), Dst: At(2 * m), Level: picked}); err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 64; pe++ {
		if !bytes.Equal(c.GetPEBuffer(pe, 2*m, m), ref.GetPEBuffer(pe, 2*m, m)) {
			t.Fatalf("Auto result differs from fixed level %v at PE %d", picked, pe)
		}
	}
	// The decision must be cached: a second resolution hits the map.
	if _, again, _ := c.Resolve(auto); again != picked {
		t.Errorf("cached Auto decision changed: %v then %v", picked, again)
	}
}

func fillSrcComm(c *testComm, off, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, n)
	for pe := 0; pe < c.Hypercube().System().Geometry().NumPEs(); pe++ {
		rng.Read(buf)
		c.SetPEBuffer(pe, off, buf)
	}
}
