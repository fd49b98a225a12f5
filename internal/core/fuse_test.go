package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/elem"
)

// fuseComm builds a functional comm at the given fusion level.
func fuseComm(t *testing.T, sc caseSpec, fuse FuseLevel) *testComm {
	t.Helper()
	return newTestComm(t, sc.geo, sc.shape, Config{Fuse: fuse})
}

// fillBoth writes identical deterministic random bytes into every PE's
// whole MRAM on both comms (they share a geometry).
func fillBoth(t *testing.T, a, b *testComm, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	geo := a.Hypercube().System().Geometry()
	buf := make([]byte, geo.MramPerBank)
	for pe := 0; pe < geo.NumPEs(); pe++ {
		rng.Read(buf)
		a.SetPEBuffer(pe, 0, buf)
		b.SetPEBuffer(pe, 0, buf)
	}
}

// compareMram fails the test unless every PE's full MRAM is byte-equal
// between the two comms.
func compareMram(t *testing.T, ctx string, a, b *testComm) {
	t.Helper()
	geo := a.Hypercube().System().Geometry()
	for pe := 0; pe < geo.NumPEs(); pe++ {
		ma := a.GetPEBuffer(pe, 0, geo.MramPerBank)
		mb := b.GetPEBuffer(pe, 0, geo.MramPerBank)
		if !bytes.Equal(ma, mb) {
			i := 0
			for i < len(ma) && ma[i] == mb[i] {
				i++
			}
			t.Fatalf("%s: PE %d MRAM diverges at byte %d (unfused=%#x fused=%#x)", ctx, pe, i, ma[i], mb[i])
		}
	}
}

// fusionSequences returns, per primitive, a sequence of descriptors that
// exercises the primitive inside a fused multi-collective plan. Each
// sequence chains a producer into an AlltoAll (or vice versa) on the
// shared region B, which is where the cross-collective rewrites fire:
// interior syncs collapse and, at the rotating levels, the trailing
// unrotate of the producer cancels the consumer's leading rotate of B.
// Regions: A=[0,m) B=[2m,3m) C=[4m,...) in per-PE MRAM; n is the group
// size, s=m/n the block size.
func fusionSequences(prim Primitive, dims string, n, s int) ([]Collective, bool) {
	m := n * s
	A, B, C := 0, 2*m, 4*m
	aaFromB := Collective{Prim: AlltoAll, Dims: dims, Src: Span(B, m), Dst: At(C)}
	switch prim {
	case AlltoAll:
		return []Collective{
			{Prim: AlltoAll, Dims: dims, Src: Span(A, m), Dst: At(B)},
			aaFromB,
		}, true
	case ReduceScatter:
		return []Collective{
			{Prim: AlltoAll, Dims: dims, Src: Span(A, m), Dst: At(B)},
			{Prim: ReduceScatter, Dims: dims, Src: Span(B, m), Dst: At(C), Elem: elem.I32, Op: elem.Sum},
		}, true
	case AllReduce:
		return []Collective{
			{Prim: AllReduce, Dims: dims, Src: Span(A, m), Dst: At(B), Elem: elem.I32, Op: elem.Sum},
			aaFromB,
		}, true
	case AllGather:
		return []Collective{
			{Prim: AllGather, Dims: dims, Src: Span(A, s), Dst: At(B)},
			aaFromB,
		}, true
	default:
		return nil, false
	}
}

// TestFusionEquivalence is the fusion property test: for every primitive
// x optimization level (including Auto) x hypercube case (1D/2D/3D,
// sub-EG, strided and non-power-of-two group shapes), a fused execution
// must be byte-identical to the unfused one and never cost more.
//
// Sequenceable primitives run inside a two-member fused sequence that
// triggers the cross-collective rewrites; host-input primitives
// (Scatter, Broadcast) run as the producer of a sequence; rooted
// primitives (Gather, Reduce), which cannot join sequences, run as
// single fused plans and compare their host-side Results too.
func TestFusionEquivalence(t *testing.T) {
	const s = 16
	levels := append([]Level{Auto}, Levels()...)
	for _, sc := range cases {
		for _, lvl := range levels {
			for _, prim := range Primitives() {
				off := fuseComm(t, sc, FuseOff)
				on := fuseComm(t, sc, FuseFull)
				fillBoth(t, off, on, 7*int64(lvl)+int64(prim))
				p, err := on.plan(sc.dims)
				if err != nil {
					t.Fatal(err)
				}
				n := p.n
				m := n * s

				ctx := sc.name + "/" + prim.LongName() + "/" + lvl.String()
				if ds, ok := fusionSequences(prim, sc.dims, n, s); ok {
					for i := range ds {
						ds[i].Level = lvl
					}
					runSeqPair(t, ctx, off, on, ds)
				} else if prim == Scatter || prim == Broadcast {
					mkBufs := func() [][]byte {
						rng := rand.New(rand.NewSource(13))
						bufs := make([][]byte, len(p.groups))
						for g := range bufs {
							sz := m
							if prim == Scatter {
								sz = n * m
							}
							bufs[g] = make([]byte, sz)
							rng.Read(bufs[g])
						}
						return bufs
					}
					ds := []Collective{
						{Prim: prim, Dims: sc.dims, Dst: hostDst(prim, m), Level: lvl},
						{Prim: AlltoAll, Dims: sc.dims, Src: Span(0, m), Dst: At(2 * m), Level: lvl},
					}
					// Each comm binds its own buffer copies (identical bytes).
					dsOff := append([]Collective{}, ds...)
					dsOff[0].Hosts = mkBufs()
					dsOn := append([]Collective{}, ds...)
					dsOn[0].Hosts = mkBufs()
					cpOff, err := off.CompileSequence(dsOff...)
					if err != nil {
						t.Fatalf("%s: unfused: %v", ctx, err)
					}
					cpOn, err := on.CompileSequence(dsOn...)
					if err != nil {
						t.Fatalf("%s: fused: %v", ctx, err)
					}
					checkSeqPair(t, ctx, off, on, cpOff, cpOn)
				} else { // Gather, Reduce: single fused plans
					d := Collective{Prim: prim, Dims: sc.dims, Src: Span(0, m), Elem: elem.I32, Op: elem.Sum, Level: lvl}
					cpOff, err := off.Compile(d)
					if err != nil {
						t.Fatalf("%s: unfused: %v", ctx, err)
					}
					cpOn, err := on.Compile(d)
					if err != nil {
						t.Fatalf("%s: fused: %v", ctx, err)
					}
					if _, err := cpOff.Run(); err != nil {
						t.Fatalf("%s: unfused run: %v", ctx, err)
					}
					if _, err := cpOn.Run(); err != nil {
						t.Fatalf("%s: fused run: %v", ctx, err)
					}
					ra, rb := cpOff.Results(), cpOn.Results()
					if len(ra) != len(rb) {
						t.Fatalf("%s: result group counts differ", ctx)
					}
					for g := range ra {
						if !bytes.Equal(ra[g], rb[g]) {
							t.Fatalf("%s: group %d results diverge", ctx, g)
						}
					}
					compareMram(t, ctx, off, on)
				}
			}
		}
	}
}

// hostDst returns the destination region of a host-input producer whose
// payload is m bytes per PE.
func hostDst(prim Primitive, m int) Region {
	if prim == Scatter {
		return Span(0, m)
	}
	return At(0) // Broadcast: size implied by the payload
}

// runSeqPair compiles ds on both comms and checks equivalence.
func runSeqPair(t *testing.T, ctx string, off, on *testComm, ds []Collective) {
	t.Helper()
	cpOff, err := off.CompileSequence(ds...)
	if err != nil {
		t.Fatalf("%s: unfused: %v", ctx, err)
	}
	cpOn, err := on.CompileSequence(ds...)
	if err != nil {
		t.Fatalf("%s: fused: %v", ctx, err)
	}
	checkSeqPair(t, ctx, off, on, cpOff, cpOn)
}

// checkSeqPair runs both plans and asserts byte-identical MRAM and a
// fused cost no higher than the unfused one.
func checkSeqPair(t *testing.T, ctx string, off, on *testComm, cpOff, cpOn *CompiledPlan) {
	t.Helper()
	if _, err := cpOff.Run(); err != nil {
		t.Fatalf("%s: unfused run: %v", ctx, err)
	}
	if _, err := cpOn.Run(); err != nil {
		t.Fatalf("%s: fused run: %v", ctx, err)
	}
	compareMram(t, ctx, off, on)
	uc, fc := cpOff.Cost().Total(), cpOn.Cost().Total()
	if fc > uc {
		t.Fatalf("%s: fused cost %v exceeds unfused %v", ctx, fc, uc)
	}
	if rep := cpOn.FusionReport(); rep.Changed() && rep.Saved() <= 0 {
		t.Fatalf("%s: fusion changed the schedule but saved %v", ctx, rep.Saved())
	}
}

// TestCrossReplayRotateElision pins the headline rewrite on a two-plan
// sequence: plan A (AlltoAll at IM) ends by unrotating its destination,
// plan B (ReduceScatter at IM) begins by rotating the same region — in
// the fused sequence the pair composes to the identity and both steps
// disappear, along with the interior synchronization. The test asserts
// the exact work saved, the cost drop, and byte-identical MRAM.
func TestCrossReplayRotateElision(t *testing.T) {
	sc := caseSpec{"2D-x", geo64, []int{8, 8}, "10"}
	const s = 64
	off := fuseComm(t, sc, FuseOff)
	on := fuseComm(t, sc, FuseFull)
	fillBoth(t, off, on, 99)
	p, err := on.plan(sc.dims)
	if err != nil {
		t.Fatal(err)
	}
	m := p.n * s
	ds := []Collective{
		{Prim: AlltoAll, Dims: sc.dims, Src: Span(0, m), Dst: At(2 * m), Level: IM},
		{Prim: ReduceScatter, Dims: sc.dims, Src: Span(2*m, m), Dst: At(4 * m), Elem: elem.I32, Op: elem.Sum, Level: IM},
	}
	cpOff, err := off.CompileSequence(ds...)
	if err != nil {
		t.Fatal(err)
	}
	cpOn, err := on.CompileSequence(ds...)
	if err != nil {
		t.Fatal(err)
	}

	rep := cpOn.FusionReport()
	if rep.RotatesMerged != 1 || rep.RotatesElided != 1 {
		t.Fatalf("want the inverse pair merged (1) and elided (1), got %+v", rep)
	}
	if rep.SyncsElided != 1 {
		t.Fatalf("want the interior sync elided, got %d", rep.SyncsElided)
	}
	if rep.EpochsCoalesced != 1 {
		t.Fatalf("want the adjacent column-stream epochs coalesced, got %d", rep.EpochsCoalesced)
	}
	// The cancelled pair saves exactly two full rotation passes of the
	// shared m-byte region on every rotating PE: 2*(2m) DMA bytes.
	if want := int64(4 * m); rep.PEBytesSaved != want {
		t.Fatalf("PEBytesSaved = %d, want %d", rep.PEBytesSaved, want)
	}
	if rep.Saved() <= 0 {
		t.Fatalf("fusion saved nothing: %v", rep)
	}
	if got, want := cpOn.Cost().Total(), cpOff.Cost().Total(); got >= want {
		t.Fatalf("fused cost %v not below unfused %v", got, want)
	}

	// Byte-identical MRAM after running both.
	if _, err := cpOff.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := cpOn.Run(); err != nil {
		t.Fatal(err)
	}
	compareMram(t, "AA+RS", off, on)
}

// TestFuseOffSequenceMatchesSerial pins the FuseOff reference semantics:
// an unfused sequence executes the member schedules verbatim, so its
// precomputed cost is bit-identical to running the members serially on a
// fresh comm.
func TestFuseOffSequenceMatchesSerial(t *testing.T) {
	sc := caseSpec{"2D-x", geo64, []int{8, 8}, "10"}
	const s = 32
	seqComm := fuseComm(t, sc, FuseOff)
	serComm := fuseComm(t, sc, FuseOff)
	fillBoth(t, seqComm, serComm, 5)
	p, err := seqComm.plan(sc.dims)
	if err != nil {
		t.Fatal(err)
	}
	m := p.n * s
	ds := []Collective{
		{Prim: AlltoAll, Dims: sc.dims, Src: Span(0, m), Dst: At(2 * m), Level: CM},
		{Prim: ReduceScatter, Dims: sc.dims, Src: Span(2*m, m), Dst: At(4 * m), Elem: elem.I32, Op: elem.Sum, Level: IM},
	}
	cp, err := seqComm.CompileSequence(ds...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Run(); err != nil {
		t.Fatal(err)
	}
	before := serComm.Meter().Snapshot()
	for _, d := range ds {
		if _, err := serComm.Run(d); err != nil {
			t.Fatal(err)
		}
	}
	serial := serComm.Meter().Snapshot().Sub(before)
	if d := diffBreakdowns(cp.Cost(), serial); d != "" {
		t.Fatalf("unfused sequence cost differs from serial runs: %s", d)
	}
	compareMram(t, "FuseOff sequence", seqComm, serComm)
	if rep := cp.FusionReport(); rep.Changed() {
		t.Fatalf("FuseOff sequence reports fusion activity: %v", rep)
	}
}

// TestSequenceRejectsRooted pins the CompileSequence contract for
// host-rooted primitives.
func TestSequenceRejectsRooted(t *testing.T) {
	c := testSystem(t, geo64, []int{8, 8})
	m := 8 * 16
	for _, prim := range []Primitive{Gather, Reduce} {
		_, err := c.CompileSequence(
			Collective{Prim: AlltoAll, Dims: "10", Src: Span(0, m), Dst: At(2 * m)},
			Collective{Prim: prim, Dims: "10", Src: Span(2*m, m), Elem: elem.I32, Op: elem.Sum},
		)
		if err == nil || !strings.Contains(err.Error(), "rooted") {
			t.Fatalf("%v in sequence: want rooted-primitive error, got %v", prim, err)
		}
	}
	if _, err := c.CompileSequence(); err == nil {
		t.Fatal("empty sequence: want error")
	}
}

// TestSequenceCacheAndStats pins sequence caching and the aggregate
// fusion statistics: recompiling an identical sequence binds the same
// shape row, the row count is surfaced, and FusionStats accumulates the
// report of each row built.
func TestSequenceCacheAndStats(t *testing.T) {
	c := costSystem(t, geo64, []int{8, 8})
	const s = 32
	m := 8 * s
	ds := []Collective{
		{Prim: AlltoAll, Dims: "10", Src: Span(0, m), Dst: At(2 * m), Level: IM},
		{Prim: ReduceScatter, Dims: "10", Src: Span(2*m, m), Dst: At(4 * m), Elem: elem.I32, Op: elem.Sum, Level: IM},
	}
	cp1, err := c.CompileSequence(ds...)
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := c.CompileSequence(ds...)
	if err != nil {
		t.Fatal(err)
	}
	if cp1.planEntry != cp2.planEntry {
		t.Fatal("identical sequence did not hit the cache")
	}
	snap := c.Snapshot()
	if st := snap.PlanCache; st.CachedTraces != 1 || st.TraceHits != 1 || snap.Fusion.PlansCompiled != 1 {
		t.Fatalf("one sequence compiled twice: %+v, %+v", st, snap.Fusion)
	}
	fs := snap.Fusion
	if fs.PlansFused == 0 || fs.RotatesElided == 0 || fs.CostSaved <= 0 {
		t.Fatalf("fusion stats did not accumulate: %+v", fs)
	}
	if got := cp1.Members(); len(got) != 2 || got[0] != AlltoAll || got[1] != ReduceScatter {
		t.Fatalf("Members() = %v", got)
	}
	mc := cp1.MemberCosts()
	if len(mc) != 2 || mc[0].Total() <= 0 || mc[1].Total() <= 0 {
		t.Fatalf("MemberCosts() = %v", mc)
	}
	// The members' unfused costs sum to the report's CostBefore (same
	// adds, grouped differently — equal within float tolerance).
	sum := mc[0].Add(mc[1]).Total()
	before := cp1.FusionReport().CostBefore.Total()
	if diff := float64(sum - before); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("member costs sum %v != CostBefore %v", sum, before)
	}
	// A FuseOff comm compiles the same sequence exactly as lowered.
	off := newTestComm(t, geo64, []int{8, 8}, Config{Backend: CostBackend(), Fuse: FuseOff})
	cp3, err := off.CompileSequence(ds...)
	if err != nil {
		t.Fatal(err)
	}
	if cp3.FusionReport().Changed() || off.Snapshot().Fusion.PlansCompiled != 0 {
		t.Fatalf("FuseOff comm ran the fuser: %v", cp3.FusionReport())
	}
	if cp3.Cost().Total() <= cp1.Cost().Total() {
		t.Fatalf("unfused sequence cost %v not above fused %v", cp3.Cost().Total(), cp1.Cost().Total())
	}
}

// TestSequenceSubmitMatchesRun pins that a fused sequence behaves like
// any other plan on the async path: a lone submitted sequence charges
// exactly what a serial replay does.
func TestSequenceSubmitMatchesRun(t *testing.T) {
	sc := caseSpec{"2D-x", geo64, []int{8, 8}, "10"}
	const s = 32
	a := fuseComm(t, sc, FuseFull)
	b := fuseComm(t, sc, FuseFull)
	fillBoth(t, a, b, 21)
	m := 8 * s
	ds := []Collective{
		{Prim: AlltoAll, Dims: sc.dims, Src: Span(0, m), Dst: At(2 * m), Level: IM},
		{Prim: ReduceScatter, Dims: sc.dims, Src: Span(2*m, m), Dst: At(4 * m), Elem: elem.I32, Op: elem.Sum, Level: IM},
	}
	cpa, err := a.CompileSequence(ds...)
	if err != nil {
		t.Fatal(err)
	}
	cpb, err := b.CompileSequence(ds...)
	if err != nil {
		t.Fatal(err)
	}
	bdRun, err := cpa.Run()
	if err != nil {
		t.Fatal(err)
	}
	f := cpb.Submit()
	bdSub, err := f.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffBreakdowns(bdRun, bdSub); d != "" {
		t.Fatalf("submitted sequence charge differs from serial: %s", d)
	}
	b.Flush()
	compareMram(t, "submit vs run", a, b)
}

// Fusing an AlltoAll(IM) into a ReduceScatter(IM) of its destination
// merges the AlltoAll's trailing unrotate with the ReduceScatter's
// leading rotate into one step that sums their multipliers — no closure
// — drops it as the identity, and coalesces the two epochs: at most 7
// objects for the whole pass.
func TestFusedRotationPairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const m = 512
	c := costSystem(t, geo64, []int{8, 8})
	var steps []Step
	for _, d := range []Collective{
		{Prim: AlltoAll, Dims: "10", Src: Span(0, m), Dst: At(m), Level: IM},
		{Prim: ReduceScatter, Dims: "10", Src: Span(m, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: IM},
	} {
		sp, err := c.specIn(c.s.ar, d, false)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, sp.schedule().Steps...)
	}
	if _, rep := fuseSteps(steps); rep.RotatesMerged != 1 || rep.RotatesElided != 1 || rep.EpochsCoalesced != 1 {
		t.Fatalf("fusing the pair: %v, want one rotation pair merged and elided and one epoch coalesced", rep)
	}
	if got := testing.AllocsPerRun(100, func() { fuseSteps(steps) }); got > 7 {
		t.Errorf("fusing the pair allocates %v objects, want <= 7", got)
	}
}
