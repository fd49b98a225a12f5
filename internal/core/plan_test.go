package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/internal/host"
)

// TestCompiledReplayMatchesOneShot pins the plan/execute split's core
// guarantee on both backends: a cached CompiledPlan replay produces cost
// breakdowns byte-identical to the one-shot collective path, call by
// call, and (functionally) moves the same bytes.
func TestCompiledReplayMatchesOneShot(t *testing.T) {
	for _, costOnly := range []bool{false, true} {
		name := "functional"
		if costOnly {
			name = "cost"
		}
		t.Run(name, func(t *testing.T) {
			mk := func() *testComm {
				if costOnly {
					return costSystem(t, geo64, []int{8, 8})
				}
				return testSystem(t, geo64, []int{8, 8})
			}
			c1, c2 := mk(), mk()
			s := 16
			p, err := c1.plan("10")
			if err != nil {
				t.Fatal(err)
			}
			m := p.n * s

			// Compile once on c2; c1 uses the one-shot entry points.
			aa, err := c2.Compile(Collective{Prim: AlltoAll, Dims: "10",
				Src: Span(0, m), Dst: At(2 * m), Level: CM})
			if err != nil {
				t.Fatal(err)
			}
			rs, err := c2.Compile(Collective{Prim: ReduceScatter, Dims: "10",
				Src: Span(4*m, m), Dst: At(6 * m), Elem: elem.I32, Op: elem.Sum, Level: IM})
			if err != nil {
				t.Fatal(err)
			}
			ga, err := c2.Compile(Collective{Prim: Gather, Dims: "10", Src: Span(0, s), Level: IM})
			if err != nil {
				t.Fatal(err)
			}
			for iter := 0; iter < 3; iter++ {
				seed := int64(100 + iter)
				if !costOnly {
					fillSrcComm(c1, 0, m, seed)
					fillSrcComm(c2, 0, m, seed)
					fillSrcComm(c1, 4*m, m, seed+1)
					fillSrcComm(c2, 4*m, m, seed+1)
				}
				bd1, err := c1.Run(Collective{Prim: AlltoAll, Dims: "10",
					Src: Span(0, m), Dst: At(2 * m), Level: CM})
				if err != nil {
					t.Fatal(err)
				}
				bd2, err := aa.Run()
				if err != nil {
					t.Fatal(err)
				}
				if d := diffBreakdowns(bd1, bd2); d != "" {
					t.Fatalf("iter %d AlltoAll: one-shot vs replay: %s", iter, d)
				}
				bd1, err = c1.Run(Collective{Prim: ReduceScatter, Dims: "10",
					Src: Span(4*m, m), Dst: At(6 * m), Elem: elem.I32, Op: elem.Sum, Level: IM})
				if err != nil {
					t.Fatal(err)
				}
				if bd2, err = rs.Run(); err != nil {
					t.Fatal(err)
				}
				if d := diffBreakdowns(bd1, bd2); d != "" {
					t.Fatalf("iter %d ReduceScatter: one-shot vs replay: %s", iter, d)
				}
				out1, bd1, err := runRooted(c1, Collective{Prim: Gather, Dims: "10", Src: Span(0, s), Level: IM})
				if err != nil {
					t.Fatal(err)
				}
				if bd2, err = ga.Run(); err != nil {
					t.Fatal(err)
				}
				if d := diffBreakdowns(bd1, bd2); d != "" {
					t.Fatalf("iter %d Gather: one-shot vs replay: %s", iter, d)
				}
				out2 := ga.Results()
				if len(out1) != len(out2) {
					t.Fatalf("iter %d Gather: %d vs %d result groups", iter, len(out1), len(out2))
				}
				for g := range out1 {
					if !bytes.Equal(out1[g], out2[g]) {
						t.Fatalf("iter %d Gather: group %d results differ", iter, g)
					}
				}
			}
			// The cumulative meters and bus statistics must also agree
			// bit-for-bit: replay applies the same additions in the same
			// order as the one-shot path.
			if d := diffBreakdowns(c1.Meter().Snapshot(), c2.Meter().Snapshot()); d != "" {
				t.Fatalf("cumulative meters diverge: %s", d)
			}
			s1, s2 := c1.Host().Stats(), c2.Host().Stats()
			if s1.Bursts != s2.Bursts || s1.TotalBytes() != s2.TotalBytes() {
				t.Fatalf("bus stats diverge: %d bursts/%d B vs %d bursts/%d B",
					s1.Bursts, s1.TotalBytes(), s2.Bursts, s2.TotalBytes())
			}
			if !costOnly {
				for pe := 0; pe < 64; pe++ {
					if !bytes.Equal(c1.GetPEBuffer(pe, 2*m, m), c2.GetPEBuffer(pe, 2*m, m)) {
						t.Fatalf("PE %d AlltoAll bytes diverge", pe)
					}
					if !bytes.Equal(c1.GetPEBuffer(pe, 6*m, s), c2.GetPEBuffer(pe, 6*m, s)) {
						t.Fatalf("PE %d ReduceScatter bytes diverge", pe)
					}
				}
			}
		})
	}
}

// Host-input plans bind their buffers at compile time; replays read the
// buffers' current contents.
func TestCompiledScatterRereadsBuffers(t *testing.T) {
	c := testSystem(t, geo64, []int{8, 8})
	ref := testSystem(t, geo64, []int{8, 8})
	p, _ := c.plan("10")
	s := 16
	bufs := make([][]byte, len(p.groups))
	for g := range bufs {
		bufs[g] = make([]byte, p.n*s)
	}
	cp, err := c.Compile(Collective{Prim: Scatter, Dims: "10",
		Hosts: bufs, Dst: Span(0, s), Level: IM})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 2; iter++ {
		for g := range bufs {
			rng.Read(bufs[g]) // refill in place between runs
		}
		if _, err := cp.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Run(Collective{Prim: Scatter, Dims: "10",
			Hosts: bufs, Dst: Span(0, s), Level: IM}); err != nil {
			t.Fatal(err)
		}
		for pe := 0; pe < 64; pe++ {
			if !bytes.Equal(c.GetPEBuffer(pe, 0, s), ref.GetPEBuffer(pe, 0, s)) {
				t.Fatalf("iter %d: replayed Scatter diverges at PE %d", iter, pe)
			}
		}
	}
}

// Repeated compiles of one signature must share the shape row. Cost()
// previews exactly what one Run charges.
func TestPlanCacheAndCostPreview(t *testing.T) {
	c := costSystem(t, geo64, []int{8, 8})
	m := 8 * 16
	cp1, err := c.Compile(Collective{Prim: AlltoAll, Dims: "10",
		Src: Span(0, m), Dst: At(2 * m), Level: CM})
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := c.Compile(Collective{Prim: AlltoAll, Dims: "10",
		Src: Span(0, m), Dst: At(2 * m), Level: CM})
	if err != nil {
		t.Fatal(err)
	}
	if cp1.planEntry != cp2.planEntry {
		t.Error("repeated compile did not hit the plan cache")
	}
	// Requesting a level that degrades to the same effective level shares
	// the row too.
	if cp3, _ := c.Compile(Collective{Prim: AlltoAll, Dims: "10",
		Src: Span(0, m), Dst: At(2 * m), Level: CM}); cp3.planEntry != cp1.planEntry {
		t.Error("effective-level alias missed the cache")
	}
	bd, err := cp1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffBreakdowns(cp1.Cost(), bd); d != "" {
		t.Errorf("Cost() preview differs from Run(): %s", d)
	}
	if cp1.Primitive() != AlltoAll || cp1.Level() != CM {
		t.Errorf("plan metadata: got %v/%v", cp1.Primitive(), cp1.Level())
	}
}

// In-place AlltoAll (src == dst) works on the staged bulk paths and
// matches the reference model; the streaming levels reject it; partial
// overlap stays an error everywhere.
func TestInPlaceAlltoAll(t *testing.T) {
	s := 24
	for _, lvl := range []Level{Baseline, PR} {
		c := testSystem(t, geo64, []int{8, 8})
		p, _ := c.plan("10")
		m := p.n * s
		in := fillSrc(c, 0, m, 91)
		if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
			Src: Span(0, m), Dst: At(0), Level: lvl}); err != nil {
			t.Fatalf("%v in-place: %v", lvl, err)
		}
		for _, grp := range p.groups {
			want := RefAlltoAll(groupInputs(in, grp), s)
			for j, pe := range grp {
				if !bytes.Equal(c.GetPEBuffer(pe, 0, m), want[j]) {
					t.Fatalf("%v in-place diverges at PE %d", lvl, pe)
				}
			}
		}
	}
	c := testSystem(t, geo64, []int{8, 8})
	m := 8 * s
	for _, lvl := range []Level{IM, CM} {
		if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
			Src: Span(0, m), Dst: At(0), Level: lvl}); err == nil {
			t.Errorf("%v accepted an in-place AlltoAll", lvl)
		}
	}
	if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
		Src: Span(0, m), Dst: At(m / 2), Level: Baseline}); err == nil {
		t.Error("partially overlapping regions accepted")
	}
}

// Regression for the Auto abort-on-inapplicable-level bug: on an
// in-place AlltoAll signature the streaming candidates (IM/CM) are
// inapplicable and their dry runs fail. Auto must skip them and pick the
// cheapest applicable level instead of aborting the whole decision.
func TestAutoSkipsInapplicableLevels(t *testing.T) {
	c := testSystem(t, geo64, []int{8, 8})
	p, _ := c.plan("10")
	m := p.n * 16
	in := fillSrc(c, 0, m, 47)
	if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
		Src: Span(0, m), Dst: At(0), Level: Auto}); err != nil {
		t.Fatalf("Auto in-place AlltoAll aborted: %v", err)
	}
	picked, ok := c.autoCache[autoKey{prim: AlltoAll, dims: "10", bytes: m, inPlace: true}]
	if !ok {
		t.Fatal("no cached in-place Auto decision")
	}
	if picked.lvl >= IM {
		t.Fatalf("Auto picked inapplicable level %v for an in-place call", picked.lvl)
	}
	for _, grp := range p.groups {
		want := RefAlltoAll(groupInputs(in, grp), 16)
		for j, pe := range grp {
			if !bytes.Equal(c.GetPEBuffer(pe, 0, m), want[j]) {
				t.Fatalf("Auto in-place result diverges at PE %d", pe)
			}
		}
	}
	// The same signature out of place must still be free to pick a
	// streaming level (separate cache entries).
	_, lvl, err := c.Resolve(Collective{Prim: AlltoAll, Dims: "10", Src: Span(0, m), Dst: At(2 * m)})
	if err != nil {
		t.Fatal(err)
	}
	if lvl != EffectiveLevel(AlltoAll, lvl) {
		t.Fatalf("Resolve returned non-effective level %v", lvl)
	}
}

// autoPick mechanism: inapplicable candidates and failing rows are
// skipped, ties go to the lowest level, and only all-fail aborts, with
// every candidate's row error in scan order.
func TestAutoPickSkipAndTieRules(t *testing.T) {
	c := testSystem(t, geo64, []int{8, 8})
	flat := cost.NewMeter()
	flat.Add(cost.PEMem, 1)
	equal := flat.Snapshot()

	fake := func(bd cost.Breakdown) *planEntry {
		return &planEntry{tr: chargeTrace{total: bd}}
	}
	// All candidates equally cheap: the lowest level wins the tie.
	dec, err := c.autoPick(autoKey{prim: AlltoAll, dims: "t1", bytes: 1}, func(_ Algorithm, l Level) (*planEntry, error) {
		return fake(equal), nil
	})
	if err != nil || dec.lvl != Baseline {
		t.Fatalf("tie: got %v, %v; want Baseline", dec.lvl, err)
	}
	// A failing candidate is skipped, even if it would have been first.
	dec, err = c.autoPick(autoKey{prim: AlltoAll, dims: "t2", bytes: 1}, func(_ Algorithm, l Level) (*planEntry, error) {
		if l == Baseline || l == PR {
			return nil, fmt.Errorf("inapplicable at %v", l)
		}
		return fake(equal), nil
	})
	if err != nil || dec.lvl != IM {
		t.Fatalf("skip: got %v, %v; want IM", dec.lvl, err)
	}
	// A candidate that does not apply is never asked for its row: a ring
	// AllReduce runs at Baseline only, and an in-place AlltoAll on the
	// staged levels only.
	for _, tc := range []struct {
		k    autoKey
		want []Level
	}{
		{autoKey{prim: AllReduce, dims: "10", bytes: 64, algo: AlgoRing}, []Level{Baseline}},
		{autoKey{prim: AlltoAll, dims: "10", bytes: 64, inPlace: true}, []Level{Baseline, PR}},
	} {
		var asked []Level
		dec, err = c.autoPick(tc.k, func(_ Algorithm, l Level) (*planEntry, error) {
			asked = append(asked, l)
			return fake(equal), nil
		})
		if err != nil || dec.lvl != Baseline || !slices.Equal(asked, tc.want) {
			t.Errorf("%+v: picked %v (%v) after asking for %v; want Baseline after %v", tc.k, dec.lvl, err, asked, tc.want)
		}
	}
	// Every candidate failing aborts with a joined error.
	_, err = c.autoPick(autoKey{prim: AlltoAll, dims: "t3", bytes: 1}, func(_ Algorithm, l Level) (*planEntry, error) {
		return nil, fmt.Errorf("inapplicable at %v", l)
	})
	const want = "core: no (algorithm, level) candidate applies: inapplicable at Base\ninapplicable at +PR\ninapplicable at +IM\ninapplicable at +CM"
	if err == nil || err.Error() != want {
		t.Fatalf("all-fail: got %v, want %q", err, want)
	}
}

// An Auto compile that no candidate applies to reports every candidate's
// own error, as it did when each rejected candidate built one.
func TestAutoRejectionMessage(t *testing.T) {
	c := costSystem(t, geo64, []int{8, 8})
	_, err := c.s.Compile(Collective{Prim: AlltoAll, Dims: "10", Src: Span(0, 512), Dst: At(1024), Level: Auto, Algorithm: AlgoRing})
	no := "AlltoAll: core: no ring algorithm for AlltoAll (have [ref])"
	want := "AlltoAll: Auto(AA): core: no (algorithm, level) candidate applies: " + strings.Repeat(no+"\n", 3) + no
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
}

// TestConcurrentCollectives is the -race stress test of the tentpole:
// independent collectives issued from multiple goroutines against one
// functional Comm, on disjoint MRAM slabs, must be safe and correct.
// One extra goroutine replays a shared compiled Gather plan throughout.
func TestConcurrentCollectives(t *testing.T) {
	c := testSystem(t, geo64, []int{8, 8})
	p, _ := c.plan("10")
	n := p.n // 8
	const slab = 2048
	const iters = 3

	// Slab 0 is reserved for the shared Gather plan's source data.
	sharedIn := fillSrc(c, 0, 32, 5)
	gatherPlan, err := c.Compile(Collective{Prim: Gather, Dims: "10", Src: Span(0, 32), Level: IM})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 1; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := g * slab
			s := 32
			m := n * s // 256
			for iter := 0; iter < iters; iter++ {
				in := fillSrc(c, base, m, int64(g*100+iter))
				if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
					Src: Span(base, m), Dst: At(base + m), Level: Auto}); err != nil {
					errs <- err
					return
				}
				for _, grp := range p.groups {
					want := RefAlltoAll(groupInputs(in, grp), s)
					for j, pe := range grp {
						if !bytes.Equal(c.GetPEBuffer(pe, base+m, m), want[j]) {
							errs <- fmt.Errorf("goroutine %d iter %d: AlltoAll diverges at PE %d", g, iter, pe)
							return
						}
					}
				}
				in = fillSrc(c, base+2*m, m, int64(g*200+iter))
				if _, err := c.Run(Collective{Prim: ReduceScatter, Dims: "10",
					Src: Span(base+2*m, m), Dst: At(base + 3*m),
					Elem: elem.I32, Op: elem.Sum, Level: IM}); err != nil {
					errs <- err
					return
				}
				for _, grp := range p.groups {
					want := RefReduceScatter(elem.I32, elem.Sum, groupInputs(in, grp), s)
					for j, pe := range grp {
						if !bytes.Equal(c.GetPEBuffer(pe, base+3*m, s), want[j]) {
							errs <- fmt.Errorf("goroutine %d iter %d: ReduceScatter diverges at PE %d", g, iter, pe)
							return
						}
					}
				}
				// Exercise the shared Auto cache from every goroutine.
				if _, _, err := c.Resolve(Collective{Prim: AllReduce, Dims: "10",
					Src: Span(0, m), Dst: At(m), Elem: elem.I32, Op: elem.Sum}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4*iters; i++ {
			// Stats and the meter are documented as pollable while
			// collectives run on other goroutines.
			if st := c.Host().Stats(); st.TotalBytes() < 0 {
				errs <- fmt.Errorf("negative cumulative traffic")
				return
			}
			_ = c.Meter().Total()
			if _, err := gatherPlan.Run(); err != nil {
				errs <- err
				return
			}
			out := gatherPlan.Results()
			for _, grp := range p.groups {
				heads := make([][]byte, len(grp))
				for i, pe := range grp {
					heads[i] = sharedIn[pe]
				}
				if !bytes.Equal(out[int(p.groupOf[grp[0]])], RefGather(heads)) {
					errs <- fmt.Errorf("shared Gather replay diverges")
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// The rotate-blocks instruction accounting rounds up and is shared by
// both backends (regression for the m/4 truncation mismatch).
func TestRotateBlocksWorkRounding(t *testing.T) {
	for _, tc := range []struct {
		m     int
		instr int64
	}{{0, 0}, {1, 1}, {4, 1}, {6, 2}, {7, 2}, {8, 2}, {24, 6}, {25, 7}} {
		instr, mram := rotateBlocksWork(tc.m)
		if instr != tc.instr || mram != int64(2*tc.m) {
			t.Errorf("rotateBlocksWork(%d) = (%d, %d), want (%d, %d)", tc.m, instr, mram, tc.instr, 2*tc.m)
		}
	}
}

// Why cached replay is fast, as deterministic facts instead of a
// wall-clock ratio (which benchmark/ measures: cost_sweep, func_replay):
// on the paper-scale 1024-PE cost-only config, recompiling a descriptor
// is a shape-row hit that lowers and traces nothing — the host-input
// primitives, whose plans bind caller buffers, included — and replaying
// the compiled plan allocates nothing, whatever the payload and PE count.
func TestCachedReplayIsAHitAndAllocatesNothing(t *testing.T) {
	const m = 1 << 20
	c := costSystem(t, dram.PaperGeometry(4*m), []int{32, 32})
	for _, prim := range Primitives() {
		sh := &shapes[prim]
		d := Collective{Prim: prim, Dims: "10", Level: IM}
		switch {
		case sh.hostInput():
			d.Dst = Span(0, m)
		case sh.rooted():
			d.Src = Span(0, m)
		case prim == AllGather:
			d.Src, d.Dst = Span(0, m/32), At(2*m/32)
		default:
			d.Src, d.Dst = Span(0, m), At(2*m)
		}
		if sh.reducing {
			d.Elem, d.Op = elem.I32, elem.Sum
		}
		if prim == Broadcast {
			d.Hosts = make([][]byte, 32)
			for g := range d.Hosts {
				d.Hosts[g] = make([]byte, m)
			}
		}
		if _, err := c.Compile(d); err != nil {
			t.Fatalf("%v: cold compile: %v", prim, err)
		}
		before := c.Snapshot().PlanCache
		cp, err := c.Compile(d)
		if err != nil {
			t.Fatalf("%v: cached compile: %v", prim, err)
		}
		after := c.Snapshot().PlanCache
		if after.TraceMisses != before.TraceMisses || after.TraceHits != before.TraceHits+1 {
			t.Errorf("%v: recompile traced again: %+v -> %+v", prim, before, after)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := cp.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: cached cost-only Run allocates %.0f objects, want 0", prim, allocs)
		}
	}
}

// A collective is a one-member sequence: Compile and CompileSequence of
// one descriptor share the shape row, whose members and member costs
// are the primitive and the plan's own cost.
func TestSingleCollectiveIsAOneMemberSequence(t *testing.T) {
	c := costSystem(t, geo64, []int{8, 8})
	d := Collective{Prim: AlltoAll, Dims: "10", Src: Span(0, 128), Dst: At(256), Level: CM}
	cp, err := c.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := c.CompileSequence(d); err != nil || seq.planEntry != cp.planEntry {
		t.Fatalf("CompileSequence(d) = %p, %v; want Compile(d)'s row %p", seq, err, cp.planEntry)
	}
	if st := c.Snapshot().PlanCache; st.CachedTraces != 1 || st.TraceHits != 1 {
		t.Errorf("one-member sequence booked as %+v, want one row hit once", st)
	}
	if got := cp.Members(); len(got) != 1 || got[0] != AlltoAll {
		t.Errorf("Members() = %v, want [AlltoAll]", got)
	}
	if got := cp.MemberCosts(); len(got) != 1 || got[0] != cp.Cost() {
		t.Errorf("MemberCosts() = %v, want [Cost()] = %v", got, cp.Cost())
	}
}

// A sequence with a host-input member rebuilds its schedule on every
// compile — it binds the caller's buffers — but everything that depends
// on the call shape alone is the cache row's: a recompile traces nothing.
func TestHostInputSequenceSharesItsTrace(t *testing.T) {
	c := costSystem(t, geo64, []int{8, 8})
	const s = 32
	ds := []Collective{
		{Prim: Scatter, Dims: "10", Dst: Span(0, s), Level: IM},
		{Prim: AllGather, Dims: "10", Src: Span(0, s), Dst: At(1024), Level: IM},
	}
	cp1, err := c.CompileSequence(ds...)
	if err != nil {
		t.Fatal(err)
	}
	first := c.Snapshot().PlanCache
	if first.TraceMisses != 1 || first.CachedTraces != 1 {
		t.Fatalf("first compile: %+v", first)
	}
	for i := 0; i < 3; i++ {
		cp2, err := c.CompileSequence(ds...)
		if err != nil {
			t.Fatal(err)
		}
		if cp2 == cp1 {
			t.Fatal("a plan binding caller buffers was served from the cache")
		}
		if &cp2.tr != &cp1.tr || &cp2.memberCosts[0] != &cp1.memberCosts[0] || cp2.fusion != cp1.fusion {
			t.Fatal("recompile re-traced instead of sharing the row's trace, member costs and fusion report")
		}
	}
	if st := c.Snapshot().PlanCache; st.TraceMisses != first.TraceMisses || st.TraceHits != first.TraceHits+3 {
		t.Errorf("after 3 recompiles: %+v, want 3 hits on the trace of %+v", st, first)
	}
}

// A cached compile allocates only its plan, for one collective and for a
// pair: the specs sit on the stack and a hit looks a sequence's encoded
// key up without building a string.
func TestCachedCompileAllocs(t *testing.T) {
	c := withSession(t, tenantTestComm(t, 1<<13))
	const m = 16 * 8
	aa := Collective{Prim: AlltoAll, Dims: "1", Src: Span(0, m), Dst: At(2 * m), Level: CM}
	ag := Collective{Prim: AllGather, Dims: "1", Src: Span(4*m, 8), Dst: At(5 * m), Level: CM}
	for _, tc := range []struct {
		name    string
		compile func() (*CompiledPlan, error)
		max     float64
	}{
		{"Compile", func() (*CompiledPlan, error) { return c.Compile(aa) }, 1},
		{"two-member CompileSequence", func() (*CompiledPlan, error) { return c.CompileSequence(aa, ag) }, 1},
	} {
		if _, err := tc.compile(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { tc.compile() }); got > tc.max {
			t.Errorf("cached %s hit: %v allocs, want <= %v", tc.name, got, tc.max)
		}
	}
}

// A sequence's row key tells apart sequences whose later members differ
// in any one field of their signature, or in their count: each variant
// is a row miss of its own, and compiling it again finds that row.
func TestSequenceKeysTellMembersApart(t *testing.T) {
	c := withSession(t, tenantTestComm(t, 1<<13))
	const m = 16 * 8
	aa := Collective{Prim: AlltoAll, Dims: "1", Src: Span(0, m), Dst: At(2 * m), Level: CM}
	ar := Collective{Prim: AllReduce, Dims: "1", Src: Span(4*m, m), Dst: At(6 * m), Elem: elem.I32, Op: elem.Sum, Level: CM}
	vary := func(f func(d *Collective)) []Collective {
		d := ar
		f(&d)
		return []Collective{aa, d}
	}
	seqs := [][]Collective{
		{aa, ar},
		{aa, ar, ar},
		vary(func(d *Collective) { d.Src = Span(3*m, m) }),
		vary(func(d *Collective) { d.Dst = At(7 * m) }),
		vary(func(d *Collective) { d.Src = Span(4*m, 2*m) }),
		vary(func(d *Collective) { d.Elem = elem.I64 }),
		vary(func(d *Collective) { d.Op = elem.Max }),
		vary(func(d *Collective) { d.Level = Baseline }),
		vary(func(d *Collective) { d.Level, d.Algorithm = Baseline, AlgoRing }),
		{ar, aa},
	}
	rows := make([]*planEntry, len(seqs))
	for i, ds := range seqs {
		misses := c.Snapshot().PlanCache.TraceMisses
		cp, err := c.CompileSequence(ds...)
		if err != nil {
			t.Fatalf("sequence %d: %v", i, err)
		}
		if got := c.Snapshot().PlanCache.TraceMisses; got != misses+1 {
			t.Errorf("sequence %d found the row of an earlier sequence (%d misses, want %d)", i, got, misses+1)
		}
		rows[i] = cp.planEntry
	}
	for i, ds := range seqs {
		if cp, err := c.CompileSequence(ds...); err != nil || cp.planEntry != rows[i] {
			t.Errorf("sequence %d recompiled to another row (%v)", i, err)
		}
	}
}

// traceAllReduce is the lowered collective of the tracer tests: an
// AllReduce over the x axis of an 8×8 hypercube.
var traceAllReduce = Collective{Prim: AllReduce, Dims: "10", Src: Span(0, 512), Dst: At(1024), Elem: elem.I32, Op: elem.Sum, Level: CM}

// Tracing on a warm cost-only comm allocates only what the row keeps —
// its additions and its segments; the row holds the trace and, on up to
// four channels, its bus statistics — at any trace length: the comm's
// one scratch tracer holds the host, the meter and both buffers.
func TestTraceScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	c := costSystem(t, geo64, []int{8, 8})
	spec, err := c.specIn(c.s.ar, traceAllReduce, false)
	if err != nil {
		t.Fatal(err)
	}
	lowered := spec.schedule() // a cost-only row keeps none
	scheds := []*Schedule{&lowered}
	for _, n := range []int{2, 512} {
		// Alternating host and network steps: n additions, n segments.
		sched := &Schedule{Name: fmt.Sprintf("test/%d-steps", n)}
		for i := 0; i < n; i += 2 {
			sched.add(&StepHostCompute{Rounds: 1, Charges: []Charge{{host.HostMem, int64(64 * (i + 1))}}})
			sched.add(&StepNetTransfer{Rounds: 1, Bytes: 64})
		}
		scheds = append(scheds, sched)
	}
	c.compMu.Lock()
	defer c.compMu.Unlock()
	var want, got chargeTrace
	for _, sched := range scheds {
		c.traceSchedule(sched, &want)
		allocs := testing.AllocsPerRun(20, func() {
			if c.traceSchedule(sched, &got); got.total != want.total || len(got.adds) != len(want.adds) {
				t.Fatalf("%s: a warm trace gave %v over %d additions, the first %v over %d",
					sched.Name, got.total, len(got.adds), want.total, len(want.adds))
			}
		})
		if allocs > 2 {
			t.Errorf("%s (%d additions): a warm trace allocates %v objects, want <= 2", sched.Name, len(want.adds), allocs)
		}
		if !slices.Equal(got.stats.BytesPerChannel, want.stats.BytesPerChannel) || &got.stats.BytesPerChannel[0] != &got.chans[0] {
			t.Errorf("%s: bus statistics %v (the first trace's %v), want them held in the trace", sched.Name, got.stats.BytesPerChannel, want.stats.BytesPerChannel)
		}
	}
}

// A cold compile allocates per row, not per step: every primitive at
// every level and at Auto — the set of the root
// BenchmarkColdCompileCostOnly — compiled on a fresh cost-only 32×32
// paper machine. A row keeps its trace and footprint in place and two
// trace slices, a lowering sizes its step list once, and Auto builds no
// error for a candidate that does not apply; this run took 620 objects
// before those, 350 after, and 340 once the staged passes' per-group
// modulations stopped capturing helper closures.
func TestColdCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const m, n = 64 << 10, 32
	hosts := make([][]byte, n) // Broadcast's payloads: read by no cost-only compile
	for g := range hosts {
		hosts[g] = make([]byte, m)
	}
	var ds []Collective
	for _, prim := range Primitives() {
		for _, lvl := range append(Levels(), Auto) {
			d := Collective{Prim: prim, Dims: "10", Level: lvl, Elem: elem.I32, Op: elem.Sum}
			switch prim {
			case AlltoAll, ReduceScatter, AllReduce:
				d.Src, d.Dst = Span(0, m), At(2*m)
			case AllGather:
				d.Src, d.Dst = Span(0, m/n), At(2*m)
			case Scatter:
				d.Dst = Span(0, m)
			case Gather, Reduce:
				d.Src = Span(0, m)
			case Broadcast:
				d.Dst, d.Hosts = At(0), hosts
			}
			ds = append(ds, d)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		c := costSystem(t, dram.PaperGeometry(512<<10), []int{32, 32})
		for _, d := range ds {
			if _, err := c.Compile(d); err != nil {
				t.Fatalf("%v at %v: %v", d.Prim, d.Level, err)
			}
		}
	})
	const ceiling = 340
	if allocs > ceiling {
		t.Errorf("a cold compile of %d collectives allocates %v objects, want <= %d", len(ds), allocs, ceiling)
	}
}

// A schedule that panics mid-trace, after it has charged a bus epoch,
// takes the comm's tracer down with it: the tracer is not put back, and
// the next compile on the comm traces exactly what it traces on a fresh
// comm. The panic is a rotation over zero blocks, whose rotation divides
// by zero when the cost backend prices it.
func TestPanickingTraceLeavesNextTraceClean(t *testing.T) {
	c := costSystem(t, geo64, []int{8, 8})
	if _, err := freshPlan(c.s, traceAllReduce); err != nil { // a warm tracer
		t.Fatal(err)
	}
	p, err := c.plan("10")
	if err != nil {
		t.Fatal(err)
	}
	bad := &Schedule{Name: "test/panics-mid-trace"}
	bad.add(&StepBulk{Read: true, ReadPerPE: 64, Charges: []Charge{{host.Reduce, 4096}}})
	bad.add(&StepRotateBlocks{p: p, N: 0, S: 8, Mul: 1})
	func() {
		c.compMu.Lock()
		defer c.compMu.Unlock()
		defer func() {
			r := recover()
			if err, ok := r.(runtime.Error); !ok || !strings.Contains(err.Error(), "divide by zero") {
				t.Fatalf("tracing the panicking schedule recovered %v, want a division-by-zero runtime error", r)
			}
			if c.tracer != nil {
				t.Error("the tracer of a panicked trace is back on the comm")
			}
		}()
		c.traceSchedule(bad, new(chargeTrace))
	}()
	got, err := freshPlan(c.s, traceAllReduce)
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshPlan(costSystem(t, geo64, []int{8, 8}).s, traceAllReduce)
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffRows(got, want); diff != "" {
		t.Errorf("the compile after a panicked trace differs from a fresh comm's: %s", diff)
	}
}
