package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/internal/host"
)

// asyncTestComm builds a small functional comm: 32 PEs (1 ch x 1 rank x
// 4 banks), 1-D hypercube, plenty of MRAM.
func asyncTestComm(t *testing.T, costOnly bool) *testComm {
	t.Helper()
	geo := dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 4, MramPerBank: 1 << 16}
	if costOnly {
		return costSystem(t, geo, []int{32})
	}
	return testSystem(t, geo, []int{32})
}

func fillPEs(c *testComm, off, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, n)
	for pe := 0; pe < len(c.hc.rankedPEs("1")); pe++ {
		rng.Read(buf)
		c.SetPEBuffer(pe, off, buf)
	}
}

// rankedPEs is a tiny test helper: the PE count of the comm.
func (hc *Hypercube) rankedPEs(string) []int {
	n := hc.sys.Geometry().NumPEs()
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestAsyncMatchesSerialBitIdentical submits the same mixed sequence of
// dependent and independent plans that a serial comm replays, and checks
// meter, bus statistics and MRAM contents are bit-identical, while the
// async elapsed time never exceeds the serial elapsed time.
func TestAsyncMatchesSerialBitIdentical(t *testing.T) {
	const m = 32 * 8 // bytesPerPE (n=32 groups of 32)
	serial := asyncTestComm(t, false)
	async := asyncTestComm(t, false)
	for _, c := range []*testComm{serial, async} {
		fillPEs(c, 0, 8*m, 42)
	}

	type call struct {
		prim            Primitive
		src, dst, bytes int
		lvl             Level
	}
	// A DLRM-ish pipeline: independent pairs plus a dependent chain
	// (AlltoAll writes 3m, ReduceScatter then consumes 3m).
	seq := []call{
		{AlltoAll, 0, 1 * m, m, CM},
		{AllReduce, 4 * m, 5 * m, m, IM},           // independent of the first
		{AlltoAll, 2 * m, 3 * m, m, PR},            // independent
		{ReduceScatter, 3 * m, 6 * m, m, IM},       // RAW on 3m
		{AllGather, 6*m + m/32, 7 * m, m / 32, IM}, // WAR-free read near 6m... independent region
	}

	run := func(c *testComm, asyncMode bool) []*Future {
		var fs []*Future
		for _, cl := range seq {
			var f *Future
			var err error
			switch cl.prim {
			case AlltoAll:
				if asyncMode {
					f, err = c.Submit(Collective{Prim: AlltoAll, Dims: "1",
						Src: Span(cl.src, cl.bytes), Dst: At(cl.dst), Level: cl.lvl})
				} else {
					_, err = c.Run(Collective{Prim: AlltoAll, Dims: "1",
						Src: Span(cl.src, cl.bytes), Dst: At(cl.dst), Level: cl.lvl})
				}
			case AllReduce:
				if asyncMode {
					f, err = c.Submit(Collective{Prim: AllReduce, Dims: "1",
						Src: Span(cl.src, cl.bytes), Dst: At(cl.dst), Elem: elem.I32, Op: elem.Sum, Level: cl.lvl})
				} else {
					_, err = c.Run(Collective{Prim: AllReduce, Dims: "1",
						Src: Span(cl.src, cl.bytes), Dst: At(cl.dst), Elem: elem.I32, Op: elem.Sum, Level: cl.lvl})
				}
			case ReduceScatter:
				if asyncMode {
					f, err = c.Submit(Collective{Prim: ReduceScatter, Dims: "1",
						Src: Span(cl.src, cl.bytes), Dst: At(cl.dst), Elem: elem.I32, Op: elem.Sum, Level: cl.lvl})
				} else {
					_, err = c.Run(Collective{Prim: ReduceScatter, Dims: "1",
						Src: Span(cl.src, cl.bytes), Dst: At(cl.dst), Elem: elem.I32, Op: elem.Sum, Level: cl.lvl})
				}
			case AllGather:
				if asyncMode {
					f, err = c.Submit(Collective{Prim: AllGather, Dims: "1",
						Src: Span(cl.src, cl.bytes), Dst: At(cl.dst), Level: cl.lvl})
				} else {
					_, err = c.Run(Collective{Prim: AllGather, Dims: "1",
						Src: Span(cl.src, cl.bytes), Dst: At(cl.dst), Level: cl.lvl})
				}
			}
			if err != nil {
				t.Fatalf("%v: %v", cl.prim, err)
			}
			if f != nil {
				fs = append(fs, f)
			}
		}
		return fs
	}

	run(serial, false)
	fs := run(async, true)
	async.Flush()
	for i, f := range fs {
		if err := f.Err(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}

	if s, a := serial.Meter().Snapshot(), async.Meter().Snapshot(); s != a {
		t.Fatalf("meters diverge:\n serial %v\n async  %v", s, a)
	}
	if s, a := serial.Host().Stats(), async.Host().Stats(); s.Bursts != a.Bursts {
		t.Fatalf("bus statistics diverge: %d vs %d bursts", s.Bursts, a.Bursts)
	}
	for pe := 0; pe < 32; pe++ {
		if !bytes.Equal(serial.GetPEBuffer(pe, 0, 8*m), async.GetPEBuffer(pe, 0, 8*m)) {
			t.Fatalf("PE %d MRAM diverges between serial and async execution", pe)
		}
	}
	sEl, aEl := serial.Elapsed(), async.Elapsed()
	if aEl > sEl+1e-15 {
		t.Fatalf("async elapsed %v exceeds serial %v", aEl, sEl)
	}
	if aEl >= sEl {
		t.Fatalf("async elapsed %v shows no overlap vs serial %v (independent plans in sequence)", aEl, sEl)
	}
}

// Two plans conflict on a region one of them writes — RAW, WAR or WAW,
// a consumed source counting as written — each footprint at its own
// arena base, and never on a region both only read.
func TestConflictsNeedAWrite(t *testing.T) {
	plan := func(base int, src span, consumed bool, dst span) *CompiledPlan {
		row := &planEntry{}
		row.regs.set([]planSpec{{src: src, dst: dst, consumed: consumed}})
		return &CompiledPlan{planEntry: row, base: base}
	}
	r, none, far := span{0, 64}, span{}, span{128, 64}
	for _, tc := range []struct {
		name string
		a, b *CompiledPlan
		want bool
	}{
		{"read/read", plan(0, r, false, none), plan(0, r, false, far), false},
		{"write/read", plan(0, none, false, r), plan(0, r, false, far), true},
		{"write/write", plan(0, none, false, r), plan(0, none, false, r), true},
		{"consumed/read", plan(0, r, true, none), plan(0, r, false, far), true},
		{"write/read at other bases", plan(0, none, false, r), plan(64, r, false, far), false},
		{"write/read at the same place", plan(0, none, false, span{64, 64}), plan(64, r, false, far), true},
	} {
		if got, rev := tc.a.conflicts(tc.b), tc.b.conflicts(tc.a); got != tc.want || rev != tc.want {
			t.Errorf("%s: conflicts %v one way, %v the other; want %v", tc.name, got, rev, tc.want)
		}
	}
}

// TestAsyncHazardOrdering checks that dependent plans' timeline windows
// do not overlap (RAW chain) while independent plans' windows do.
func TestAsyncHazardOrdering(t *testing.T) {
	const m = 32 * 8
	c := asyncTestComm(t, true)

	// Writer -> reader chain on the same region: must serialize.
	w, err := c.Submit(Collective{Prim: AlltoAll, Dims: "1",
		Src: Span(0, m), Dst: At(m), Level: Baseline}) // writes [m,2m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Submit(Collective{Prim: AllGather, Dims: "1",
		Src: Span(m, m/32), Dst: At(4 * m), Level: IM}) // reads [m, m+m/32)
	if err != nil {
		t.Fatal(err)
	}
	// Independent plan: may overlap the writer.
	ind, err := c.Submit(Collective{Prim: AllReduce, Dims: "1",
		Src: Span(8*m, m), Dst: At(9 * m), Elem: elem.I32, Op: elem.Sum, Level: IM})
	if err != nil {
		t.Fatal(err)
	}
	c.Flush()

	_, wEnd := w.Window()
	rStart, _ := r.Window()
	if rStart < wEnd {
		t.Fatalf("dependent reader starts at %v before writer ends at %v", rStart, wEnd)
	}
	iStart, _ := ind.Window()
	if iStart >= wEnd {
		t.Fatalf("independent plan start %v does not overlap writer window ending %v", iStart, wEnd)
	}
}

// TestAsyncConcurrentSubmitStress hammers Submit from many goroutines
// (run under -race): each goroutine owns a disjoint MRAM region and
// alternates two plans on it. Total meter time must equal the sum of all
// futures' breakdowns, and elapsed must not exceed the serial sum.
func TestAsyncConcurrentSubmitStress(t *testing.T) {
	const m = 32 * 8
	c := asyncTestComm(t, true)
	const workers = 8
	const itersPerWorker = 20

	var mu sync.Mutex
	var want cost.Breakdown
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * 4 * m
			var fs []*Future
			for i := 0; i < itersPerWorker; i++ {
				f, err := c.Submit(Collective{Prim: AlltoAll, Dims: "1",
					Src: Span(base, m), Dst: At(base + m), Level: CM})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				fs = append(fs, f)
				f2, err := c.Submit(Collective{Prim: AllReduce, Dims: "1",
					Src: Span(base+2*m, m), Dst: At(base + 3*m), Elem: elem.I32, Op: elem.Sum, Level: IM})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				fs = append(fs, f2)
			}
			var sum cost.Breakdown
			for _, f := range fs {
				bd, err := f.Wait()
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				sum = sum.Add(bd)
			}
			mu.Lock()
			want = want.Add(sum)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	c.Flush()

	got := c.Meter().Snapshot()
	if diff := got.Total() - want.Total(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("meter total %v != sum of future breakdowns %v", got.Total(), want.Total())
	}
	if el := c.Elapsed(); el > got.Total()+1e-12 {
		t.Fatalf("elapsed %v exceeds total work %v", el, got.Total())
	}
}

// TestAsyncCostNeverAboveSerial is the async cost property test over
// random independent/dependent plan mixes on the cost backend: the async
// elapsed time never exceeds the serial replay's, and the meters stay
// bit-identical.
func TestAsyncCostNeverAboveSerial(t *testing.T) {
	const m = 32 * 8
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		serial := asyncTestComm(t, true)
		async := asyncTestComm(t, true)
		nCalls := 2 + rng.Intn(6)
		type planned struct{ s, a *CompiledPlan }
		var plans []planned
		for i := 0; i < nCalls; i++ {
			// Random regions over 8 slots of size 2m; random levels.
			src := rng.Intn(8) * 2 * m
			dst := rng.Intn(8) * 2 * m
			if src == dst {
				dst = (src + 2*m) % (16 * m)
			}
			lvl := Levels()[rng.Intn(4)]
			sp, err := serial.Compile(Collective{Prim: AlltoAll, Dims: "1",
				Src: Span(src, m), Dst: At(dst), Level: lvl})
			if err != nil {
				t.Fatal(err)
			}
			ap, err := async.Compile(Collective{Prim: AlltoAll, Dims: "1",
				Src: Span(src, m), Dst: At(dst), Level: lvl})
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, planned{sp, ap})
		}
		for _, p := range plans {
			if _, err := p.s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		var fs []*Future
		for _, p := range plans {
			fs = append(fs, p.a.Submit())
		}
		async.Flush()
		for _, f := range fs {
			if err := f.Err(); err != nil {
				t.Fatal(err)
			}
		}
		if s, a := serial.Meter().Snapshot(), async.Meter().Snapshot(); s != a {
			t.Fatalf("trial %d: meters diverge", trial)
		}
		if sEl, aEl := serial.Elapsed(), async.Elapsed(); aEl > sEl+1e-15 {
			t.Fatalf("trial %d: async elapsed %v > serial %v", trial, aEl, sEl)
		}
	}
}

// ExtendElapsed on a warm comm allocates nothing: the breakdown's lane
// segments go into the comm's reusable buffer, and its serial run books
// no interval on the timeline.
func TestExtendElapsedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	c := asyncTestComm(t, true)
	m := cost.NewMeter()
	m.Add(cost.Kernel, 3e-4)
	m.Add(cost.PEMem, 1e-4)
	m.Add(cost.HostMod, 2e-5)
	m.Add(cost.Other, 1e-6)
	bd := m.Snapshot()
	c.ExtendElapsed(bd)
	before := c.Elapsed()
	if a := testing.AllocsPerRun(100, func() { c.ExtendElapsed(bd) }); a != 0 {
		t.Errorf("a warm ExtendElapsed allocates %v objects, want 0", a)
	}
	if c.Elapsed() <= before {
		t.Errorf("ExtendElapsed left the elapsed time at %v", c.Elapsed())
	}
}

// failingPlan hand-builds a plan whose functional execution panics
// mid-schedule (after the charge trace was captured cleanly), modeling a
// backend error inside a schedule step: the modulation of a bulk step,
// which only the functional backend runs.
func failingPlan(c *testComm) *CompiledPlan {
	p, err := c.plan("1")
	if err != nil {
		panic(err)
	}
	sched := &Schedule{Name: "test/failing"}
	sched.add(&StepBulk{p: p,
		Charges:  []Charge{{host.HostMem, 64}},
		Modulate: func(*Comm, int, []byte, []byte) { panic("injected backend failure") },
	})
	sched.add(&StepSync{})
	c.compMu.Lock()
	defer c.compMu.Unlock()
	row := &planEntry{key: planKey{prim: Broadcast, dims: "1"}, sched: sched}
	c.traceSchedule(sched, &row.tr)
	return c.s.planOn(row, nil)
}

// TestFutureErrSurfacesBackendErrorExactlyOnce is the regression test for
// the queue-slot double-release bug: a plan failing mid-schedule must
// surface its error on exactly its own Future (idempotently), leave other
// futures untouched, keep the queue draining, and neither leak nor
// double-release queue slots.
func TestFutureErrSurfacesBackendErrorExactlyOnce(t *testing.T) {
	const m = 32 * 8
	c := asyncTestComm(t, false)
	fillPEs(c, 0, 4*m, 7)

	ok1, err := c.Submit(Collective{Prim: AlltoAll, Dims: "1",
		Src: Span(0, m), Dst: At(m), Level: CM})
	if err != nil {
		t.Fatal(err)
	}
	bad := failingPlan(c).Submit()
	bad2 := failingPlan(c).Submit()
	ok2, err := c.Submit(Collective{Prim: AlltoAll, Dims: "1",
		Src: Span(2*m, m), Dst: At(3 * m), Level: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	c.Flush()

	if err := ok1.Err(); err != nil {
		t.Fatalf("healthy future 1 got error: %v", err)
	}
	if err := ok2.Err(); err != nil {
		t.Fatalf("healthy future after failures got error: %v", err)
	}
	for i, f := range []*Future{bad, bad2} {
		e1 := f.Err()
		if e1 == nil {
			t.Fatalf("failing future %d: no error surfaced", i)
		}
		if _, e2 := f.Wait(); e2 != e1 {
			t.Fatalf("failing future %d: error not stable across calls: %v vs %v", i, e1, e2)
		}
	}

	// Slot accounting: after the queue drained, every slot must have been
	// released exactly once — nothing is pending (the pending count is the
	// slot), and the comm still accepts a burst without blocking.
	if n := c.Pending(); n != 0 {
		t.Fatalf("%d queue slots leaked after failures", n)
	}
	var fs []*Future
	for i := 0; i < 32; i++ {
		f, err := c.Submit(Collective{Prim: AlltoAll, Dims: "1",
			Src: Span(0, m), Dst: At(m), Level: CM})
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	c.Flush()
	for _, f := range fs {
		if err := f.Err(); err != nil {
			t.Fatalf("post-failure submission failed: %v", err)
		}
	}
	if n := c.Pending(); n != 0 {
		t.Fatalf("%d queue slots outstanding after drain", n)
	}
}

// TestSerialRunIsBarrier checks that a serial Run after submissions
// appends to the timeline (no overlap with in-flight plans) and that
// submissions after a Flush do not backfill earlier gaps.
func TestSerialRunIsBarrier(t *testing.T) {
	const m = 32 * 8
	c := asyncTestComm(t, true)
	f, err := c.Submit(Collective{Prim: AlltoAll, Dims: "1",
		Src: Span(0, m), Dst: At(m), Level: CM})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Collective{Prim: AllReduce, Dims: "1",
		Src: Span(2*m, m), Dst: At(3 * m), Elem: elem.I32, Op: elem.Sum, Level: IM}); err != nil {
		t.Fatal(err)
	}
	_, fEnd := f.Window()
	el := c.Elapsed()
	if el <= fEnd {
		t.Fatalf("serial run did not extend the timeline: elapsed %v, future end %v", el, fEnd)
	}
	// Post-flush submissions start at or after the barrier.
	f2, err := c.Submit(Collective{Prim: AlltoAll, Dims: "1",
		Src: Span(4*m, m), Dst: At(5 * m), Level: CM})
	if err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if s, _ := f2.Window(); s < el {
		t.Fatalf("post-barrier submission backfilled: start %v < barrier %v", s, el)
	}
}

// TestPlanCacheStats pins the instrumentation: row hits/misses and memory
// accounting across compiles and one-shot replays.
func TestPlanCacheStats(t *testing.T) {
	const m = 32 * 8
	c := asyncTestComm(t, true)
	if st := c.Snapshot().PlanCache; st != (PlanCacheStats{}) {
		t.Fatalf("fresh comm has non-zero cache stats: %+v", st)
	}
	if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "1",
		Src: Span(0, m), Dst: At(m), Level: CM}); err != nil {
		t.Fatal(err)
	}
	st := c.Snapshot().PlanCache
	if st.TraceHits != 0 || st.TraceMisses != 1 {
		t.Fatalf("after first call: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "1",
			Src: Span(0, m), Dst: At(m), Level: CM}); err != nil {
			t.Fatal(err)
		}
	}
	st = c.Snapshot().PlanCache
	if st.TraceHits != 3 || st.TraceMisses != 1 {
		t.Fatalf("after replays: %+v", st)
	}
	if st.CachedTraces != 1 {
		t.Fatalf("cache sizes: %+v", st)
	}
	if st.TraceEntries == 0 || st.TraceBytes == 0 {
		t.Fatalf("no trace memory accounted: %+v", st)
	}
	// Host-input plans share rows too.
	bufs := [][]byte{nil}
	_ = bufs
	if _, err := c.Run(Collective{Prim: Scatter, Dims: "1",
		Hosts: nil, Dst: Span(4*m, m/32), Level: IM}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Collective{Prim: Scatter, Dims: "1",
		Hosts: nil, Dst: Span(4*m, m/32), Level: IM}); err != nil {
		t.Fatal(err)
	}
	st = c.Snapshot().PlanCache
	if st.TraceHits != 3+1 || st.TraceMisses != 2 {
		t.Fatalf("host-input trace sharing: %+v", st)
	}
}

// TestSubmitRootedResults checks a submitted Gather writes its plan's
// result buffers, and that the plan's next run, submitted or serial,
// overwrites those same buffers in place: a result that must survive
// later runs is the caller's to keep (Hosts).
func TestSubmitRootedResults(t *testing.T) {
	const s = 64
	c := asyncTestComm(t, false)
	d := Collective{Prim: Gather, Dims: "1", Src: Span(0, s), Level: IM}
	fillPEs(c, 0, s, 5)
	f, err := c.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	bufs := f.Plan().Results()
	if len(bufs) != 1 || len(bufs[0]) != 32*s {
		t.Fatalf("gather results shape: %d groups", len(bufs))
	}
	first := append([]byte(nil), bufs[0]...)
	fillPEs(c, 0, s, 6)
	if _, err := f.Plan().Run(); err != nil {
		t.Fatal(err)
	}
	if again := f.Plan().Results(); &again[0][0] != &bufs[0][0] || bytes.Equal(bufs[0], first) {
		t.Fatal("a later run of the plan did not overwrite its result buffers in place")
	}
}

func ExampleFuture_Window() {
	// Windows order by hazards; see TestAsyncHazardOrdering for the
	// assertions. This example exists to anchor the godoc.
	fmt.Println("dependent plans execute in submission order")
	// Output: dependent plans execute in submission order
}
