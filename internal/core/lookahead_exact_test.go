package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/elem"
)

// Exactness tests of the lookahead pick and the hazard frontier: each
// replays the parent's rule from a test-local copy and requires the
// product to agree pick for pick and window for window, plus the
// allocation gate that keeps what-if scoring off the heap.

// cloneOracleSched is the lookahead policy as the parent scored it: every
// eligible candidate's makespan from Place on a Clone of the projection.
type cloneOracleSched struct {
	proj   cost.Timeline
	booked int
}

func (s *cloneOracleSched) Window(k int) int { return k }

func (s *cloneOracleSched) Pick(cands []Candidate) int {
	vmin, maxShare := math.Inf(1), 0.0
	for _, cd := range cands {
		vmin = math.Min(vmin, cd.VTime)
		maxShare = math.Max(maxShare, float64(cd.F.cp.tr.total.Total())/cd.Weight)
	}
	best := -1
	var bestFinish cost.Seconds
	for i, ci := range cands {
		if ci.VTime > vmin+lookaheadSlack*maxShare {
			continue
		}
		tl := s.proj.Clone()
		tl.Place(ci.F.notBefore, ci.F.cp.tr.segs)
		for j, cd := range cands {
			if j != i {
				tl.Place(cd.F.notBefore, cd.F.cp.tr.segs)
			}
		}
		if fin := tl.Elapsed(); best < 0 || fin < bestFinish ||
			(fin == bestFinish && edfLess(ci.F, cands[best].F)) {
			best, bestFinish = i, fin
		}
	}
	f := cands[best].F
	s.proj.Place(f.notBefore, f.cp.tr.segs)
	if s.booked++; s.booked%lookaheadCheckpoint == 0 {
		s.proj.SetFloor(s.proj.Elapsed())
	}
	return best
}

// Scoring on the projection between Mark and Rollback serves the plan
// that scoring on a Clone serves, on every one of a few thousand picks
// over random weighted buckets of mixed-lane plans with arrival times
// and deadlines, across many projection checkpoints.
func TestLookaheadPicksMatchCloneOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	picks := 0
	for round := 0; picks < 2500; round++ {
		nq := 2 + rng.Intn(5)
		got := &Comm{sched: &lookaheadSched{}, lookahead: 1 + rng.Intn(4)}
		want := &Comm{sched: &cloneOracleSched{}, lookahead: got.lookahead}
		for i := 0; i < nq; i++ {
			w := float64(1 + rng.Intn(4))
			bareBuckets(got, w)
			bareBuckets(want, w)
		}
		var seq uint64
		var now cost.Seconds
		arrive := func() {
			segs := make([]cost.Segment, 1+rng.Intn(4))
			for i := range segs {
				segs[i] = cost.Segment{Lane: cost.Lane(rng.Intn(int(cost.NumLanes))),
					Dur: cost.Seconds(rng.ExpFloat64()) * 1e-4}
				if rng.Intn(3) == 0 {
					segs[i].Dur = 1e-4 // equal makespans: the edfLess tie-break decides
				}
			}
			seq++
			f := fakeSegFuture(seq, segs)
			now += cost.Seconds(rng.ExpFloat64()) * 5e-5
			f.notBefore = now
			if rng.Intn(2) == 0 {
				f.deadline = now + cost.Seconds(1+rng.Intn(8))*1e-4
			}
			q := rng.Intn(nq)
			got.tenants[q].sq.q = append(got.tenants[q].sq.q, f)
			want.tenants[q].sq.q = append(want.tenants[q].sq.q, f)
		}
		for i := 0; i < 40; i++ {
			arrive()
		}
		for n := 0; n < 400; n++ {
			if n < 340 && rng.Intn(8) != 0 { // keep the backlog, then drain it
				arrive()
			}
			g, w := got.pickLocked(), want.pickLocked()
			if g != w {
				t.Fatalf("round %d pick %d: served seq %d, the clone oracle serves %d", round, n, g.seq, w.seq)
			}
			if g == nil {
				break
			}
			picks++
		}
		if b := got.sched.(*lookaheadSched).booked; b <= lookaheadCheckpoint {
			t.Fatalf("round %d booked %d plans: never crossed a checkpoint", round, b)
		}
	}
}

// What-if scoring allocates nothing: with ten independent candidates per
// pick, a warmed submit+Step under SchedLookahead costs no more
// allocations than under SchedFIFO on the same plans. (With the
// projection cloned per candidate it cost four slices per candidate
// more.) This is the per-PR allocation gate of the lookahead path.
func TestLookaheadStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const nPlans, m = 11, 16 * 8
	allocs := func(pol SchedPolicy) float64 {
		c := withSession(t, tenantTestCommWith(t, 1<<14, Config{Sched: pol}))
		var spare *CompiledPlan
		for i := 0; i < nPlans; i++ {
			cp, err := c.Compile(Collective{Prim: AlltoAll, Dims: "1",
				Src: Span(i*4*m, m), Dst: At(i*4*m + 2*m), Level: CM})
			if err != nil {
				t.Fatal(err)
			}
			if spare != nil {
				spare.Submit()
			}
			spare = cp
		}
		// The queue holds ten plans with disjoint footprints; each round
		// submits the eleventh and serves one, which becomes the spare.
		round := func() {
			spare.Submit()
			c.asyncMu.Lock()
			n := len(c.tenants[0].sq.q)
			c.asyncMu.Unlock()
			if n != nPlans {
				t.Fatalf("%d plans queued, want %d", n, nPlans)
			}
			spare = c.Step().Plan()
		}
		for i := 0; i < 1000; i++ { // past the frontier bound and several checkpoints
			round()
		}
		return testing.AllocsPerRun(200, round)
	}
	fifo, look := allocs(SchedFIFO), allocs(SchedLookahead)
	if look > fifo {
		t.Errorf("submit+Step allocates %v times under lookahead, %v under FIFO", look, fifo)
	}
}

// The hazard frontier keeps what the parent's re-appending scan kept:
// 1300 submissions — conflicting and independent, short and long, so
// entries expire mid-list and the oldest retire by raising the barrier —
// with serial Runs and ExtendElapsed barriers between Steps and a Flush
// mid-sequence, get the windows the parent's rule gives them, and the
// frontier holds as many live entries as the parent's.
func TestFrontierRetiresOldestExactly(t *testing.T) {
	c := newTestComm(t, geo64, []int{8, 8}, Config{Backend: CostBackend()})
	var plans []*CompiledPlan
	off := 0
	for i := 0; i < 12; i++ {
		d := Collective{Prim: AlltoAll, Dims: "10", Src: Span(off, 64), Dst: At(off + 64), Level: CM}
		if i%6 == 0 {
			d = Collective{Prim: AllReduce, Dims: "10", Src: Span(off, 2048), Dst: At(off + 2048),
				Elem: elem.I32, Op: elem.Sum, Level: IM}
		}
		cp, err := c.Compile(d)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, cp)
		off = d.Dst.Off + d.Src.Bytes
	}
	if c.Elapsed() != 0 {
		t.Fatal("compiling placed work on the timeline")
	}

	// The parent's execSubmitted, placement half.
	type placed struct {
		cp  *CompiledPlan
		end cost.Seconds
	}
	var (
		tl       cost.Timeline
		frontier []placed
		base     cost.Seconds
		retired  int // entries dropped as the oldest of a full frontier
		expired  int // entries dropped from behind a kept one: the scan compacts
	)
	parentWindow := func(cp *CompiledPlan, notBefore cost.Seconds) (start, end cost.Seconds) {
		earliest := base
		if notBefore > earliest {
			earliest = notBefore
		}
		live := frontier[:0]
		for _, pl := range frontier {
			if pl.end <= base {
				if len(live) > 0 {
					expired++
				}
				continue
			}
			live = append(live, pl)
			if pl.end > earliest && cp.conflicts(pl.cp) {
				earliest = pl.end
			}
		}
		if len(live) > maxFrontier {
			drop := len(live) - maxFrontier
			for _, pl := range live[:drop] {
				if pl.end > base {
					base = pl.end
				}
			}
			tl.SetFloor(base)
			live = append(live[:0], live[drop:]...)
			if earliest < base {
				earliest = base
			}
			retired += drop
		}
		frontier = live
		start, end = tl.Place(earliest, cp.tr.segs)
		frontier = append(frontier, placed{cp: cp, end: end})
		return start, end
	}

	// The parent's Flush: a barrier at the elapsed time and an empty
	// frontier. A serial Run flushes, then runs as a barrier.
	parentFlush := func() {
		base = tl.Serial(nil)
		frontier = nil
	}
	parentLive := func() int {
		n := 0
		for _, pl := range frontier {
			if pl.end > base {
				n++
			}
		}
		return n
	}
	live := func() (ring, ends int) {
		c.execMu.Lock()
		defer c.execMu.Unlock()
		f := c.front
		for j := 0; j < f.n; j++ {
			if f.at(j).end > c.asyncBase {
				ring++
			}
		}
		for _, e := range f.ends {
			if e > c.asyncBase {
				ends++
			}
		}
		if !slices.IsSorted(f.ends) {
			t.Fatalf("ends out of order: %v", f.ends)
		}
		return ring, ends
	}

	rng := rand.New(rand.NewSource(7))
	var ext cost.Breakdown
	for i := 0; i < 1300; i++ {
		switch {
		case i == 650:
			c.Flush()
			parentFlush()
		case i < 200 && i%40 == 20:
			// Serial Runs raise the barrier without retiring anything.
			cp := plans[rng.Intn(len(plans))]
			bd, err := cp.Run()
			if err != nil {
				t.Fatal(err)
			}
			parentFlush()
			base = tl.Serial(cp.tr.segs)
			ext = bd
		case i >= 650 && i < 900 && i%50 == 25:
			// ExtendElapsed raises it past every entry without flushing.
			c.ExtendElapsed(ext)
			base = tl.Serial(ext.AppendSegments(nil))
		}
		cp := plans[rng.Intn(len(plans))]
		// One arrival in eight is far ahead of the makespan: the plans
		// after it backfill the idle stretch and finish before it does.
		// One in eight falls inside it, where newer placements may end
		// before the arrival and older conflicting ones after it.
		var arrival cost.Seconds
		switch rng.Intn(8) {
		case 0:
			arrival = c.Elapsed() + cost.Seconds(rng.Float64())*2e-3
		case 1:
			arrival = c.Elapsed() * cost.Seconds(rng.Float64())
		}
		f := cp.SubmitOpts(SubmitOptions{NotBefore: arrival})
		if c.Step() != f {
			t.Fatalf("submission %d: Step served another plan", i)
		}
		ws, we := parentWindow(cp, arrival)
		if s, e := f.Window(); s != ws || e != we {
			t.Fatalf("submission %d: window [%v,%v), the parent's rule gives [%v,%v)", i, s, e, ws, we)
		}
		if r, e := live(); r != parentLive() || e != r {
			t.Fatalf("submission %d: %d live entries in the ring, %d live ends, the parent's %d", i, r, e, parentLive())
		}
	}
	if retired == 0 || expired == 0 {
		t.Errorf("retired %d entries, %d expired mid-list", retired, expired)
	}
}
