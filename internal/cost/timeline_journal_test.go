package cost

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Tests of the rollback journal (Mark/Rollback), of the head-indexed
// floor pruning and of place's gallop-and-bisect search: each must leave
// every placement where a plain eager-pruning, linear-scan timeline
// (refTimeline) puts it, bit for bit.

// refTimeline is the reference timeline, written for clarity: SetFloor
// prunes eagerly by copying each lane's survivors to its front, place
// scans from index 0, and Serial is Place(Elapsed) then SetFloor(Elapsed).
type refTimeline struct {
	busy  [NumLanes][]interval
	total [NumLanes]Seconds
	end   Seconds
	floor Seconds
}

func (r *refTimeline) Place(earliest Seconds, segs []Segment) (start, finish Seconds) {
	cursor := max(earliest, r.floor)
	start = cursor
	first := true
	for _, s := range segs {
		if s.Dur <= 0 {
			continue
		}
		at := r.placeLinear(s.Lane, cursor, s.Dur)
		if first {
			start = at
			first = false
		}
		cursor = at + s.Dur
	}
	r.end = max(r.end, cursor)
	return start, cursor
}

// placeLinear skips the intervals ending at or before the cursor one by
// one from index 0, then books the first gap that fits.
func (r *refTimeline) placeLinear(lane Lane, from, dur Seconds) Seconds {
	ivs := r.busy[lane]
	pos := from
	i := 0
	for ; i < len(ivs); i++ {
		if ivs[i].end <= pos {
			continue
		}
		if pos+dur <= ivs[i].start {
			break
		}
		pos = ivs[i].end
	}
	ivs = append(ivs, interval{})
	copy(ivs[i+1:], ivs[i:])
	ivs[i] = interval{pos, pos + dur}
	r.busy[lane] = ivs
	r.total[lane] += dur
	return pos
}

func (r *refTimeline) SetFloor(f Seconds) {
	if f <= r.floor {
		return
	}
	r.floor = f
	for l := range r.busy {
		ivs := r.busy[l]
		i := 0
		for i < len(ivs) && ivs[i].end <= f {
			i++
		}
		if i > 0 {
			r.busy[l] = append(ivs[:0], ivs[i:]...)
		}
	}
}

func (r *refTimeline) Serial(segs []Segment) Seconds {
	r.Place(r.end, segs)
	r.SetFloor(r.end)
	return r.end
}

func (r *refTimeline) clone() refTimeline {
	out := *r
	for l := range out.busy {
		out.busy[l] = append([]interval(nil), r.busy[l]...)
	}
	return out
}

// view is r as a Timeline with no dead prefix, for sameTimeline.
func (r *refTimeline) view() *Timeline {
	return &Timeline{busy: r.busy, total: r.total, end: r.end, floor: r.floor}
}

// sameTimeline reports the first difference between two timelines'
// observable state: live lists, totals, makespan and floor. A dead prefix
// is invisible to it.
func sameTimeline(a, b *Timeline) error {
	if a.total != b.total || a.end != b.end || a.floor != b.floor {
		return fmt.Errorf("totals/end/floor %v %v %v, want %v %v %v", a.total, a.end, a.floor, b.total, b.end, b.floor)
	}
	for l := Lane(0); l < NumLanes; l++ {
		if av, bv := a.live(l), b.live(l); !slices.Equal(av, bv) {
			return fmt.Errorf("lane %v holds %v, want %v", l, av, bv)
		}
	}
	return nil
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// replayJournalOps interprets data as a sequence of Place / SetFloor /
// Mark / Rollback / Serial / Reset operations on one timeline and checks
// it against a refTimeline that sees every operation: at Mark the
// reference's state is saved, and Rollback restores it, so inside a mark
// the timeline must place what-ifs where the reference does, and after
// Rollback it must equal the reference as the mark saw it. After every
// operation the timeline passes Check, its floor has not fallen (but for
// Reset), its live lists equal the reference's, and its Clone shows the
// live lists and no dead prefix. Misuse (SetFloor, Serial, Reset or Mark
// inside a mark, Rollback outside one) must panic and change nothing.
func replayJournalOps(t *testing.T, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	randSegs := func() []Segment { // 1-3 segments, some of zero length
		segs := make([]Segment, 1+next()%3)
		for i := range segs {
			segs[i] = Segment{Lane(next() % byte(NumLanes)), Seconds(next()%17) / 16}
		}
		return segs
	}
	var tl Timeline
	var ref, saved refTimeline
	marking := false
	var floor Seconds // before the operation being verified
	verify := func(what string) {
		t.Helper()
		if err := tl.Check(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		if tl.floor < floor {
			t.Fatalf("after %s: floor fell from %v to %v", what, floor, tl.floor)
		}
		floor = tl.floor
		if err := sameTimeline(&tl, ref.view()); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		cl := tl.Clone()
		if err := sameTimeline(&cl, &tl); err != nil || cl.head != [NumLanes]int{} {
			t.Fatalf("after %s: Clone %v, head %v", what, err, cl.head)
		}
	}
	// misuse asserts that op panics inside the mark.
	misuse := func(name string, op func()) {
		t.Helper()
		if !panics(op) {
			t.Fatalf("%s inside a mark did not panic", name)
		}
	}
	for len(data) > 0 {
		switch op := next() % 16; op {
		default: // Place, some starting below the floor
			segs := randSegs()
			earliest := tl.floor + (Seconds(next())-32)/8
			s, f := tl.Place(earliest, segs)
			if rs, rf := ref.Place(earliest, segs); s != rs || f != rf {
				t.Fatalf("Place(%v, %v) = [%v,%v), reference [%v,%v)", earliest, segs, s, f, rs, rf)
			}
			verify("Place")
		case 10, 11:
			f := tl.floor + (Seconds(next())-16)/8
			if marking {
				misuse("SetFloor", func() { tl.SetFloor(f) })
			} else {
				tl.SetFloor(f)
				ref.SetFloor(f)
			}
			verify("SetFloor")
		case 12:
			if marking {
				misuse("Mark", tl.Mark)
			} else {
				saved = ref.clone()
				tl.Mark()
				marking = true
			}
			verify("Mark")
		case 13:
			if marking {
				tl.Rollback()
				ref = saved
				marking = false
			} else if !panics(tl.Rollback) {
				t.Fatal("Rollback without Mark did not panic")
			}
			verify("Rollback")
		case 14:
			segs := randSegs()
			if marking {
				misuse("Serial", func() { tl.Serial(segs) })
			} else if got, want := tl.Serial(segs), ref.Serial(segs); got != want {
				t.Fatalf("Serial(%v) = %v, reference %v", segs, got, want)
			}
			verify("Serial")
		case 15:
			if marking {
				misuse("Reset", tl.Reset)
			} else {
				tl.Reset()
				ref = refTimeline{}
				floor = 0
			}
			verify("Reset")
		}
	}
	if marking {
		tl.Rollback()
		ref = saved
		marking = false
		verify("final Rollback")
	}
}

// A rolled-back timeline is the timeline the mark saw: lists, totals,
// makespan, and where the next plan lands. Random operation strings
// drive the same interpreter the fuzz target uses; the fixed cases pin
// the misuse panics and the journal's no-allocation steady state.
func TestTimelineRollbackRestoresExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for n := 0; n < 300; n++ {
		data := make([]byte, 16+rng.Intn(400))
		rng.Read(data)
		replayJournalOps(t, data)
	}

	var tl Timeline
	if !panics(tl.Rollback) {
		t.Error("Rollback on a fresh timeline did not panic")
	}
	tl.Place(0, []Segment{{LanePE, 1}, {LaneBus, 4}, {LanePE, 1}})
	want := tl.Clone()
	tl.Mark()
	for _, misuse := range []func(){tl.Mark, tl.Reset, func() { tl.SetFloor(100) }, func() { tl.SetFloor(-1) }} {
		if !panics(misuse) {
			t.Error("Mark, Reset or SetFloor inside a mark did not panic")
		}
	}
	// Backfills the PE gap under the bus epoch, extends the makespan and
	// adds to two totals — all of which the rollback takes back.
	if s, f := tl.Place(0, []Segment{{LanePE, 3}, {LaneBus, 2}}); s != 1 || f != 7 {
		t.Errorf("marked placement [%v,%v), want [1,7)", s, f)
	}
	tl.Rollback()
	if err := sameTimeline(&tl, &want); err != nil {
		t.Errorf("after Rollback: %v", err)
	}
	if cl := tl.Clone(); cl.marking || cl.journal != nil {
		t.Error("Clone carries the journal")
	}
	tl.Reset() // legal again once rolled back

	// Steady state: the journal and the lanes keep their backing arrays.
	segs := []Segment{{LaneCPU, 1}, {LaneBus, 2}, {LanePE, 1}, {LaneNet, 1}}
	round := func() {
		tl.Mark()
		for i := 0; i < 8; i++ {
			tl.Place(Seconds(i), segs)
		}
		tl.Rollback()
	}
	round()
	if a := testing.AllocsPerRun(50, round); a != 0 {
		t.Errorf("a warmed Mark/Place/Rollback round allocates %v times, want 0", a)
	}

	// A compaction between two bookings of one mark: the bus lane's array
	// is full (cap 8) with a dead prefix of half of it, so the second
	// marked place slides the live list down and resets head. Rollback
	// must still remove exactly the two bookings.
	tl = Timeline{}
	for i := 0; i < 7; i++ {
		tl.Place(Seconds(2*i), []Segment{{LaneBus, 1}}) // [0,1) [2,3) ... [12,13)
	}
	tl.SetFloor(7.5)
	if h, ivs := tl.head[LaneBus], tl.busy[LaneBus]; h != 4 || len(ivs) != 7 || cap(ivs) != 8 {
		t.Fatalf("bus lane head %d len %d cap %d, want 4 7 8", h, len(ivs), cap(ivs))
	}
	want = tl.Clone()
	tl.Mark()
	tl.Place(0, []Segment{{LaneBus, 0.5}}) // [7.5,8): fills the array
	tl.Place(9, []Segment{{LaneBus, 1}})   // [9,10): compacts first
	if h := tl.head[LaneBus]; h != 0 {
		t.Fatalf("bus lane head %d after the array filled, want 0 (compacted)", h)
	}
	if err := tl.Check(); err != nil {
		t.Fatalf("after compaction: %v", err)
	}
	tl.Rollback()
	if err := sameTimeline(&tl, &want); err != nil {
		t.Fatalf("after a Rollback across a compaction: %v", err)
	}
	if err := tl.Check(); err != nil {
		t.Fatalf("after a Rollback across a compaction: %v", err)
	}
	segs = []Segment{{LaneBus, 1}, {LanePE, 1}}
	if s, f := tl.Place(0, segs); s != 9 || f != 11 {
		t.Errorf("placement after the rollback [%v,%v), want [9,11)", s, f)
	}
}

// FuzzTimelineRollback drives replayJournalOps with arbitrary bytes, cut
// to a length the per-step whole-timeline checks stay quick at.
func FuzzTimelineRollback(f *testing.F) {
	f.Add([]byte{0, 2, 1, 8, 2, 16, 0, 4, 40, 6, 1, 0, 1, 3, 32, 0, 0, 2, 9, 30, 7, 2, 0, 3, 5, 33})
	f.Add([]byte{6, 6, 5, 99, 0, 0, 1, 1, 0, 7, 7, 5, 200, 6, 3, 1, 2, 16, 3, 16, 64, 7})
	f.Add([]byte{0, 1, 2, 3, 14, 0, 1, 8, 12, 0, 2, 1, 4, 40, 11, 30, 13, 15, 0, 0, 1, 2, 9, 14, 1, 3, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<11 {
			data = data[:1<<11]
		}
		replayJournalOps(t, data)
	})
}

// Galloping from the tail and bisecting to the first interval that ends
// after the cursor books every segment where the reference's linear scan
// did, on long lists with arbitrary (non-dyadic) durations, backfilled
// gaps and floor pruning.
func TestTimelinePlaceBisectMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 40; n++ {
		var bis Timeline
		var lin refTimeline
		for step := 0; step < 600; step++ {
			if rng.Intn(50) == 0 {
				f := bis.end * Seconds(rng.Float64())
				bis.SetFloor(f)
				lin.SetFloor(f)
			}
			from := bis.floor + (bis.end-bis.floor)*Seconds(rng.Float64()*1.1)
			lane, dur := Lane(rng.Intn(int(NumLanes))), Seconds(rng.ExpFloat64())*1e-3
			if rng.Intn(4) == 0 {
				dur = Seconds(1+rng.Intn(4)) / 4 // exact fits and abutting intervals
				from = bis.floor + Seconds(rng.Intn(int((bis.end-bis.floor)*4)+1))/4
			}
			got, want := bis.place(lane, from, dur), lin.placeLinear(lane, from, dur)
			if got+dur > bis.end {
				bis.end, lin.end = got+dur, got+dur
			}
			if got != want {
				t.Fatalf("run %d step %d: place(%v, %v, %v) = %v, linear scan %v", n, step, lane, from, dur, got, want)
			}
			if err := bis.Check(); err != nil {
				t.Fatalf("run %d step %d: %v", n, step, err)
			}
		}
		if err := sameTimeline(&bis, lin.view()); err != nil {
			t.Fatalf("run %d: %v", n, err)
		}
	}
}

// Floor pruning is amortized and reclaims what it drops: a warmed
// timeline running serving-like rounds — place a plan a little behind
// the frontier, raise the floor to trail it — allocates nothing over
// 10^5 rounds, and no lane's array grows past twice its peak live count.
func TestTimelinePruningStaysBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	segs := []Segment{{LaneCPU, 1}, {LaneBus, 3}, {LanePE, 2}, {LaneNet, 1}}
	var tl Timeline
	var peak [NumLanes]int
	booked := 0
	rounds := func(n int) {
		for k := 0; k < n; k++ {
			for i := range segs {
				segs[i].Dur = Seconds(1 + rng.Intn(4))
			}
			tl.Place(tl.end-Seconds(rng.Intn(24)), segs)
			booked++
			for l := range peak {
				peak[l] = max(peak[l], len(tl.live(Lane(l))))
			}
			tl.SetFloor(tl.end - 48)
		}
	}
	rounds(10_000)
	if a := testing.AllocsPerRun(1, func() { rounds(100_000) }); a != 0 {
		t.Errorf("10^5 warmed Place+SetFloor rounds allocate %v times, want 0", a)
	}
	if err := tl.Check(); err != nil {
		t.Fatal(err)
	}
	for l := Lane(0); l < NumLanes; l++ {
		if c := cap(tl.busy[l]); c > 2*peak[l] || peak[l] == 0 {
			t.Errorf("lane %v holds cap %d after %d bookings, peak live count %d: want cap ≤ 2x peak", l, c, booked, peak[l])
		}
	}
}
