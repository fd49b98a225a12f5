package cost

import (
	"fmt"
	"math/rand"
	"testing"
)

// Tests of the rollback journal (Mark/Rollback) and of place's
// bisection: both must leave every placement where the parent's
// Clone-and-scan code put it, bit for bit.

// check verifies the structural invariants of the timeline: every lane
// sorted, its intervals disjoint and non-empty, total[l] at least the
// live intervals' sum (SetFloor prunes intervals, never totals), end at
// least every interval end, and the floor not below prevFloor.
func (tl *Timeline) check(prevFloor Seconds) error {
	if tl.floor < prevFloor {
		return fmt.Errorf("floor fell from %v to %v", prevFloor, tl.floor)
	}
	for l, ivs := range tl.busy {
		var sum Seconds
		for i, iv := range ivs {
			if !(iv.start < iv.end) {
				return fmt.Errorf("lane %v interval %d [%v,%v) is empty", Lane(l), i, iv.start, iv.end)
			}
			if i > 0 && iv.start < ivs[i-1].end {
				return fmt.Errorf("lane %v interval %d [%v,%v) overlaps or precedes [%v,%v)",
					Lane(l), i, iv.start, iv.end, ivs[i-1].start, ivs[i-1].end)
			}
			if iv.end > tl.end {
				return fmt.Errorf("lane %v interval %d ends at %v, past the makespan %v", Lane(l), i, iv.end, tl.end)
			}
			sum += iv.end - iv.start
		}
		// (pos+dur)-pos rounds, so the two sums agree only to rounding.
		if tl.total[l] < sum*(1-1e-12) {
			return fmt.Errorf("lane %v total %v below its live intervals' sum %v", Lane(l), tl.total[l], sum)
		}
	}
	return nil
}

// sameTimeline reports the first difference between two timelines'
// observable state: busy lists, totals, makespan and floor.
func sameTimeline(a, b *Timeline) error {
	if a.total != b.total || a.end != b.end || a.floor != b.floor {
		return fmt.Errorf("totals/end/floor %v %v %v, want %v %v %v", a.total, a.end, a.floor, b.total, b.end, b.floor)
	}
	for l := range a.busy {
		if len(a.busy[l]) != len(b.busy[l]) {
			return fmt.Errorf("lane %v has %d intervals, want %d", Lane(l), len(a.busy[l]), len(b.busy[l]))
		}
		for i, iv := range a.busy[l] {
			if iv != b.busy[l][i] {
				return fmt.Errorf("lane %v interval %d is %v, want %v", Lane(l), i, iv, b.busy[l][i])
			}
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
// Mark / Rollback operations on one timeline and checks it against a
// reference that never sees a mark: outside a mark every operation goes
// to both and must agree; at Mark the reference is re-taken as a Clone
// and then left alone, so after Rollback the timeline must equal it and
// place the next plan exactly where it does. Misuse (SetFloor or Mark
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
	var tl, ref Timeline
	marking := false
	var floor Seconds // before the operation being verified
	verify := func(what string) {
		t.Helper()
		if err := tl.check(floor); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		floor = tl.floor
		if !marking {
			if err := sameTimeline(&tl, &ref); err != nil {
				t.Fatalf("after %s: %v", what, err)
			}
		}
	}
	for len(data) > 0 {
		switch op := next() % 8; op {
		default: // Place: 1-3 segments, some of zero length, some starting below the floor
			segs := make([]Segment, 1+next()%3)
			for i := range segs {
				segs[i] = Segment{Lane(next() % byte(NumLanes)), Seconds(next()%17) / 16}
			}
			earliest := tl.floor + (Seconds(next())-32)/8
			s, f := tl.Place(earliest, segs)
			if !marking {
				if rs, rf := ref.Place(earliest, segs); s != rs || f != rf {
					t.Fatalf("Place(%v, %v) = [%v,%v), reference [%v,%v)", earliest, segs, s, f, rs, rf)
				}
			}
			verify("Place")
		case 5:
			f := tl.floor + (Seconds(next())-16)/8
			if marking {
				if !panics(func() { tl.SetFloor(f) }) {
					t.Fatal("SetFloor inside a mark did not panic")
				}
			} else {
				tl.SetFloor(f)
				ref.SetFloor(f)
			}
			verify("SetFloor")
		case 6:
			if marking {
				if !panics(tl.Mark) {
					t.Fatal("second Mark did not panic")
				}
			} else {
				ref = tl.Clone()
				tl.Mark()
				marking = true
			}
			verify("Mark")
		case 7:
			if marking {
				tl.Rollback()
				marking = false
			} else if !panics(tl.Rollback) {
				t.Fatal("Rollback without Mark did not panic")
			}
			verify("Rollback")
		}
	}
	if marking {
		tl.Rollback()
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
}

// FuzzTimelineRollback drives replayJournalOps with arbitrary bytes, cut
// to a length the per-step whole-timeline checks stay quick at.
func FuzzTimelineRollback(f *testing.F) {
	f.Add([]byte{0, 2, 1, 8, 2, 16, 0, 4, 40, 6, 1, 0, 1, 3, 32, 0, 0, 2, 9, 30, 7, 2, 0, 3, 5, 33})
	f.Add([]byte{6, 6, 5, 99, 0, 0, 1, 1, 0, 7, 7, 5, 200, 6, 3, 1, 2, 16, 3, 16, 64, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<11 {
			data = data[:1<<11]
		}
		replayJournalOps(t, data)
	})
}

// placeLinear is the parent's place: a scan from index 0 that skips the
// intervals ending at or before the cursor one by one.
func (tl *Timeline) placeLinear(lane Lane, from, dur Seconds) Seconds {
	ivs := tl.busy[lane]
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
	tl.busy[lane] = ivs
	tl.total[lane] += dur
	return pos
}

// Bisecting to the first interval that ends after the cursor books
// every segment where the linear scan did, on long lists with arbitrary
// (non-dyadic) durations, backfilled gaps and floor pruning.
func TestTimelinePlaceBisectMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 40; n++ {
		var bis, lin Timeline
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
			if err := bis.check(0); err != nil {
				t.Fatalf("run %d step %d: %v", n, step, err)
			}
		}
		if err := sameTimeline(&bis, &lin); err != nil {
			t.Fatalf("run %d: %v", n, err)
		}
	}
}
