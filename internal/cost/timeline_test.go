package cost

import (
	"math/rand"
	"slices"
	"testing"
)

func TestLaneOf(t *testing.T) {
	want := map[Category]Lane{
		DomainTransfer: LaneCPU,
		HostMod:        LaneCPU,
		HostMem:        LaneCPU,
		Other:          LaneCPU,
		PEMem:          LaneBus,
		Network:        LaneNet,
		PEMod:          LanePE,
		Kernel:         LanePE,
	}
	for _, c := range Categories() {
		if got := LaneOf(c); got != want[c] {
			t.Errorf("LaneOf(%v) = %v, want %v", c, got, want[c])
		}
	}
}

// A Recorder's segments and Breakdown.AppendSegments coalesce
// consecutive same-lane charges, drop non-positive ones, and keep what
// the segments already hold.
func TestAppendSegmentsCoalesces(t *testing.T) {
	adds := []TraceEntry{
		{PEMod, 1, 1}, {Other, 1, 2}, {HostMod, 1, 3}, {PEMem, 1, 4}, {Network, 1, 5}, {Kernel, 1, 0}, {Kernel, 1, 6},
	}
	held := Segment{LaneNet, 9}
	r := Recorder{Segs: []Segment{held}}
	for _, e := range adds {
		r.Record(e.Cat, e.T)
	}
	want := []Segment{held, {LanePE, 1}, {LaneCPU, 5}, {LaneBus, 4}, {LaneNet, 5}, {LanePE, 6}}
	if !slices.Equal(r.Segs, want) {
		t.Fatalf("Recorder.Segs = %v, want %v", r.Segs, want)
	}

	var b Breakdown
	for _, e := range adds {
		b.byCat[e.Cat] += e.T
	}
	// Category order: DomainTransfer..HostMem are one CPU segment, Other
	// (last) another, after the bus, PE and network lanes.
	want = []Segment{held, {LaneCPU, 3}, {LaneBus, 4}, {LanePE, 7}, {LaneNet, 5}, {LaneCPU, 2}}
	if segs := b.AppendSegments([]Segment{held}); !slices.Equal(segs, want) {
		t.Fatalf("Breakdown.AppendSegments = %v, want %v", segs, want)
	}
	if segs := (Breakdown{}).AppendSegments(nil); segs != nil {
		t.Fatalf("an empty breakdown appended %v", segs)
	}
}

// Two independent plans of shape [PE p][Bus b][PE p] overlap: the second
// plan's leading PE segment backfills the gap under the first plan's bus
// epoch.
func TestTimelineOverlapsIndependentPlans(t *testing.T) {
	plan := []Segment{{LanePE, 1}, {LaneBus, 4}, {LanePE, 1}}
	var tl Timeline
	s1, f1 := tl.Place(0, plan)
	if s1 != 0 || f1 != 6 {
		t.Fatalf("first plan: [%v,%v), want [0,6)", s1, f1)
	}
	s2, f2 := tl.Place(0, plan)
	// PE lead-in backfills at t=1, bus queues behind the first epoch.
	if s2 != 1 {
		t.Errorf("second plan start = %v, want 1 (backfilled under first bus epoch)", s2)
	}
	if f2 >= 12 {
		t.Errorf("second plan finish = %v, want < 12 (serial)", f2)
	}
	if tl.Elapsed() != f2 {
		t.Errorf("Elapsed = %v, want %v", tl.Elapsed(), f2)
	}
}

func TestTimelineSerialIsSum(t *testing.T) {
	plan := []Segment{{LanePE, 1}, {LaneBus, 4}, {LaneCPU, 2}}
	var tl Timeline
	if got := tl.Serial(plan); got != 7 {
		t.Fatalf("first serial run ends at %v, want 7", got)
	}
	tl.Serial(plan)
	if got, want := tl.Elapsed(), Seconds(14); got != want {
		t.Fatalf("serial elapsed = %v, want %v", got, want)
	}
}

// Serial is Place(Elapsed()) then SetFloor(Elapsed()) without the
// bookings the floor would prune: on random timelines built from async
// placements (backfilled gaps, zero-length segments, floors below and
// above the makespan), Serial on the timeline and the two calls on a
// Clone leave the same makespan, lane totals, floor and (empty) lists, bit
// for bit, and the next placement lands in the same place on both.
func TestSerialMatchesPlaceThenFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	randSegs := func() []Segment {
		segs := make([]Segment, rng.Intn(5))
		for i := range segs {
			segs[i] = Segment{Lane(rng.Intn(int(NumLanes))), Seconds(rng.ExpFloat64()) * 1e-3}
			if rng.Intn(6) == 0 {
				segs[i].Dur = 0
			}
		}
		return segs
	}
	for run := 0; run < 200; run++ {
		var tl Timeline
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				tl.Place(tl.floor+(tl.end-tl.floor)*Seconds(rng.Float64()), randSegs())
			case op == 6:
				tl.SetFloor(tl.end * Seconds(rng.Float64()*1.2))
			default:
				segs := randSegs()
				ref := tl.Clone()
				ref.Place(ref.Elapsed(), segs)
				ref.SetFloor(ref.Elapsed())
				if got := tl.Serial(segs); got != ref.Elapsed() || tl.Elapsed() != ref.Elapsed() {
					t.Fatalf("run %d step %d: Serial = %v (Elapsed %v), Place then SetFloor end at %v",
						run, step, got, tl.Elapsed(), ref.Elapsed())
				}
				for l := Lane(0); l < NumLanes; l++ {
					if tl.LaneBusy(l) != ref.LaneBusy(l) {
						t.Fatalf("run %d step %d: lane %v busy %v, want %v", run, step, l, tl.LaneBusy(l), ref.LaneBusy(l))
					}
				}
				if err := sameTimeline(&tl, &ref); err != nil {
					t.Fatalf("run %d step %d: %v", run, step, err)
				}
				next, earliest := randSegs(), tl.end*Seconds(rng.Float64()*1.1)
				s, f := tl.Place(earliest, next)
				if rs, rf := ref.Place(earliest, next); s != rs || f != rf {
					t.Fatalf("run %d step %d: next placement [%v,%v), reference [%v,%v)", run, step, s, f, rs, rf)
				}
			}
			if err := tl.Check(); err != nil {
				t.Fatalf("run %d step %d: %v", run, step, err)
			}
		}
	}
	var tl Timeline
	tl.Mark()
	if !panics(func() { tl.Serial(nil) }) {
		t.Error("Serial inside a mark did not panic")
	}
}

// Async placement never exceeds serial placement, and a later earliest
// bound is respected.
func TestTimelinePlaceNeverExceedsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var plans [][]Segment
		var serialTotal Seconds
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			var p []Segment
			for s := 0; s < 1+rng.Intn(5); s++ {
				seg := Segment{Lane(rng.Intn(int(NumLanes))), Seconds(rng.Float64() * 3)}
				p = append(p, seg)
				serialTotal += seg.Dur
			}
			plans = append(plans, p)
		}
		var tl Timeline
		for _, p := range plans {
			if _, f := tl.Place(0, p); f > serialTotal+1e-12 {
				t.Fatalf("trial %d: finish %v exceeds serial total %v", trial, f, serialTotal)
			}
		}
		if tl.Elapsed() > serialTotal+1e-12 {
			t.Fatalf("trial %d: makespan %v exceeds serial total %v", trial, tl.Elapsed(), serialTotal)
		}
	}
}

// Clone must deep-copy the per-lane interval sets: placements on the
// clone (whose insert-shift mutates the backing arrays) must not leak
// into the original, and vice versa — the contract the lookahead
// scheduler's scoring relies on.
func TestTimelineCloneIsIndependent(t *testing.T) {
	var tl Timeline
	tl.Place(0, []Segment{{LanePE, 1}, {LaneBus, 4}, {LanePE, 1}})
	before := tl.Elapsed()

	cl := tl.Clone()
	if cl.Elapsed() != before {
		t.Fatalf("clone elapsed %v, want %v", cl.Elapsed(), before)
	}
	// Backfill a gap on the clone: insert-shifts the busy sets.
	cl.Place(0, []Segment{{LanePE, 1}, {LaneBus, 4}, {LanePE, 1}})
	cl.Place(0, []Segment{{LaneCPU, 2}, {LaneBus, 1}})
	if tl.Elapsed() != before {
		t.Errorf("placing on the clone moved the original: %v, want %v", tl.Elapsed(), before)
	}
	after := cl.Elapsed()
	s, f := tl.Place(0, []Segment{{LaneCPU, 1}, {LaneBus, 2}})
	if cl.Elapsed() != after {
		t.Errorf("placing on the original moved the clone: %v, want %v", cl.Elapsed(), after)
	}
	// The original still backfills its own gaps as if never cloned: the
	// CPU lead-in lands at t=0 and the bus segment queues behind the
	// original's lone bus epoch [1,5).
	if s != 0 || f != 7 {
		t.Errorf("original placement [%v,%v), want [0,7)", s, f)
	}
}

func TestTimelineEarliestBound(t *testing.T) {
	var tl Timeline
	tl.Place(0, []Segment{{LaneBus, 5}})
	s, _ := tl.Place(7, []Segment{{LanePE, 1}})
	if s != 7 {
		t.Fatalf("start = %v, want 7 (earliest bound)", s)
	}
	tl.Reset()
	if tl.Elapsed() != 0 {
		t.Fatalf("Reset did not clear the timeline")
	}
}
