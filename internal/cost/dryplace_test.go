package cost

import "testing"

func TestPipelinedMakespan(t *testing.T) {
	// A single-lane trace cannot pipeline: depth copies serialize on the
	// lane, so the makespan is depth times the serial time.
	mono := []Segment{{Lane: LaneCPU, Dur: 3}}
	if got := PipelinedMakespan(mono, 4); got != 12 {
		t.Fatalf("single-lane makespan = %v, want 12", got)
	}
	// A perfectly balanced two-lane trace pipelines: copy k's CPU segment
	// overlaps copy k-1's bus segment, so depth copies finish in
	// (depth+1) stage times, not 2*depth.
	duo := []Segment{{Lane: LaneCPU, Dur: 3}, {Lane: LaneBus, Dur: 3}}
	serial := PipelinedMakespan(duo, 1)
	if serial != 6 {
		t.Fatalf("solo placement = %v, want 6 (the meter total)", serial)
	}
	if got := PipelinedMakespan(duo, 4); got != 15 {
		t.Fatalf("pipelined makespan = %v, want 15", got)
	}
	// The pipelined score ranks a lane-balanced trace ahead of a
	// meter-cheaper single-lane one — the inversion the makespan
	// objective exists to catch.
	cheap := []Segment{{Lane: LaneCPU, Dur: 5}}
	if PipelinedMakespan(cheap, 4) <= PipelinedMakespan(duo, 4) {
		t.Fatal("expected the balanced trace to win under pipelining")
	}
	if got := PipelinedMakespan(nil, 4); got != 0 {
		t.Fatalf("empty trace makespan = %v, want 0", got)
	}
}

// A warm PipelinedMakespan scores on a pooled timeline whose lanes kept
// their backing arrays through Reset: it allocates nothing, and a pooled
// timeline's leftovers never leak into the next score.
func TestPipelinedMakespanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	segs := []Segment{{LaneCPU, 1}, {LaneBus, 3}, {LanePE, 2}, {LaneBus, 1}, {LaneNet, 1}, {LaneCPU, 2}}
	want := PipelinedMakespan(segs, 4)
	if a := testing.AllocsPerRun(100, func() {
		if got := PipelinedMakespan(segs, 4); got != want {
			t.Fatalf("a pooled scoring gave %v, the first %v", got, want)
		}
	}); a != 0 {
		t.Errorf("a warm PipelinedMakespan allocates %v objects, want 0", a)
	}
}
