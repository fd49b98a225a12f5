package cost

import "sync"

// Dry placement: scoring a plan's charge trace by how it would behave
// under overlapped execution, without touching any live timeline. A
// plan's own segments always chain serially (Place walks them with a
// moving cursor), so placing ONE copy of a trace on an empty Timeline
// elapses exactly the meter total — no information beyond the sum. What
// distinguishes two candidate lowerings of the same collective is how
// they share lanes with concurrent work: a bus-heavy trace serializes
// behind other bus-heavy traces while its CPU gaps go to waste, and a
// trace that spreads the same work across lanes pipelines tighter. The
// pipelined dry placement below models exactly the async/serving regime
// (async.go): several independent instances of the same plan in flight,
// each backfilling the lane gaps the others leave.

// dryTimelines holds PipelinedMakespan's scratch timelines. Reset keeps
// their lanes' backing arrays, so a warm scoring allocates nothing.
var dryTimelines = sync.Pool{New: func() any { return new(Timeline) }}

// PipelinedMakespan places depth independent copies of one plan's lane
// segments on a scratch Timeline from a pool — each copy free to start at
// time zero, so copies backfill each other's idle lanes exactly as
// hazard-free submissions do on the live timeline — and returns the
// elapsed time of the whole batch. For a single-lane trace this is depth
// x the lane total (full serialization); for a lane-balanced trace it
// approaches max over lanes of depth x the lane's share. Lower is better;
// the value is comparable only between traces scored at the same depth.
func PipelinedMakespan(segs []Segment, depth int) Seconds {
	tl := dryTimelines.Get().(*Timeline)
	for i := 0; i < depth; i++ {
		tl.Place(0, segs)
	}
	elapsed := tl.Elapsed()
	tl.Reset()
	dryTimelines.Put(tl)
	return elapsed
}
