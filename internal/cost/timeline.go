package cost

import "fmt"

// This file provides overlap-aware elapsed-time accounting. The Meter
// (cost.go) sums *work*: every charge adds to its category no matter when
// it happens, which models fully serialized execution. Asynchronous plan
// execution (core/async.go) needs a second notion — *elapsed* simulated
// time when independent collectives overlap — which the Timeline provides:
// work is placed on the lane (hardware resource) that performs it, lanes
// run in parallel, and the elapsed time is the makespan.
//
// Four lanes model the independently-clocked resources of the
// PIM-DIMM system:
//
//   - LaneCPU: the host core doing domain transfers, modulation,
//     reductions and staging-buffer traffic;
//   - LaneBus: the external memory bus moving bursts between host and
//     DIMMs;
//   - LanePE: the in-DIMM processing elements running reorder kernels and
//     application kernels;
//   - LaneNet: the host's NIC(s) moving inter-host rounds of a cluster
//     collective. A cluster plan runs as a barrier on every host, so the
//     lane books the network's busy time, not an overlap.
//
// A serial execution occupies its lanes back-to-back; two independent
// plans may interleave, e.g. plan B's PE-side reordering runs while plan
// A's bus epoch is in flight — the overlap PID-Comm's async execution is
// after. The total work per lane is unchanged; only the makespan shrinks.

// Lane identifies one of the overlappable hardware resources of the
// simulated machine.
type Lane int

const (
	// LaneCPU is host-core compute: domain transfer, modulation,
	// reduction, staging-memory traffic, launch/sync overhead.
	LaneCPU Lane = iota
	// LaneBus is the external bus between host and DIMMs (and the
	// network link of the multi-host study).
	LaneBus
	// LanePE is the in-DIMM PE array: reorder kernels and application
	// kernels.
	LanePE
	// LaneNet is the inter-host network interface of the cluster layer.
	LaneNet

	// NumLanes is the lane count.
	NumLanes
)

// String returns a short lane label.
func (l Lane) String() string {
	switch l {
	case LaneCPU:
		return "cpu"
	case LaneBus:
		return "bus"
	case LanePE:
		return "pe"
	case LaneNet:
		return "net"
	default:
		return "lane?"
	}
}

// LaneOf maps a meter category to the hardware resource that spends the
// time: PEMem occupies the bus, Network occupies the NIC, PEMod and
// Kernel occupy the PE array, everything else occupies the host core.
func LaneOf(c Category) Lane {
	switch c {
	case PEMem:
		return LaneBus
	case Network:
		return LaneNet
	case PEMod, Kernel:
		return LanePE
	default:
		return LaneCPU
	}
}

// Segment is one contiguous occupation of a lane. A plan's charge trace
// coalesces into an ordered segment list (Recorder.Segs); within a plan
// the segments execute sequentially, across plans each lane serializes.
type Segment struct {
	Lane Lane
	Dur  Seconds
}

// AppendSegments appends b to dst as lane segments, in category order:
// consecutive categories on the same lane merge into one segment, and
// non-positive ones are dropped, as a Recorder's segments coalesce. It
// places work that was accounted only as a breakdown — e.g. an
// application kernel launch — onto a timeline.
func (b Breakdown) AppendSegments(dst []Segment) []Segment {
	for i, v := range b.byCat {
		dst = appendSegment(dst, LaneOf(Category(i)), v)
	}
	return dst
}

// appendSegment appends t on lane l to dst, merging it into dst's last
// segment when that one is on l.
func appendSegment(dst []Segment, l Lane, t Seconds) []Segment {
	if t <= 0 {
		return dst
	}
	if n := len(dst); n > 0 && dst[n-1].Lane == l {
		dst[n-1].Dur += t
		return dst
	}
	return append(dst, Segment{Lane: l, Dur: t})
}

// interval is one busy span [start, end) on a lane.
type interval struct{ start, end Seconds }

// Timeline is the overlap-aware schedule of one simulated machine: per
// lane a set of busy intervals placed by first-fit (Place); a barrier run
// (Serial) books none. The zero value is an empty timeline ready to use.
// Timeline is not safe for concurrent use; core.Comm guards its timeline
// with the execution lock.
type Timeline struct {
	// busy[l][head[l]:] is lane l's live list, sorted and disjoint. The
	// dead prefix busy[l][:head[l]] is exactly the intervals that end at
	// or before the floor: SetFloor moves head past them, and place
	// reclaims them only when its append would outgrow the array.
	busy  [NumLanes][]interval
	head  [NumLanes]int
	total [NumLanes]Seconds
	end   Seconds
	floor Seconds

	// The rollback journal (Mark/Rollback): every booking since the mark,
	// and the totals and makespan the mark saw — saved rather than
	// subtracted back, since float addition does not undo exactly.
	marking   bool
	journal   []booking
	markTotal [NumLanes]Seconds
	markEnd   Seconds
}

// booking is one journaled place: the interval inserted at idx of the
// lane's live list, busy[lane][head[lane]+idx]. The index is relative to
// head because a compaction inside the mark moves the live list (and
// resets head) without moving any interval within it.
type booking struct {
	lane Lane
	idx  int
}

// Elapsed returns the makespan: the finish time of the latest placed
// segment.
func (tl *Timeline) Elapsed() Seconds { return tl.end }

// LaneBusy returns the cumulative time ever placed on a lane — the
// lane's total work, independent of overlap and of SetFloor pruning.
// LaneBusy(l)/Elapsed() is the lane's utilization.
func (tl *Timeline) LaneBusy(l Lane) Seconds { return tl.total[l] }

// Reset empties the timeline and keeps the lanes' and the journal's
// backing arrays, so a timeline reused for placements of the same size
// (PipelinedMakespan's pooled scratch) allocates nothing. It panics
// between Mark and Rollback.
func (tl *Timeline) Reset() {
	tl.mustNotMark("Reset")
	busy := tl.busy
	for l := range busy {
		busy[l] = busy[l][:0]
	}
	*tl = Timeline{busy: busy, journal: tl.journal[:0]}
}

// live returns lane l's live list.
func (tl *Timeline) live(l Lane) []interval { return tl.busy[l][tl.head[l]:] }

// Clone returns an independent deep copy of the timeline's live lists,
// outside any mark: placements on the clone never disturb the original
// and vice versa. The copy is deep because place() books intervals with
// an in-place insert-shift that would corrupt a shared backing array. No
// product code calls it — what-if scoring places on the timeline itself
// between Mark and Rollback; Clone is the oracle the rollback tests
// compare against and a layer the benchmark times.
func (tl *Timeline) Clone() Timeline {
	out := Timeline{total: tl.total, end: tl.end, floor: tl.floor}
	for l := range tl.busy {
		if live := tl.live(Lane(l)); len(live) > 0 {
			out.busy[l] = append([]interval(nil), live...)
		}
	}
	return out
}

// Mark opens a what-if window: every Place until the matching Rollback
// is journaled and then undone. One mark may be outstanding; SetFloor,
// Serial, Reset and a second Mark panic until it is rolled back.
func (tl *Timeline) Mark() {
	tl.mustNotMark("Mark")
	tl.marking = true
	tl.markTotal, tl.markEnd = tl.total, tl.end
}

// Rollback undoes every placement since Mark, newest first, restoring the
// busy lists, the per-lane totals and the makespan bit for bit. The
// journal keeps its backing array, so once it has reached its working
// size a Mark/Place.../Rollback round allocates nothing. It panics
// without a mark.
func (tl *Timeline) Rollback() {
	if !tl.marking {
		panic("cost: Timeline.Rollback without Mark")
	}
	for k := len(tl.journal) - 1; k >= 0; k-- {
		b := tl.journal[k]
		ivs, i := tl.busy[b.lane], tl.head[b.lane]+b.idx
		tl.busy[b.lane] = append(ivs[:i], ivs[i+1:]...)
	}
	tl.journal = tl.journal[:0]
	tl.total, tl.end = tl.markTotal, tl.markEnd
	tl.marking = false
}

func (tl *Timeline) mustNotMark(op string) {
	if tl.marking {
		panic("cost: Timeline." + op + " between Mark and Rollback")
	}
}

// SetFloor declares that no future placement will start before f (a
// barrier: a serial run or queue flush happened at f). Busy intervals
// entirely before the floor can never border a usable gap again and are
// pruned — head moves past them, at a cost of the intervals dropped, not
// of the list — keeping the live lists, and the first-fit search, bounded
// by the work in flight since the last barrier rather than the
// timeline's whole history. It panics between Mark and Rollback.
func (tl *Timeline) SetFloor(f Seconds) {
	tl.mustNotMark("SetFloor")
	if f <= tl.floor {
		return
	}
	tl.floor = f
	for l, ivs := range tl.busy {
		h := tl.head[l]
		for h < len(ivs) && ivs[h].end <= f {
			h++
		}
		tl.head[l] = h
	}
}

// Place schedules segs starting no earlier than earliest: segments run
// sequentially (each starts when its predecessor finishes at the
// earliest) and each occupies the first gap on its lane that fits —
// gaps left by earlier placements are backfilled, which is what lets an
// independent plan slip its PE work under another plan's bus epoch.
// It returns the start of the first segment and the finish of the last.
//
// Placement is monotone: a plan never finishes later than it would under
// fully serial execution, because every delay is caused by real work
// already occupying the lane.
func (tl *Timeline) Place(earliest Seconds, segs []Segment) (start, finish Seconds) {
	cursor := earliest
	if cursor < tl.floor {
		cursor = tl.floor
	}
	start = cursor
	first := true
	for _, s := range segs {
		if s.Dur <= 0 {
			continue
		}
		at := tl.place(s.Lane, cursor, s.Dur)
		if first {
			start = at
			first = false
		}
		cursor = at + s.Dur
	}
	if cursor > tl.end {
		tl.end = cursor
	}
	return start, cursor
}

// Serial runs segs after everything already placed — the fully
// serialized (barrier) execution path — raises the floor to their finish
// and returns it. No placed interval ends past the makespan, so each
// segment starts where its predecessor ends, and the new floor would
// prune every interval, these included: Serial books none. It adds each
// segment to its lane's total and to the cursor in the order Place does,
// so the result is Place(Elapsed(), segs) then SetFloor(Elapsed()), bit
// for bit. It panics between Mark and Rollback.
func (tl *Timeline) Serial(segs []Segment) Seconds {
	tl.mustNotMark("Serial")
	cursor := max(tl.end, tl.floor)
	for _, s := range segs {
		if s.Dur > 0 {
			tl.total[s.Lane] += s.Dur
			cursor += s.Dur
		}
	}
	tl.end, tl.floor = cursor, cursor
	for l := range tl.busy {
		tl.busy[l] = tl.busy[l][:0]
	}
	tl.head = [NumLanes]int{}
	return cursor
}

// place books the first gap of length dur on the lane at or after from
// and returns the booked start time.
func (tl *Timeline) place(lane Lane, from, dur Seconds) Seconds {
	ivs, h := tl.busy[lane], tl.head[lane]
	pos := from
	// Skip the live intervals ending at or before pos: the list is sorted
	// and disjoint, so its ends are sorted too. Bookings land near the
	// tail, so gallop back from it to bracket the first interval with
	// end > pos in [lo, hi], then bisect. From that interval on, every
	// end exceeds the cursor.
	lo, hi := h, len(ivs)
	for step := 1; lo < hi; step *= 2 {
		j := max(hi-step, lo)
		if ivs[j].end <= pos {
			lo = j + 1
			break
		}
		hi = j
	}
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); ivs[mid].end <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	for ; i < len(ivs); i++ {
		if pos+dur <= ivs[i].start {
			break // fits in the gap before interval i
		}
		pos = ivs[i].end
	}
	if len(ivs) == cap(ivs) && h > 0 {
		// The append below would outgrow the array: slide the live list
		// down over the dead prefix instead. An array still grows only
		// when its live list fills it, as under eager pruning, so the
		// steady state allocates nothing and capacity stays under twice
		// the peak live count. A slide happens at most once per pruning
		// SetFloor, where the eager prune copied the list on every one,
		// and the h slots it frees last h bookings.
		ivs = ivs[:copy(ivs, ivs[h:])]
		i -= h
		h, tl.head[lane] = 0, 0
	}
	// Insert in place: grow by one, shift the tail, write the slot. The
	// backing array is retained across SetFloor pruning, so once a lane's
	// list reaches its steady-state size this books no allocation —
	// required by the zero-alloc cached-replay contract of core.
	ivs = append(ivs, interval{})
	copy(ivs[i+1:], ivs[i:])
	ivs[i] = interval{pos, pos + dur}
	tl.busy[lane] = ivs
	tl.total[lane] += dur
	if tl.marking {
		tl.journal = append(tl.journal, booking{lane, i - h})
	}
	return pos
}

// Check reports the first broken structural invariant of the timeline:
// on every lane 0 ≤ head ≤ len; every interval non-empty, sorted and
// disjoint from its predecessor, ending at or before the makespan; the
// intervals before head exactly those that end at or before the floor;
// and the lane's total at least the sum of the intervals it still holds
// (pruning drops intervals, never totals). It reads the timeline only.
func (tl *Timeline) Check() error {
	for l, ivs := range tl.busy {
		lane, h := Lane(l), tl.head[l]
		if h < 0 || h > len(ivs) {
			return fmt.Errorf("lane %v head %d outside [0,%d]", lane, h, len(ivs))
		}
		var sum Seconds
		for i, iv := range ivs {
			if !(iv.start < iv.end) {
				return fmt.Errorf("lane %v interval %d [%v,%v) is empty", lane, i, iv.start, iv.end)
			}
			if i > 0 && iv.start < ivs[i-1].end {
				return fmt.Errorf("lane %v interval %d [%v,%v) overlaps or precedes [%v,%v)",
					lane, i, iv.start, iv.end, ivs[i-1].start, ivs[i-1].end)
			}
			if iv.end > tl.end {
				return fmt.Errorf("lane %v interval %d ends at %v, past the makespan %v", lane, i, iv.end, tl.end)
			}
			if dead := i < h; dead != (iv.end <= tl.floor) {
				return fmt.Errorf("lane %v interval %d ends at %v against floor %v, but head is %d", lane, i, iv.end, tl.floor, h)
			}
			sum += iv.end - iv.start
		}
		// (pos+dur)-pos rounds, so the two sums agree only to rounding.
		if tl.total[l] < sum*(1-1e-12) {
			return fmt.Errorf("lane %v total %v below its intervals' sum %v", lane, tl.total[l], sum)
		}
	}
	return nil
}
