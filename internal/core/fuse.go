package core

import (
	"fmt"
	"slices"

	"repro/internal/cost"
)

// This file implements the schedule fusion optimizer: typed peephole
// passes over the schedule IR that rewrite a lowered plan into fewer,
// denser steps before its charges are traced. PID-Comm's speedup comes
// from restructuring communication into fewer, denser DIMM transfer
// epochs; the passes extend that restructuring across step — and, for
// CompileSequence plans, collective — boundaries:
//
//  1. mergeRotates: adjacent RotateBlocks steps on the same region (same
//     group plan, offset and block structure) compose into one rotation
//     of the summed amount — one kernel launch and one MRAM streaming
//     pass instead of two.
//  2. coalesceEpochs: back-to-back ColumnStream epochs merge into a
//     single transfer epoch (burst tallies and charges concatenate, the
//     functional bodies chain), so a multi-collective sequence streams
//     as one dense epoch.
//  3. Inverse rotate/unrotate pairs are a special case of (1): their
//     multipliers sum to 0, so the composed rotation is the identity,
//     which dropNoops then removes entirely — e.g. an AlltoAll's trailing
//     unrotate (-1) of its destination cancels a following
//     ReduceScatter's leading rotate (+1) of the same region.
//  4. dropNoops: steps that provably do nothing (a rotation by zero
//     blocks for every rank, an empty bulk or host-compute step, an
//     empty transfer epoch) are removed, saving their fixed launch
//     overheads.
//  5. dropInteriorSyncs: a fused plan is one submission, so only its
//     final host synchronization remains; the per-collective Sync steps
//     of a sequence's interior members are elided.
//
// Every pass preserves functional byte-for-byte equivalence (pinned by
// the fusion property tests and the fuzz harness): rotations compose
// additively, epochs execute their bodies in the original order, and
// removed steps are exact no-ops. Only the *cost* changes — fused plans
// regenerate their charge traces from the rewritten schedule, so the
// meter, timeline and hazard machinery are untouched.

// FuseLevel selects how Compile post-processes lowered schedules.
type FuseLevel int

const (
	// FuseFull applies all peephole passes to a fixpoint: the zero
	// value, so fusion is on by default.
	FuseFull FuseLevel = iota
	// FuseOff executes schedules exactly as lowered — bit-identical to
	// the pre-fusion engine, the reference for equivalence tests.
	FuseOff
)

// String returns the knob label used by the CLIs.
func (f FuseLevel) String() string {
	switch f {
	case FuseOff:
		return "off"
	case FuseFull:
		return "full"
	default:
		return fmt.Sprintf("FuseLevel(%d)", int(f))
	}
}

// FusionReport describes what the fusion pipeline did to one compiled
// plan. A report is attached to every plan compiled with fusion enabled
// (CompiledPlan.FusionReport); when no pass applied, StepsAfter equals
// StepsBefore and CostAfter equals CostBefore.
type FusionReport struct {
	// StepsBefore and StepsAfter count schedule steps around the passes.
	StepsBefore, StepsAfter int
	// RotatesMerged counts adjacent same-region rotation pairs composed
	// into a single RotateBlocks step.
	RotatesMerged int
	// RotatesElided counts rotation steps removed entirely: original
	// no-ops and inverse pairs whose composition is the identity.
	RotatesElided int
	// SyncsElided counts interior per-collective synchronization steps
	// removed from a fused sequence.
	SyncsElided int
	// EpochsCoalesced counts ColumnStream epochs merged into their
	// predecessor.
	EpochsCoalesced int
	// OtherElided counts no-op bulk/host-compute/empty-epoch steps
	// removed.
	OtherElided int
	// PEBytesSaved is the per-PE MRAM DMA traffic (bytes) the removed
	// rotation passes no longer stream; PEInstrSaved is their DPU
	// address-arithmetic instruction count. Both are per busiest PE, the
	// quantity the launch cost model charges.
	PEBytesSaved, PEInstrSaved int64
	// CostBefore and CostAfter are the plan's per-run cost with the
	// schedule as lowered and as fused. Equal when no pass applied.
	CostBefore, CostAfter cost.Breakdown
}

// Changed reports whether any pass rewrote the schedule.
func (r FusionReport) Changed() bool {
	return r.RotatesMerged+r.RotatesElided+r.SyncsElided+r.EpochsCoalesced+r.OtherElided > 0
}

// Saved returns the simulated time one Run saves over the unfused plan.
func (r FusionReport) Saved() cost.Seconds {
	return r.CostBefore.Total() - r.CostAfter.Total()
}

// Speedup returns CostBefore/CostAfter (1 when nothing fused).
func (r FusionReport) Speedup() float64 {
	if r.CostAfter.Total() <= 0 {
		return 1
	}
	return float64(r.CostBefore.Total()) / float64(r.CostAfter.Total())
}

// String renders the report as a single diagnostic line.
func (r FusionReport) String() string {
	return fmt.Sprintf("steps %d->%d (rotates: %d merged, %d elided; syncs elided %d; epochs coalesced %d; other %d), %.3g PE-KB and %d PE-instr saved, %.2fx cost",
		r.StepsBefore, r.StepsAfter, r.RotatesMerged, r.RotatesElided, r.SyncsElided,
		r.EpochsCoalesced, r.OtherElided, float64(r.PEBytesSaved)/1024, r.PEInstrSaved, r.Speedup())
}

// FusionStats aggregates fusion activity over a Comm's lifetime
// (Snapshot.Fusion; surfaced by `pidinfo -plancache`): it counts rows
// built, Auto candidates and cluster role rows included, not plans.
// Counters are cumulative, like the plan-cache counters.
type FusionStats struct {
	// PlansCompiled counts rows that went through the fusion pipeline;
	// PlansFused counts those whose schedule actually changed.
	PlansCompiled, PlansFused int
	// Pass counters summed over all fused rows.
	RotatesMerged, RotatesElided, SyncsElided, EpochsCoalesced, OtherElided int
	// PEBytesSaved/PEInstrSaved sum the per-PE rotation work removed.
	PEBytesSaved, PEInstrSaved int64
	// CostSaved is the summed per-run simulated time the fused rows
	// save over their unfused forms (each row counted once, when built).
	CostSaved cost.Seconds
}

// add folds one row's report into the aggregate.
func (s *FusionStats) add(r FusionReport) {
	s.PlansCompiled++
	if r.Changed() {
		s.PlansFused++
	}
	s.RotatesMerged += r.RotatesMerged
	s.RotatesElided += r.RotatesElided
	s.SyncsElided += r.SyncsElided
	s.EpochsCoalesced += r.EpochsCoalesced
	s.OtherElided += r.OtherElided
	s.PEBytesSaved += r.PEBytesSaved
	s.PEInstrSaved += r.PEInstrSaved
	s.CostSaved += r.Saved()
}

// rotateIsNoop reports whether the step rotates every rank by a multiple
// of its block count — an exact no-op (the kernel exits immediately on
// every PE, but the launch itself would still be charged).
func rotateIsNoop(st *StepRotateBlocks) bool {
	for rank := 0; rank < st.p.n; rank++ {
		if st.rotation(rank) != 0 {
			return false
		}
	}
	return true
}

// rotatePassWork returns the per-PE MRAM bytes and instructions of one
// full rotation pass of the step's region (zero for a no-op rotation):
// what eliding the step saves on the busiest PE.
func rotatePassWork(st *StepRotateBlocks) (instr, bytes int64) {
	if rotateIsNoop(st) {
		return 0, 0
	}
	i, b := rotateBlocksWork(st.N * st.S)
	return i, b
}

// sameRotateRegion reports whether two rotation steps address the same
// region with the same block structure under the same group plan — the
// precondition for composing them.
func sameRotateRegion(a, b *StepRotateBlocks) bool {
	return a.p == b.p && a.Off == b.Off && a.N == b.N && a.S == b.S
}

// mergeRotates composes two adjacent same-region rotations into one step
// rotating by the summed multiplier. Left-rotations compose additively,
// so the result is byte-identical to applying both.
func mergeRotates(a, b *StepRotateBlocks) *StepRotateBlocks {
	return &StepRotateBlocks{p: a.p, Off: a.Off, N: a.N, S: a.S, Mul: a.Mul + b.Mul}
}

// stepIsNoop classifies steps that provably perform no work and no
// accounting. StepSync is never a no-op (it charges the launch/sync
// overhead); interior syncs are handled by the dedicated pass.
func stepIsNoop(st Step) bool {
	switch s := st.(type) {
	case *StepRotateBlocks:
		return rotateIsNoop(s)
	case *StepBulk:
		return !s.Read && !s.Write && len(s.Charges) == 0 && s.Modulate == nil
	case *StepHostCompute:
		return len(s.Charges) == 0
	case *StepColumnStream:
		return s.Reads == 0 && s.Writes == 0 && len(s.Charges) == 0 && len(s.segs) == 0
	case *StepNetTransfer:
		// A zero-round leg charges nothing and moves nothing (e.g. the
		// Flat fan-out of a 1-host cluster), unless it is the wire: the
		// phase boundary stays, with the same steps on both backends.
		return s.Rounds <= 0 && !s.wire
	default:
		return false
	}
}

// coalesceEpochs merges two adjacent transfer epochs: tallies and
// charges concatenate, and the seg lists chain in original order — the
// executor runs segs sequentially (with a barrier between them), so the
// merged epoch moves exactly the bytes the two moved, in one bus epoch,
// with cross-member read-after-write dependencies intact.
func coalesceEpochs(a, b *StepColumnStream) *StepColumnStream {
	return &StepColumnStream{
		Reads:   a.Reads + b.Reads,
		Writes:  a.Writes + b.Writes,
		Charges: append(append([]Charge{}, a.Charges...), b.Charges...),
		segs:    append(append([]*streamSeg{}, a.segs...), b.segs...),
	}
}

// fuseSteps runs the peephole passes over steps to a fixpoint and
// returns the rewritten list plus the report. The input slice is not
// mutated: the first rewrite copies it, so a list no pass changes
// comes back as it went in; step values are shared where unchanged.
func fuseSteps(steps []Step) ([]Step, FusionReport) {
	rep := FusionReport{StepsBefore: len(steps)}
	out, shared, changed := steps, true, true
	// rewrite replaces out[i:i+n] with repl; its first call copies steps.
	rewrite := func(i, n int, repl ...Step) {
		if shared {
			out, shared = slices.Clone(out), false
		}
		out, changed = slices.Replace(out, i, i+n, repl...), true
	}
	for changed {
		changed = false

		// dropInteriorSyncs: every Sync except the final step goes; a
		// fused plan synchronizes once, when it completes.
		for i := 0; i < len(out)-1; i++ {
			if _, ok := out[i].(*StepSync); ok {
				rewrite(i, 1)
				rep.SyncsElided++
				i--
			}
		}

		// dropNoops: remove steps that provably do nothing. An elided
		// rotation still saves its launch overhead; a non-trivial one
		// (possible only as a merge result gone identity) also saves its
		// streaming pass, accounted when the merge happened.
		for i := 0; i < len(out); i++ {
			if !stepIsNoop(out[i]) {
				continue
			}
			if _, ok := out[i].(*StepRotateBlocks); ok {
				rep.RotatesElided++
			} else {
				rep.OtherElided++
			}
			rewrite(i, 1)
			i--
		}

		// mergeRotates: compose adjacent same-region rotations. The
		// saved work is the difference between the two original passes
		// and the composed one (zero if the composition is a no-op —
		// dropNoops removes it on the next sweep).
		for i := 0; i+1 < len(out); i++ {
			a, ok1 := out[i].(*StepRotateBlocks)
			b, ok2 := out[i+1].(*StepRotateBlocks)
			if !ok1 || !ok2 || !sameRotateRegion(a, b) {
				continue
			}
			m := mergeRotates(a, b)
			ia, ba := rotatePassWork(a)
			ib, bb := rotatePassWork(b)
			im, bm := rotatePassWork(m)
			rep.PEInstrSaved += ia + ib - im
			rep.PEBytesSaved += ba + bb - bm
			rep.RotatesMerged++
			rewrite(i, 2, m)
			i--
		}

		// coalesceEpochs: merge adjacent transfer epochs.
		for i := 0; i+1 < len(out); i++ {
			a, ok1 := out[i].(*StepColumnStream)
			b, ok2 := out[i+1].(*StepColumnStream)
			if !ok1 || !ok2 {
				continue
			}
			rewrite(i, 2, coalesceEpochs(a, b))
			rep.EpochsCoalesced++
			i--
		}
	}
	rep.StepsAfter = len(out)
	return out, rep
}
