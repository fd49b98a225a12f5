package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
)

// This file holds the schedule-fusion experiment: the DLRM serving
// pipeline of ReduceScatter→AlltoAll pairs (Figure 11's steps 4-5 under
// software pipelining) compiled once as separate plans and once through
// the fusion optimizer as a single multi-collective sequence. Per batch
// k the ReduceScatter (IM) reduces the response buffer A_k into B_k and
// the AlltoAll (CM) relocates the staged requests C_k into the *next*
// batch's response buffer A_{k+1} — so across every batch boundary the
// AlltoAll's trailing unrotate of A_{k+1} and the next ReduceScatter's
// leading rotate of the same region are an inverse pair the fuser
// cancels, the interior per-collective synchronizations collapse into
// one, and the freed-up adjacent column-stream epochs coalesce. The
// fused plan performs byte-identical communication (pinned by the core
// fusion property tests) at measurably lower cost; the win is largest
// for the launch/sync-bound payloads DLRM serving actually ships.

// FusionResult is one row of the fusion experiment.
type FusionResult struct {
	// BytesPerPE is the per-PE ReduceScatter/AlltoAll payload.
	BytesPerPE int
	// Batches is the pipeline depth (ReduceScatter→AlltoAll pairs).
	Batches int
	// Unfused and Fused are the pipeline's per-replay simulated costs.
	Unfused, Fused cost.Seconds
	// Report is the fused plan's pass report.
	Report core.FusionReport
}

// fusionComm builds a cost-only machine of the paper's 1024 PEs with
// enough phantom MRAM for the pipeline's regions at the given fusion
// level and returns its whole-MRAM session.
func fusionComm(m, batches int, fuse core.FuseLevel) (*core.Tenant, error) {
	need := (2*batches+1)*m + batches*m // A/C regions plus aligned B slack
	_, s, err := newCommOn(dram.PaperGeometry(mramFor(need+64)), []int{32, 32}, core.Config{Fuse: fuse})
	return s, err
}

// fusionPipeline returns the pipeline's descriptors: per batch a
// ReduceScatter A_k→B_k and an AlltoAll C_k→A_{k+1}, chained so the
// rotate/unrotate pairs on the shared A regions cancel under fusion.
func fusionPipeline(m, batches int) []core.Collective {
	n := 32 // group size of dims "10" on the 32x32 hypercube
	s := m / n
	offA := func(k int) int { return k * m }
	offC := func(k int) int { return (batches + 1 + k) * m }
	offB := func(k int) int { return (2*batches+1)*m + k*s }
	var ds []core.Collective
	for k := 0; k < batches; k++ {
		ds = append(ds,
			core.Collective{Prim: core.ReduceScatter, Dims: "10",
				Src: core.Span(offA(k), m), Dst: core.At(offB(k)),
				Elem: elem.I32, Op: elem.Sum, Level: core.IM},
			core.Collective{Prim: core.AlltoAll, Dims: "10",
				Src: core.Span(offC(k), m), Dst: core.At(offA(k + 1)), Level: core.CM})
	}
	return ds
}

// MeasureFusion compiles the pipeline unfused and fused at per-PE
// payload m and the given depth, returning both costs and the fused
// plan's report. Cost-only backend; the functional byte-equivalence of
// fused execution is pinned by the core fusion property tests.
func MeasureFusion(m, batches int) (FusionResult, error) {
	r := FusionResult{BytesPerPE: m, Batches: batches}
	ds := fusionPipeline(m, batches)

	off, err := fusionComm(m, batches, core.FuseOff)
	if err != nil {
		return r, err
	}
	cpOff, err := off.CompileSequence(ds...)
	if err != nil {
		return r, err
	}
	on, err := fusionComm(m, batches, core.FuseFull)
	if err != nil {
		return r, err
	}
	cpOn, err := on.CompileSequence(ds...)
	if err != nil {
		return r, err
	}
	r.Unfused = cpOff.Cost().Total()
	r.Fused = cpOn.Cost().Total()
	r.Report = cpOn.FusionReport()
	return r, nil
}

// fusionPinPoint is the payload the speedup pin is measured at: the
// default (small) scale of the experiment, a DLRM-serving-sized slice.
// Its cells are fusion/unfused and fusion/fused; every other payload's
// carry its size (fusion/unfused_1K).
const fusionPinPoint = 4 << 10

// fusionDepth is the pipeline depth of the experiment.
const fusionDepth = 8

func init() {
	register("fusion", "Schedule fusion: DLRM ReduceScatter->AlltoAll pipeline, unfused vs fused compiled plans", func(o Options, c *cells) error {
		sizes := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10}
		if o.Full {
			sizes = append(sizes, 256<<10)
		}
		t := newTable("KiB/PE", "Unfused (ms)", "Fused (ms)", "Speedup", "Rotates elided", "Syncs elided", "Epochs coalesced")
		var pinned FusionResult
		for _, m := range sizes {
			r, err := MeasureFusion(m, fusionDepth)
			if err != nil {
				return err
			}
			suffix := fmt.Sprintf("_%dK", m>>10)
			if m == fusionPinPoint {
				suffix, pinned = "", r
			}
			unfused, fused := c.put("unfused"+suffix, r.Unfused), c.put("fused"+suffix, r.Fused)
			t.add(fmt.Sprintf("%d", m>>10),
				fmt.Sprintf("%.3f", unfused*1e3),
				fmt.Sprintf("%.3f", fused*1e3),
				fmt.Sprintf("%.2fx", unfused/fused),
				fmt.Sprint(r.Report.RotatesMerged+r.Report.RotatesElided),
				fmt.Sprint(r.Report.SyncsElided),
				fmt.Sprint(r.Report.EpochsCoalesced))
		}
		t.write(o.W)
		fmt.Fprintf(o.W, "\n(DLRM serving pipeline: %d ReduceScatter/IM -> AlltoAll/CM pairs per replay on\n"+
			" 1024 PEs (32x32), cost-only backend; each AlltoAll feeds the next batch's\n"+
			" ReduceScatter, so the fuser cancels the rotate/unrotate pair at every batch\n"+
			" boundary, collapses the interior syncs and coalesces the freed epochs.)\n", fusionDepth)
		fmt.Fprintf(o.W, "fused schedule: %s\n", pinned.Report)
		fmt.Fprintf(o.W, "pinned: %.2fx cost improvement at %d KiB/PE (gate: >= 1.15x)\n",
			float64(pinned.Unfused)/float64(pinned.Fused), fusionPinPoint>>10)
		return nil
	})
}
