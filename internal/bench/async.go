package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
)

// This file holds the async-overlap experiment: a DLRM-style serving
// pipeline where each "batch" issues one request AlltoAll and one
// response ReduceScatter on disjoint MRAM regions (Figure 11's steps 2
// and 4 under double buffering). Replayed serially every collective's
// CPU, bus and PE phases stack end to end; submitted asynchronously the
// independent plans overlap — one plan's PE-side reordering and host
// modulation hide under another's bus epochs — and the overlap-aware
// elapsed time (core.Comm.Elapsed) drops accordingly.

// AsyncResult is one row of the async-overlap experiment.
type AsyncResult struct {
	// Batches is the pipeline depth (independent AlltoAll+ReduceScatter
	// pairs in flight).
	Batches int
	// SerialElapsed and AsyncElapsed are the simulated elapsed times of
	// serial replay vs asynchronous submission of the same plans.
	SerialElapsed, AsyncElapsed cost.Seconds
	// Speedup is SerialElapsed / AsyncElapsed.
	Speedup float64
}

// asyncComm builds a cost-only comm at cfg on the paper's 1024-PE machine
// with enough phantom MRAM for `batches` disjoint region sets of payload
// m.
func asyncComm(m, batches int, cfg core.Config) (*core.Comm, error) {
	return newCommOn(dram.PaperGeometry(mramFor(4*m*batches+64)), []int{32, 32}, true, cfg)
}

// asyncPlans compiles the pipeline's plans on c: per batch a
// ReduceScatter (IM) and an AlltoAll (CM) over the batch's own region
// set, all mutually disjoint. The host-compute-heavy ReduceScatter is
// submitted first so its modulation/reduction pass runs on the CPU lane
// while the bus-heavy AlltoAll streams — the same ordering a DLRM server
// sees (batch k's response ReduceScatter alongside batch k+1's request
// AlltoAll).
func asyncPlans(c *core.Comm, m, batches int) ([]*core.CompiledPlan, error) {
	var plans []*core.CompiledPlan
	for b := 0; b < batches; b++ {
		base := b * 4 * m
		rs, err := c.Compile(core.Collective{Prim: core.ReduceScatter, Dims: "10",
			Src: core.Span(base+2*m, m), Dst: core.At(base + 3*m),
			Elem: elem.I32, Op: elem.Sum, Level: core.IM})
		if err != nil {
			return nil, err
		}
		aa, err := c.Compile(core.Collective{Prim: core.AlltoAll, Dims: "10",
			Src: core.Span(base, m), Dst: core.At(base + m), Level: core.CM})
		if err != nil {
			return nil, err
		}
		plans = append(plans, rs, aa)
	}
	return plans, nil
}

// MeasureAsyncOverlap measures overlap speedup at per-PE payload m for
// the given pipeline depths: for each depth, the same compiled plans are
// replayed serially on one comm and submitted asynchronously on another,
// and the overlap-aware elapsed times are compared. Cost-only backend
// (the elapsed-time model is backend-independent; the functional
// equivalence is pinned by the core async tests). The queue runs under
// the default weighted-fair policy with a live background worker — the
// configuration the regression baseline pins.
func MeasureAsyncOverlap(m int, depths []int) ([]AsyncResult, error) {
	return measureAsync(m, depths, core.SchedWFQ, false)
}

// measureAsync is MeasureAsyncOverlap under an explicit scheduling
// policy. With stepped set, the whole pipeline is submitted before the
// queue drains, so a window-scanning policy (EDF, lookahead) sees the
// full backlog instead of racing the background worker.
func measureAsync(m int, depths []int, pol core.SchedPolicy, stepped bool) ([]AsyncResult, error) {
	var out []AsyncResult
	for _, batches := range depths {
		serial, err := asyncComm(m, batches, core.Config{})
		if err != nil {
			return nil, err
		}
		async, err := asyncComm(m, batches, core.Config{Sched: pol, Stepped: stepped})
		if err != nil {
			return nil, err
		}
		sp, err := asyncPlans(serial, m, batches)
		if err != nil {
			return nil, err
		}
		ap, err := asyncPlans(async, m, batches)
		if err != nil {
			return nil, err
		}
		for _, p := range sp {
			if _, err := p.Run(); err != nil {
				return nil, err
			}
		}
		var fs []*core.Future
		for _, p := range ap {
			fs = append(fs, p.Submit())
		}
		async.Flush()
		for _, f := range fs {
			if err := f.Err(); err != nil {
				return nil, err
			}
		}
		r := AsyncResult{
			Batches:       batches,
			SerialElapsed: serial.Elapsed(),
			AsyncElapsed:  async.Elapsed(),
		}
		r.Speedup = float64(r.SerialElapsed) / float64(r.AsyncElapsed)
		out = append(out, r)
	}
	return out, nil
}

// RunAsync runs the async-overlap experiment and writes its table. A
// non-default Options.Sched reruns the pipeline under that policy in
// stepped mode (the policy sees the full backlog).
func RunAsync(o Options) error {
	size := sizeFor(o, 64<<10, 1<<20)
	results, err := measureAsync(size, []int{1, 2, 4, 8}, o.Sched, o.Sched != core.SchedWFQ)
	if err != nil {
		return err
	}
	t := newTable("Batches in flight", "Serial elapsed (ms)", "Async elapsed (ms)", "Overlap speedup")
	for _, r := range results {
		t.add(fmt.Sprint(r.Batches),
			fmt.Sprintf("%.3f", float64(r.SerialElapsed)*1e3),
			fmt.Sprintf("%.3f", float64(r.AsyncElapsed)*1e3),
			fmt.Sprintf("%.2fx", r.Speedup))
	}
	t.write(o.W)
	fmt.Fprintf(o.W, "(DLRM-style AlltoAll/CM + ReduceScatter/IM per batch on disjoint regions,\n"+
		" 1024 PEs (32x32), %d KiB/PE, cost-only backend, %s policy; serial replay vs async Submit)\n",
		size>>10, o.Sched)
	return nil
}

func init() {
	register("async", "Async overlap: futures/submission-queue elapsed time vs serial replay (DLRM-style pipeline)", func(o Options) error {
		return RunAsync(o)
	})
}
