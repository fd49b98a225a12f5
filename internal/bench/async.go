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
// elapsed time (core.Tenant.Elapsed, the machine's) drops accordingly.

// AsyncResult is one row of the async-overlap experiment.
type AsyncResult struct {
	// Batches is the pipeline depth (independent AlltoAll+ReduceScatter
	// pairs in flight).
	Batches int
	// SerialElapsed and AsyncElapsed are the simulated elapsed times of
	// serial replay vs asynchronous submission of the same plans.
	SerialElapsed, AsyncElapsed cost.Seconds
}

// asyncComm builds a cost-only machine at cfg of the paper's 1024 PEs
// with enough phantom MRAM for `batches` disjoint region sets of payload
// m, and its whole-MRAM session.
func asyncComm(m, batches int, cfg core.Config) (*core.Comm, *core.Tenant, error) {
	return newCommOn(dram.PaperGeometry(mramFor(4*m*batches+64)), []int{32, 32}, cfg)
}

// dlrmRequest returns the two descriptors of one DLRM-style serving
// request laid out at base: an AlltoAll (CM) over [base, base+2m) and a
// ReduceScatter (IM) over [base+2m, base+3m+s). The pair is internally
// independent (footprints disjoint, so the two overlap), while
// consecutive requests at one base chain on their WAW hazards. rsFirst
// puts the host-compute-heavy ReduceScatter first, so its
// modulation/reduction pass runs on the CPU lane while the bus-heavy
// AlltoAll streams — the order a DLRM server sees (batch k's response
// ReduceScatter alongside batch k+1's request AlltoAll); AlltoAll first
// is the order that defeats overlap (reorder.go).
func dlrmRequest(base, m int, rsFirst bool) [2]core.Collective {
	aa := core.Collective{Prim: core.AlltoAll, Dims: "10",
		Src: core.Span(base, m), Dst: core.At(base + m), Level: core.CM}
	rs := core.Collective{Prim: core.ReduceScatter, Dims: "10",
		Src: core.Span(base+2*m, m), Dst: core.At(base + 3*m),
		Elem: elem.I32, Op: elem.Sum, Level: core.IM}
	if rsFirst {
		return [2]core.Collective{rs, aa}
	}
	return [2]core.Collective{aa, rs}
}

// pipelinePlans compiles the pipeline's plans on s in submission order:
// per batch one dlrmRequest over the batch's own region set, all
// mutually disjoint.
func pipelinePlans(s *core.Tenant, m, batches int, rsFirst bool) ([]*core.CompiledPlan, error) {
	var plans []*core.CompiledPlan
	for b := 0; b < batches; b++ {
		for _, d := range dlrmRequest(b*4*m, m, rsFirst) {
			cp, err := s.Compile(d)
			if err != nil {
				return nil, err
			}
			plans = append(plans, cp)
		}
	}
	return plans, nil
}

// measureAsync measures overlap speedup at per-PE payload m for the
// given pipeline depths: for each depth, the same compiled plans are
// replayed serially on one comm and submitted asynchronously on another
// under policy pol, and the overlap-aware elapsed times are compared.
// Cost-only backend (the elapsed-time model is backend-independent; the
// functional equivalence is pinned by the core async tests). The whole
// pipeline is submitted before Flush drains the queue, so a
// window-scanning policy (EDF, lookahead) sees the full backlog.
func measureAsync(m int, depths []int, pol core.SchedPolicy) ([]AsyncResult, error) {
	var out []AsyncResult
	for _, batches := range depths {
		_, serial, err := asyncComm(m, batches, core.Config{})
		if err != nil {
			return nil, err
		}
		_, async, err := asyncComm(m, batches, core.Config{Sched: pol})
		if err != nil {
			return nil, err
		}
		sp, err := pipelinePlans(serial, m, batches, true)
		if err != nil {
			return nil, err
		}
		ap, err := pipelinePlans(async, m, batches, true)
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
		out = append(out, AsyncResult{Batches: batches, SerialElapsed: serial.Elapsed(), AsyncElapsed: async.Elapsed()})
	}
	return out, nil
}

func init() {
	register("async", "Async overlap: futures/submission-queue elapsed time vs serial replay (DLRM-style pipeline)", func(o Options, c *cells) error {
		// A non-default Options.Sched reruns the pipeline under that
		// policy.
		size := sizeFor(o, 64<<10, 1<<20)
		results, err := measureAsync(size, []int{1, 2, 4, 8}, o.Sched)
		if err != nil {
			return err
		}
		t := newTable("Batches in flight", "Serial elapsed (ms)", "Async elapsed (ms)", "Overlap speedup")
		for _, r := range results {
			serial := c.put(fmt.Sprintf("serial_d%d", r.Batches), r.SerialElapsed)
			async := c.put(fmt.Sprintf("async_d%d", r.Batches), r.AsyncElapsed)
			t.add(fmt.Sprint(r.Batches), fmt.Sprintf("%.3f", serial*1e3), fmt.Sprintf("%.3f", async*1e3),
				fmt.Sprintf("%.2fx", serial/async))
		}
		t.write(o.W)
		fmt.Fprintf(o.W, "(DLRM-style AlltoAll/CM + ReduceScatter/IM per batch on disjoint regions,\n"+
			" 1024 PEs (32x32), %d KiB/PE, cost-only backend, %s policy; serial replay vs async Submit)\n",
			size>>10, o.Sched)
		return nil
	})
}
