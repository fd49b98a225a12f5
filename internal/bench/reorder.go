package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
)

// This file holds the reorder experiment: the async pipeline of
// async.go submitted in *adversarial* order — per batch the bus-heavy
// AlltoAll before the host-compute-heavy ReduceScatter (dlrmRequest with
// rsFirst unset) — which is the
// order that defeats overlap (the ReduceScatter's CPU pass can no
// longer hide under the AlltoAll's bus streaming; at depth 1 FIFO drops
// from 1.58x to ~1.14x). Every plan is submitted before the first Step,
// so every policy sees the whole backlog deterministically, and each
// scheduling policy is measured against the same serial reference: FIFO
// inherits the adversarial order, while the makespan-aware lookahead
// policy re-discovers the good order from the plans' charge traces and
// recovers the overlap. Every run also verifies the funnel's
// bit-identical contract: each future must charge exactly what the
// serial replay of the same plan charged.

// ReorderResult is one row of the reorder experiment.
type ReorderResult struct {
	// Policy is the submission scheduling policy measured.
	Policy core.SchedPolicy
	// Batches is the pipeline depth (independent AlltoAll+ReduceScatter
	// pairs submitted adversarially).
	Batches int
	// SerialElapsed and AsyncElapsed are the simulated elapsed times of
	// serial replay vs scheduled asynchronous execution.
	SerialElapsed, AsyncElapsed cost.Seconds
}

// MeasureReorder measures, at per-PE payload m, the overlap each
// scheduling policy recovers from an adversarial submission order, per
// pipeline depth. All plans are enqueued first, then the queue is
// drained one Step at a time, so the policy's pick order decides the
// placement order. Every drain is verified bit-identical
// against a serial twin replaying the same plans in the same pick order
// (per-future breakdowns and the machine meter must match bit for bit:
// a policy reorders who runs next, never what a plan charges).
func MeasureReorder(m int, depths []int, policies []core.SchedPolicy) ([]ReorderResult, error) {
	var out []ReorderResult
	for _, batches := range depths {
		_, serial, err := asyncComm(m, batches, core.Config{})
		if err != nil {
			return nil, err
		}
		sp, err := pipelinePlans(serial, m, batches, false)
		if err != nil {
			return nil, err
		}
		for _, p := range sp {
			if _, err := p.Run(); err != nil {
				return nil, err
			}
		}
		for _, pol := range policies {
			async, as, err := asyncComm(m, batches, core.Config{Sched: pol})
			if err != nil {
				return nil, err
			}
			ap, err := pipelinePlans(as, m, batches, false)
			if err != nil {
				return nil, err
			}
			planIdx := make(map[*core.Future]int, len(ap))
			for i, p := range ap {
				planIdx[p.Submit()] = i
			}
			var picked []*core.Future
			for f := async.Step(); f != nil; f = async.Step() {
				if err := f.Err(); err != nil {
					return nil, err
				}
				picked = append(picked, f)
			}
			async.Flush()
			if err := verifyReorderReplay(m, batches, pol, planIdx, picked, async); err != nil {
				return nil, err
			}
			out = append(out, ReorderResult{Policy: pol, Batches: batches,
				SerialElapsed: serial.Elapsed(), AsyncElapsed: async.Elapsed()})
		}
	}
	return out, nil
}

// verifyReorderReplay replays the drained plans on a fresh serial twin
// in the exact pick order the policy chose and pins the funnel's
// bit-identical contract: each future's charged breakdown, and the
// machine meter as a whole, must equal the serial twin's bit for bit.
func verifyReorderReplay(m, batches int, pol core.SchedPolicy, planIdx map[*core.Future]int, picked []*core.Future, async *core.Comm) error {
	twin, ts, err := asyncComm(m, batches, core.Config{})
	if err != nil {
		return err
	}
	tp, err := pipelinePlans(ts, m, batches, false)
	if err != nil {
		return err
	}
	if len(picked) != len(tp) {
		return fmt.Errorf("bench: %v policy drained %d plans, submitted %d", pol, len(picked), len(tp))
	}
	for _, f := range picked {
		bd, err := tp[planIdx[f]].Run()
		if err != nil {
			return err
		}
		if f.Cost() != bd {
			return fmt.Errorf("bench: %v policy broke bit-identical replay: plan %d charged %v, serial charged %v",
				pol, planIdx[f], f.Cost(), bd)
		}
	}
	if got, want := async.Meter().Snapshot(), twin.Meter().Snapshot(); got != want {
		return fmt.Errorf("bench: %v policy broke bit-identical meters: async %v, serial %v", pol, got, want)
	}
	return nil
}

func init() {
	register("reorder", "Makespan-aware reordering: scheduling policies on an adversarial submission order", func(o Options, c *cells) error {
		size := sizeFor(o, 64<<10, 1<<20)
		results, err := MeasureReorder(size, []int{1, 2, 4, 8}, core.SchedPolicies())
		if err != nil {
			return err
		}
		t := newTable("Policy", "Batches in flight", "Serial elapsed (ms)", "Async elapsed (ms)", "Overlap speedup")
		for _, r := range results {
			serial := c.put(fmt.Sprintf("serial_d%d", r.Batches), r.SerialElapsed)
			async := c.put(fmt.Sprintf("%v_d%d", r.Policy, r.Batches), r.AsyncElapsed)
			speedup := serial / async
			t.add(r.Policy.String(), fmt.Sprint(r.Batches), fmt.Sprintf("%.3f", serial*1e3),
				fmt.Sprintf("%.3f", async*1e3), fmt.Sprintf("%.2fx", speedup))
			// The acceptance checks: at depth 1 lookahead recovers at
			// least 1.4x from the adversarial order, while FIFO stays near
			// its ~1.14x (past 1.3x the order stopped being adversarial
			// and the check is meaningless). Bit-identical replay is
			// checked inside MeasureReorder.
			if r.Batches == 1 {
				c.require(r.Policy != core.SchedLookahead || speedup >= 1.4,
					"lookahead recovered only %.2fx overlap at depth 1 (want >= 1.4x)", speedup)
				c.require(r.Policy != core.SchedFIFO || speedup <= 1.3,
					"FIFO got %.2fx on the adversarial order at depth 1 (want <= 1.3x — order no longer adversarial)", speedup)
			}
		}
		t.write(o.W)
		fmt.Fprintf(o.W, "(async.go pipeline submitted in adversarial order — AlltoAll before ReduceScatter\n"+
			" per batch — stepped drain, %d KiB/PE, cost-only; the lookahead policy reorders\n"+
			" independent plans by projected makespan and recovers the overlap FIFO loses)\n", size>>10)
		return nil
	})
}
