package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/elem"
)

// replaySpec is one row of the replay-throughput experiment.
type replaySpec struct {
	prim core.Primitive
	lvl  core.Level
}

// ReplayResult holds one primitive's cold-compile vs cached-replay
// measurement.
type ReplayResult struct {
	Prim         core.Primitive
	ColdPerSec   float64
	CachedPerSec float64
	Speedup      float64
}

// MeasureReplay measures the compiled-plan cache on the cost-only
// backend at the given per-PE payload on the paper's 1024-PE machine:
// cold-compile-each-call (the plan cache cleared before every call, so
// every iteration pays validation, lowering and charge tracing) versus
// cached replay of one CompiledPlan. Returns collectives/sec for both
// modes per primitive.
//
// The cost-only backend is where amortization matters most — it is the
// engine for paper-scale sweeps and serving-style what-if studies — and
// it keeps the measurement data-independent: a cached replay applies the
// precomputed charge trace instead of re-walking the per-PE kernel
// accounting and per-group bus tallies.
func MeasureReplay(recvPerPE, iters int) ([]ReplayResult, error) {
	if iters <= 0 {
		iters = 300
	}
	comm, err := newPrimComm([]int{32, 32}, 1024, recvPerPE, true)
	if err != nil {
		return nil, err
	}
	specs := []replaySpec{
		{core.AlltoAll, core.CM},
		{core.ReduceScatter, core.IM},
		{core.AllReduce, core.IM},
	}
	var out []ReplayResult
	for _, sp := range specs {
		d, err := primCollective(PrimSpec{Prim: sp.prim, Dims: "10", RecvPerPE: recvPerPE,
			Level: sp.lvl, Elem: elem.I32, Op: elem.Sum}, 32)
		if err != nil {
			return nil, err
		}
		oneShot := func() error {
			_, err := comm.Run(d)
			return err
		}
		// Cold: compile each call.
		start := time.Now()
		for i := 0; i < iters; i++ {
			comm.ClearPlanCache()
			if err := oneShot(); err != nil {
				return nil, err
			}
		}
		cold := time.Since(start)
		// Cached: one-shot calls replay the cached plan.
		comm.ClearPlanCache()
		if err := oneShot(); err != nil { // warm the cache
			return nil, err
		}
		start = time.Now()
		for i := 0; i < iters; i++ {
			if err := oneShot(); err != nil {
				return nil, err
			}
		}
		cached := time.Since(start)
		r := ReplayResult{
			Prim:         sp.prim,
			ColdPerSec:   float64(iters) / cold.Seconds(),
			CachedPerSec: float64(iters) / cached.Seconds(),
		}
		r.Speedup = r.CachedPerSec / r.ColdPerSec
		out = append(out, r)
	}
	return out, nil
}

// RunReplay runs the replay-throughput experiment and writes its table.
func RunReplay(o Options, iters int) error {
	if iters <= 0 {
		iters = 300
	}
	size := sizeFor(o, 64<<10, 1<<20)
	results, err := MeasureReplay(size, iters)
	if err != nil {
		return err
	}
	t := newTable("Primitive", "Cold compile/s", "Cached replay/s", "Replay speedup")
	for _, r := range results {
		t.add(r.Prim.LongName(),
			fmt.Sprintf("%.0f", r.ColdPerSec),
			fmt.Sprintf("%.0f", r.CachedPerSec),
			fmt.Sprintf("%.1fx", r.Speedup))
	}
	t.write(o.W)
	fmt.Fprintf(o.W, "(cost-only backend, 1024 PEs (32x32), %d KiB/PE, %d iterations per mode)\n", size>>10, iters)
	return nil
}

func init() {
	register("replay", "Plan-cache replay throughput: cold compile-each-call vs cached CompiledPlan replay", func(o Options) error {
		return RunReplay(o, 300)
	})
}
