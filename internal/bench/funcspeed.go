package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
)

// funcspeed measures the parallel functional backend itself: the same
// compiled plan replayed serially (ExecWorkers=1) and on the worker pool
// (ExecWorkers=min(8, NumCPU)), reporting wall-clock — the only
// experiment in the suite whose subject is host execution speed rather
// than simulated cost. The gated metric is the parallel/serial elapsed
// ratio (lower is better): it is ~1.0 on a single-core machine (both
// settings run the same serial path, so the gate never false-fails
// there) and well below 1 wherever the pool can spread out, which makes
// executor-overhead regressions visible on any hardware. The hard >= 5x
// pin at 8 workers lives in core's TestFuncSpeedup.

// funcSpeedResult is one funcspeed measurement.
type funcSpeedResult struct {
	Workers          int
	Serial, Parallel time.Duration
}

// measureFuncSpeed compiles a functional CM AlltoAll over shape and
// replays it at 1 worker and at `workers`, returning the best-of-trials
// elapsed time for each. Best-of (not mean) keeps the ratio stable under
// scheduler noise, which matters because the ratio is regression-gated.
func measureFuncSpeed(shape []int, recvPerPE, workers, trials int) (funcSpeedResult, error) {
	n := 1
	for _, l := range shape {
		n *= l
	}
	comm, err := newPrimComm(shape, n, recvPerPE, false)
	if err != nil {
		return funcSpeedResult{}, err
	}
	rng := rand.New(rand.NewSource(21))
	buf := make([]byte, recvPerPE)
	for pe := 0; pe < n; pe++ {
		rng.Read(buf)
		comm.SetPEBuffer(pe, 0, buf)
	}
	cp, err := comm.Compile(core.Collective{Prim: core.AlltoAll, Dims: "10",
		Src: core.Span(0, recvPerPE), Dst: core.At(2 * recvPerPE), Level: core.CM})
	if err != nil {
		return funcSpeedResult{}, err
	}
	measure := func(w int) (time.Duration, error) {
		comm.SetExecWorkers(w)
		if _, err := cp.Run(); err != nil { // warm at this worker count
			return 0, err
		}
		best := time.Duration(1<<63 - 1)
		for i := 0; i < trials; i++ {
			t0 := time.Now()
			if _, err := cp.Run(); err != nil {
				return 0, err
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best, nil
	}
	res := funcSpeedResult{Workers: workers}
	if res.Serial, err = measure(1); err != nil {
		return res, err
	}
	res.Parallel, err = measure(workers)
	return res, err
}

// funcSpeedWorkers is the pool size funcspeed measures: the gate's 8
// workers, clamped to the machine.
func funcSpeedWorkers() int {
	w := runtime.NumCPU()
	if w > 8 {
		w = 8
	}
	return w
}

func init() {
	register("funcspeed", "Parallel functional backend: serial vs worker-pool replay wall-clock", func(o Options) error {
		shape := []int{16, 16}
		size := sizeFor(o, 32<<10, 256<<10)
		r, err := measureFuncSpeed(shape, size, funcSpeedWorkers(), 5)
		if err != nil {
			return err
		}
		t := newTable("Shape", "Bytes/PE", "Workers", "Serial", "Parallel", "Speedup")
		t.add(fmt.Sprintf("%v", shape), fmt.Sprintf("%dK", size>>10), fmt.Sprint(r.Workers),
			r.Serial.Round(time.Microsecond).String(), r.Parallel.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", float64(r.Serial)/float64(r.Parallel)))
		t.write(o.W)
		if runtime.NumCPU() == 1 {
			fmt.Fprintln(o.W, "\n(single-CPU machine: both settings run the serial path; speedup ~1x is expected)")
		}
		return nil
	})
}
