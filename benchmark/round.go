package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// roundResult is what one round of one workload measured: one process's
// setup, its timed passes and, in a traced round, its per-layer metrics.
// A child process prints it as JSON; the parent pools several.
type roundResult struct {
	// ReadyUnixNano is the wall-clock instant the first timed pass began;
	// the parent subtracts the instant it spawned the process to get
	// setup_s including process start. SetupNs is the same interval
	// measured from the top of main, for in-process rounds.
	ReadyUnixNano int64 `json:"ready_unix_ns"`
	SetupNs       int64 `json:"setup_ns"`
	// PassNs are the wall times of the timed passes, in order.
	PassNs []int64 `json:"pass_ns"`
	// OpsPerPass is the fixed op count of a pass.
	OpsPerPass int `json:"ops_per_pass"`
	// Mallocs and AllocBytes are runtime.MemStats deltas summed over the
	// timed passes only; CPUNs is process CPU time over the same spans.
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	CPUNs      int64  `json:"cpu_ns"`
	// Sim is the simulated outcome of a pass — identical for every pass of
	// the round, or the round fails.
	Sim simOutcome `json:"sim"`
	// Failed counts ops that errored or returned a wrong output over the
	// timed passes and the final output check.
	Failed int `json:"failed"`
	// MaxRSSKiB is the peak resident set of the process that ran the round.
	MaxRSSKiB int64 `json:"max_rss_kib"`
	// Layer holds the per-layer metrics of a traced round.
	Layer metrics `json:"layer,omitempty"`
	// TraceFile is where a traced round wrote its spans.
	TraceFile string `json:"trace_file,omitempty"`
}

// roundConfig sizes one round.
type roundConfig struct {
	spec     workloadSpec
	seed     int64
	smoke    bool
	traced   bool
	budget   time.Duration // timed-pass time to fill; at least one pass runs
	start    time.Time     // process (or in-process round) start
	traceDir string
}

// processCPU returns the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfMaxRSSKiB returns this process's peak resident set in KiB: VmHWM
// of /proc/self/status where there is one. ru_maxrss is only the
// fallback, because on Linux a child's ru_maxrss starts at the resident
// set its parent had when it spawned it, which would book the parent's
// memory to small workloads.
func selfMaxRSSKiB() int64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kib, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64); err == nil {
					return kib
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// runRound sets a workload up, runs timed passes until the budget is
// spent, checks outputs again and, when traced, collects the per-layer
// metrics. The work of a pass never depends on the budget; only the
// number of passes does.
func runRound(rc roundConfig) (roundResult, error) {
	e := &env{seed: rc.seed, smoke: rc.smoke}
	if rc.traced {
		e.tr = newTracer()
	}
	w := rc.spec.new()
	if err := w.setup(e); err != nil {
		return roundResult{}, fmt.Errorf("%s: setup: %w", rc.spec.name, err)
	}
	res := roundResult{OpsPerPass: w.ops()}
	runtime.GC() // start every round's timed passes from a collected heap
	res.SetupNs = int64(time.Since(rc.start))
	res.ReadyUnixNano = time.Now().UnixNano()

	var before, after runtime.MemStats
	var spent time.Duration
	for n := 0; n == 0 || spent < rc.budget; n++ {
		runtime.ReadMemStats(&before)
		cpu0 := processCPU()
		t0 := time.Now()
		err := w.pass(e)
		dt := time.Since(t0)
		cpu1 := processCPU()
		runtime.ReadMemStats(&after)
		if err != nil {
			return roundResult{}, fmt.Errorf("%s: pass %d: %w", rc.spec.name, n, err)
		}
		spent += dt
		res.PassNs = append(res.PassNs, int64(dt))
		res.Mallocs += after.Mallocs - before.Mallocs
		res.AllocBytes += after.TotalAlloc - before.TotalAlloc
		res.CPUNs += int64(cpu1 - cpu0)
		out := w.outcome()
		res.Failed += out.failed
		if n == 0 {
			res.Sim = out.sim
		} else if out.sim != res.Sim {
			return roundResult{}, fmt.Errorf("%s: pass %d simulated outcome %+v differs from pass 0's %+v: the simulated clock must repeat bit for bit",
				rc.spec.name, n, out.sim, res.Sim)
		}
	}

	bad, err := w.finish()
	if err != nil {
		return roundResult{}, fmt.Errorf("%s: output check after the timed passes: %w", rc.spec.name, err)
	}
	res.Failed += bad

	if rc.traced {
		res.Layer = metrics{}
		if wall := float64(spent); wall > 0 {
			res.Layer["par.cpu_per_wall"] = float64(res.CPUNs) / wall
		}
		if err := w.layers(e, res.Layer); err != nil {
			return roundResult{}, fmt.Errorf("%s: layer metrics: %w", rc.spec.name, err)
		}
		path, err := e.tr.write(rc.traceDir, rc.spec.name, rc.seed)
		if err != nil {
			return roundResult{}, fmt.Errorf("%s: writing trace: %w", rc.spec.name, err)
		}
		res.TraceFile = path
	}
	res.MaxRSSKiB = selfMaxRSSKiB()
	return res, nil
}
