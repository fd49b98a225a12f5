package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// metrics maps a metric name to its value; units live in spec.go.
type metrics map[string]float64

// env is everything a workload receives from the command line. The
// program under test sees only inputs generated from seed.
type env struct {
	seed  int64
	smoke bool    // tiny shapes for the CI hook: numbers mean nothing
	tr    *tracer // nil in untraced rounds
}

// rng returns the generator for one named input stream of this run.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1000003 + stream))
}

// untraced returns e without its tracer, for warm-up passes.
func (e *env) untraced() *env {
	u := *e
	u.tr = nil
	return &u
}

// simOutcome is the simulated-clock outcome of one pass. It must repeat
// bit for bit from pass to pass, round to round and — traced or not — run
// to run at equal seed; two outcomes are compared with ==.
type simOutcome struct {
	Total float64 `json:"total_s"` // simulated seconds the pass charged
	P99   float64 `json:"p99_s"`   // nearest-rank p99 of per-op simulated latency
	// Failed counts requests the simulated system shed or finished past
	// their deadline: an outcome on the simulated clock (it moves only when
	// the modelled system changes), kept apart from failures of the
	// program itself.
	Failed   int    `json:"failed"`
	Checksum uint64 `json:"checksum"` // digest of every per-op simulated value
}

// passSim is what one pass produced: its simulated outcome and the number
// of ops that returned an error or a wrong output.
type passSim struct {
	sim    simOutcome
	failed int
}

// workload is one named benchmark workload. Work per pass is fixed; only
// the number of passes depends on the time budget.
type workload interface {
	// setup does everything a process pays before its first timed pass:
	// machine construction, input generation and fill, cold compiles,
	// calibration, output checks and one warm-up pass.
	setup(e *env) error
	// pass runs the fixed work once. With e.tr set it records spans.
	pass(e *env) error
	// outcome digests the most recent pass; called outside the timer.
	outcome() passSim
	// ops is the op count of one pass.
	ops() int
	// finish re-checks outputs after the timed passes and returns the
	// number of mismatches.
	finish() (int, error)
	// layers fills the per-layer metrics this workload provides: what the
	// spans of the traced passes show plus the layer drivers that belong
	// to it. Called once, after the traced passes.
	layers(e *env, m metrics) error
}

// workloadSpec names a workload and says why it is in the benchmark.
type workloadSpec struct {
	name string
	why  string
	new  func() workload
}

// workloads lists the benchmark's workloads in report order. The why
// lines are mirrored in BENCHMARK.json (bench_test.go checks that).
var workloads = []workloadSpec{
	{"func_replay", "functional replay of 16 cached plans on 256 PEs: bytes really move, so host/dram/vec/par do the work and compile, Timeline and schedulers do none",
		func() workload { return &funcReplay{} }},
	{"app_mix", "DLRM/GNN/MLP/BFS/CC miniatures at Baseline and CM: cold compiles, placement, dpu.Launch kernels, async submits and allocation churn - the path users wait longest for",
		func() workload { return &appMix{} }},
	{"cost_sweep", "cost-only compile-once-run-once sweep on a cold 1024-PE machine: core lowering/fuse/auto/tracing, algo, burst tallies and cluster lowering work; replay, scheduler, vec and dram idle",
		func() workload { return &costSweep{} }},
	{"serve_steady", "open-loop serving at rho 0.9 under EDF, WFQ and EDF with tenant churn: cached plans, SubmitOpts, Step, Timeline placement and charge replay; lookahead scoring idle",
		func() workload { return &serveSteady{} }},
	{"serve_lookahead", "12 tenants at rho 0.95 under the lookahead scheduler: Timeline.Clone plus dry placement per candidate dominates, the opposite use of the queue and timeline from serve_steady",
		func() workload { return &serveLookahead{} }},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// simDigest folds per-op simulated latencies into a passSim: total is
// given by the caller (what the pass charged), p99 is nearest-rank over
// lat, and the checksum covers every value so two passes that differ in
// any op differ in the digest.
func simDigest(total float64, lat []float64, failed int) passSim {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	return passSim{failed: failed,
		sim: simOutcome{Total: total, P99: nearestRank(s, 0.99), Checksum: checksumFloats(lat)}}
}
