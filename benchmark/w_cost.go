package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/pidcomm"
)

// costSweep is the cost_sweep workload: cost-only, on the phantom 1024-PE
// paper system. Every pass starts from fresh machines — cold plan,
// trace, sequence and Auto caches — and compiles and runs each point of
// the sweep exactly once, which is what `pidbench -backend=cost` sweeps
// and `bench-compare` do: core lowering, fusion, Auto resolution and
// charge tracing, the algo registry, host burst tallies,
// dpu.LaunchCharges and the cluster lowering do the work; cached replay
// and the scheduler do little, vec and dram nothing.
type costSweep struct {
	ops_  []sweepOp
	sims  []float64          // simulated cost of each op of the last pass
	errs  int                // failed ops of the last pass
	fig14 map[string]float64 // fig14/<PRIM>/<level> reproduced in setup
}

// sweepShape is one hypercube of the sweep with the dims it is swept on.
type sweepShape struct {
	shape []int
	dims  []string
}

var sweepShapes = []sweepShape{
	{[]int{32, 32}, []string{"10", "01", "11"}},
	{[]int{8, 8, 16}, []string{"100", "011"}},
	{[]int{1024}, []string{"1"}},
}

var (
	sweepSizes  = []int{8 << 10, 64 << 10, 512 << 10} // bytes per PE
	sweepLevels = []pidcomm.Level{pidcomm.Baseline, pidcomm.PR, pidcomm.IM, pidcomm.CM, pidcomm.Auto}
	sweepHosts  = []int{8, 64, 256}
)

// sweepMRAM is the phantom per-PE MRAM: room for the largest payload's
// source at 0 and destination at 2m.
const sweepMRAM = 4 << 20

// sweepOp is one compile-once-run-once point. Exactly one of d, seq and
// cl describes it; mach indexes the pass's fresh machines.
type sweepOp struct {
	kind string // "prim", "algo", "auto_makespan", "sequence", "cluster"
	mach int
	d    pidcomm.Collective
	seq  []pidcomm.Collective
	cl   *pidcomm.ClusterCollective
}

// Machines of a pass: one per sweep shape, then one with the makespan
// Auto objective, then one cluster per host count.
func (w *costSweep) machAutoMakespan() int { return len(sweepShapes) }
func (w *costSweep) machCluster(i int) int { return len(sweepShapes) + 1 + i }

func (w *costSweep) ops() int { return len(w.ops_) }

// primDescriptor builds the fig14-layout Collective for a group size n
// and per-PE payload m. zero supplies Broadcast's host payloads (one
// shared read-only buffer: the cost backend never reads it).
func primDescriptor(prim pidcomm.Primitive, dims string, n, groups, m int, lvl pidcomm.Level, zero []byte) pidcomm.Collective {
	d := pidcomm.Collective{Prim: prim, Dims: dims, Level: lvl}
	switch prim {
	case pidcomm.AlltoAll:
		d.Src, d.Dst = pidcomm.Span(0, m), pidcomm.At(2*m)
	case pidcomm.ReduceScatter, pidcomm.AllReduce:
		d.Src, d.Dst, d.Elem, d.Op = pidcomm.Span(0, m), pidcomm.At(2*m), pidcomm.I32, pidcomm.Sum
	case pidcomm.AllGather:
		d.Src, d.Dst = pidcomm.Span(0, m/n), pidcomm.At(2*m)
	case pidcomm.Scatter:
		d.Dst = pidcomm.Span(0, m)
	case pidcomm.Gather:
		d.Src = pidcomm.Span(0, m)
	case pidcomm.Reduce:
		d.Src, d.Elem, d.Op = pidcomm.Span(0, m), pidcomm.I32, pidcomm.Sum
	case pidcomm.Broadcast:
		d.Hosts = make([][]byte, groups)
		for g := range d.Hosts {
			d.Hosts[g] = zero[:m]
		}
		d.Dst = pidcomm.At(0)
	}
	return d
}

// buildOps lists the sweep in a fixed order. The one fixed skip rule: an
// explicit algorithm is swept only where the registry applies it —
// AllReduce x {ring, tree, rsag} and Broadcast x {ring, tree} at
// Baseline on groups of at least two PEs — and the flat cluster
// AllReduce takes no host algorithm.
func (w *costSweep) buildOps(e *env) error {
	sizes, hosts := sweepSizes, sweepHosts
	if e.smoke {
		sizes, hosts = []int{8 << 10}, []int{8}
	}
	zero := make([]byte, sizes[len(sizes)-1])
	for mi, sh := range sweepShapes {
		mach, err := pidcomm.NewMachine(pidcomm.PaperSystem(sweepMRAM), sh.shape, pidcomm.CostOnly())
		if err != nil {
			return err
		}
		for _, dims := range sh.dims {
			groups, err := mach.Groups(dims)
			if err != nil {
				return err
			}
			n := len(groups[0])
			for _, prim := range core.Primitives() {
				for _, lvl := range sweepLevels {
					for _, m := range sizes {
						w.ops_ = append(w.ops_, sweepOp{kind: "prim", mach: mi,
							d: primDescriptor(prim, dims, n, len(groups), m, lvl, zero)})
					}
				}
			}
			for _, m := range sizes {
				for _, alg := range []pidcomm.Algorithm{pidcomm.AlgoRing, pidcomm.AlgoTree, pidcomm.AlgoRabenseifner} {
					d := primDescriptor(pidcomm.AllReduce, dims, n, len(groups), m, pidcomm.Baseline, zero)
					d.Algorithm = alg
					w.ops_ = append(w.ops_, sweepOp{kind: "algo", mach: mi, d: d})
				}
				for _, alg := range []pidcomm.Algorithm{pidcomm.AlgoRing, pidcomm.AlgoTree} {
					d := primDescriptor(pidcomm.Broadcast, dims, n, len(groups), m, pidcomm.Baseline, zero)
					d.Algorithm = alg
					w.ops_ = append(w.ops_, sweepOp{kind: "algo", mach: mi, d: d})
				}
			}
		}
	}
	// One AutoMakespan resolution per primitive, and the two fused
	// sequences the apps compile, on the 32x32 machine shape.
	mid := sizes[len(sizes)/2]
	for _, prim := range core.Primitives() {
		w.ops_ = append(w.ops_, sweepOp{kind: "auto_makespan", mach: w.machAutoMakespan(),
			d: primDescriptor(prim, "10", 32, 32, mid, pidcomm.Auto, zero)})
	}
	rs := primDescriptor(pidcomm.ReduceScatter, "10", 32, 32, mid, pidcomm.IM, zero)
	aa := pidcomm.Collective{Prim: pidcomm.AlltoAll, Dims: "10",
		Src: pidcomm.Span(2*mid, mid/32), Dst: pidcomm.At(3 * mid), Level: pidcomm.CM}
	sc := primDescriptor(pidcomm.Scatter, "10", 32, 32, mid, pidcomm.IM, zero)
	br := primDescriptor(pidcomm.Broadcast, "10", 32, 32, mid, pidcomm.Baseline, zero)
	br.Dst = pidcomm.At(2 * mid)
	w.ops_ = append(w.ops_,
		sweepOp{kind: "sequence", mach: 0, seq: []pidcomm.Collective{rs, aa}},
		sweepOp{kind: "sequence", mach: 0, seq: []pidcomm.Collective{sc, br}})
	for hi := range hosts {
		for _, v := range []struct {
			alg  pidcomm.Algorithm
			flat bool
		}{{pidcomm.AlgoRing, false}, {pidcomm.AlgoTree, false}, {pidcomm.AlgoAuto, true}} {
			d := clusterAllReduce(clusterPinPerPE)
			d.Algorithm, d.Flat = v.alg, v.flat
			w.ops_ = append(w.ops_, sweepOp{kind: "cluster", mach: w.machCluster(hi), cl: &d})
		}
	}
	w.sims = make([]float64, len(w.ops_))
	return nil
}

// The pinned cluster point of bench_baseline.json: 64 hosts of one
// four-rank channel (256 PEs), 16 KiB per PE, global AllReduce at CM.
const (
	clusterPinHosts = 64
	clusterPinPerPE = 16 << 10
)

func clusterHostGeometry() pidcomm.Geometry {
	return pidcomm.Geometry{Channels: 1, RanksPerChannel: 4, BanksPerChip: 8, MramPerBank: 64 << 10}
}

func clusterAllReduce(m int) pidcomm.ClusterCollective {
	return pidcomm.ClusterCollective{Collective: pidcomm.Collective{
		Prim: pidcomm.AllReduce, Dims: "1", Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
		Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.CM}}
}

func (w *costSweep) setup(e *env) error {
	if err := w.reproduceBaseline(); err != nil {
		return err
	}
	if err := w.buildOps(e); err != nil {
		return err
	}
	if err := w.pass(e.untraced()); err != nil { // warm-up
		return err
	}
	if w.errs > 0 {
		return fmt.Errorf("%d of %d sweep points failed in the warm-up pass", w.errs, len(w.ops_))
	}
	return nil
}

// reproduceBaseline recomputes, through the public API, the sixteen
// fig14/* values and cluster/hier_h64, cluster/flat_h64 of
// bench_baseline.json and requires them bit for bit.
func (w *costSweep) reproduceBaseline() error {
	base, err := readBaseline()
	if err != nil {
		return err
	}
	const m = 64 << 10
	zero := make([]byte, m)
	w.fig14 = map[string]float64{}
	var bad []string
	for _, prim := range core.Primitives() {
		for _, lvl := range []pidcomm.Level{pidcomm.Baseline, pidcomm.CM} {
			// One fresh machine per point, as the baseline collector does.
			mach, err := pidcomm.NewMachine(pidcomm.PaperSystem(512<<10), []int{32, 32}, pidcomm.CostOnly())
			if err != nil {
				return err
			}
			comm, err := mach.Comm()
			if err != nil {
				return err
			}
			bd, err := comm.Run(primDescriptor(prim, "10", 32, 32, m, lvl, zero))
			if err != nil {
				return fmt.Errorf("fig14 %v at %v: %w", prim, lvl, err)
			}
			key := "fig14/" + prim.String() + "/" + lvl.String()
			w.fig14[key] = float64(bd.Total())
			if want, ok := base[key]; !ok || want != float64(bd.Total()) {
				bad = append(bad, fmt.Sprintf("%s = %v, baseline %v", key, float64(bd.Total()), want))
			}
		}
	}
	for _, flat := range []bool{false, true} {
		cl, err := pidcomm.NewCluster(clusterPinHosts, clusterHostGeometry(), []int{256}, pidcomm.CostOnly())
		if err != nil {
			return err
		}
		d := clusterAllReduce(clusterPinPerPE)
		d.Flat = flat
		bd, err := cl.Run(d)
		if err != nil {
			return fmt.Errorf("cluster AllReduce (flat=%v): %w", flat, err)
		}
		key := "cluster/hier_h64"
		if flat {
			key = "cluster/flat_h64"
		}
		if want, ok := base[key]; !ok || want != float64(bd.Total()) {
			bad = append(bad, fmt.Sprintf("%s = %v, baseline %v", key, float64(bd.Total()), want))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench_baseline.json not reproduced bit for bit: %v", bad)
	}
	return nil
}

// sweepSpan names the root span of each kind of sweep point.
var sweepSpan = map[string]string{
	"prim": "sweep.prim", "algo": "sweep.algo", "auto_makespan": "sweep.auto_makespan",
	"sequence": "sweep.sequence", "cluster": "sweep.cluster",
}

// compiled is what a sweep point compiles to: a single-machine plan or a
// cluster plan.
type compiled interface {
	Run() (pidcomm.Breakdown, error)
	Cost() pidcomm.Breakdown
}

func (w *costSweep) pass(e *env) error {
	hosts := sweepHosts
	if e.smoke {
		hosts = []int{8}
	}
	// Fresh machines: every cache of the pass starts cold.
	comms := make([]*pidcomm.Comm, len(sweepShapes)+1)
	for i := range comms {
		shape := []int{32, 32}
		if i < len(sweepShapes) {
			shape = sweepShapes[i].shape
		}
		sp := e.tr.begin("pidcomm.new_machine")
		mach, err := pidcomm.NewMachine(pidcomm.PaperSystem(sweepMRAM), shape, pidcomm.CostOnly())
		e.tr.end(sp)
		if err != nil {
			return err
		}
		if i == w.machAutoMakespan() {
			mach.SetAutoObjective(pidcomm.AutoMakespan)
		}
		if comms[i], err = mach.Comm(); err != nil {
			return err
		}
	}
	clusters := make([]*pidcomm.Cluster, len(hosts))
	for i, h := range hosts {
		sp := e.tr.begin("pidcomm.new_cluster")
		cl, err := pidcomm.NewCluster(h, clusterHostGeometry(), []int{256}, pidcomm.CostOnly())
		e.tr.end(sp)
		if err != nil {
			return err
		}
		clusters[i] = cl
	}

	w.errs = 0
	for i := range w.ops_ {
		op := &w.ops_[i]
		e.tr.nextOp()
		root := e.tr.begin(sweepSpan[op.kind])
		compileSpan, runSpan := "pidcomm.compile", "pidcomm.run"
		if op.cl != nil {
			compileSpan, runSpan = "cluster.compile", "cluster.run"
		}
		var plan compiled
		var err error
		sp := e.tr.begin(compileSpan)
		switch {
		case op.cl != nil:
			plan, err = clusters[op.mach-w.machCluster(0)].Compile(*op.cl)
		case op.seq != nil:
			plan, err = comms[op.mach].CompileSequence(op.seq...)
		default:
			plan, err = comms[op.mach].Compile(op.d)
		}
		e.tr.end(sp)
		var want, got float64
		if err == nil {
			sp = e.tr.begin(runSpan)
			var bd pidcomm.Breakdown
			bd, err = plan.Run()
			e.tr.end(sp)
			want, got = float64(plan.Cost().Total()), float64(bd.Total())
		}
		e.tr.end(root)
		// The charged total must agree with the plan's precomputed cost
		// to rounding (Run reports a difference of meter snapshots).
		if err != nil || math.Abs(got-want) > 1e-9*want {
			w.errs++
		}
		w.sims[i] = want
	}
	e.tr.count("core.plans_compiled", int64(len(w.ops_)))
	e.tr.count("core.replays", int64(len(w.ops_)))
	return nil
}

func (w *costSweep) outcome() passSim {
	var total float64
	for _, s := range w.sims {
		total += s
	}
	return simDigest(total, w.sims, w.errs)
}

// finish has nothing left to check: the sweep moves no bytes, and its
// simulated values are compared pass against pass by the round runner.
func (w *costSweep) finish() (int, error) { return 0, nil }

// paperSpeedups are the only reference figures the repository holds: the
// paper's 32x32 PID-Comm-over-baseline speedups for AlltoAll,
// ReduceScatter and AllReduce. The cost model is otherwise unvalidated.
var paperSpeedups = []struct {
	prim  string
	paper float64
}{{"AA", 5.19}, {"RS", 4.46}, {"AR", 4.23}}

// layers reports the compile-side layers: cold and cached Compile, Auto
// resolution, sequence fusion, the explicit-algorithm lowerings and the
// cluster lowering, plus the cost-only leaf drivers and the simulated
// fig14 speedups with their error against the paper.
func (w *costSweep) layers(e *env, m metrics) error {
	tr := e.tr
	passes := float64(len(tr.durations("pidcomm.new_machine"))) / float64(len(sweepShapes)+1)
	passNs := tr.total("sweep.prim") + tr.total("sweep.algo") + tr.total("sweep.auto_makespan") +
		tr.total("sweep.sequence") + tr.total("sweep.cluster") + tr.total("pidcomm.new_machine") + tr.total("pidcomm.new_cluster")
	m["core.compile_share"] = (tr.total("pidcomm.compile") + tr.total("cluster.compile")) / passNs
	m["core.plans_compiled"] = float64(tr.counts["core.plans_compiled"]) / passes
	m["core.replays"] = float64(tr.counts["core.replays"]) / passes
	m["core.steps"] = 0
	m["core.cluster_compile_us"] = median(tr.durations("cluster.compile")) / 1e3
	m["core.cluster_run_us"] = median(tr.durations("cluster.run")) / 1e3
	m["pidcomm.new_machine_cost_ms"] = median(tr.durations("pidcomm.new_machine")) / 1e6

	var errs []float64
	for _, p := range paperSpeedups {
		sp := w.fig14["fig14/"+p.prim+"/Base"] / w.fig14["fig14/"+p.prim+"/+CM"]
		m["cost.fig14_speedup_"+p.prim] = sp
		errs = append(errs, math.Abs(sp-p.paper)/p.paper)
	}
	m["cost.paper_err_mean"] = meanOf(errs)

	if err := w.compileDrivers(e, m); err != nil {
		return err
	}
	if err := hostTallyDriver(e, m); err != nil {
		return err
	}
	return dpuChargesDriver(e, m)
}

// compileDrivers times single Compile calls on fresh cost-only machines:
// each sample is one cold compile, so samples come from many machines.
func (w *costSweep) compileDrivers(e *env, m metrics) error {
	const size = 64 << 10
	zero := make([]byte, size)
	fresh := func(objective pidcomm.AutoObjective) (*pidcomm.Comm, error) {
		mach, err := pidcomm.NewMachine(pidcomm.PaperSystem(sweepMRAM), []int{32, 32}, pidcomm.CostOnly())
		if err != nil {
			return nil, err
		}
		mach.SetAutoObjective(objective)
		return mach.Comm()
	}
	// timeCompiles compiles build(prim) for every primitive on `rounds`
	// fresh machines and returns the per-call host times in ns, with the
	// plans of the last machine.
	timeCompiles := func(build func(prim pidcomm.Primitive) pidcomm.Collective, prims []pidcomm.Primitive) ([]float64, *pidcomm.Comm, []*pidcomm.CompiledPlan, error) {
		rounds := 20
		if e.smoke {
			rounds = 1
		}
		var ns []float64
		var comm *pidcomm.Comm
		var plans []*pidcomm.CompiledPlan
		for r := 0; r < rounds; r++ {
			var err error
			if comm, err = fresh(pidcomm.AutoMeter); err != nil {
				return nil, nil, nil, err
			}
			plans = plans[:0]
			for _, prim := range prims {
				d := build(prim)
				t0 := time.Now()
				plan, err := comm.Compile(d)
				ns = append(ns, float64(time.Since(t0)))
				if err != nil {
					return nil, nil, nil, err
				}
				plans = append(plans, plan)
			}
		}
		return ns, comm, plans, nil
	}
	at := func(lvl pidcomm.Level, alg pidcomm.Algorithm) func(pidcomm.Primitive) pidcomm.Collective {
		return func(prim pidcomm.Primitive) pidcomm.Collective {
			d := primDescriptor(prim, "10", 32, 32, size, lvl, zero)
			d.Algorithm = alg
			return d
		}
	}
	all := core.Primitives()

	cold, comm, plans, err := timeCompiles(at(pidcomm.CM, pidcomm.AlgoAuto), all)
	if err != nil {
		return err
	}
	m["core.compile_cold_us"] = median(cold) / 1e3
	// A cached Compile: the same descriptors again on the last machine.
	// Broadcast binds caller payloads and is never cached, so it is left
	// out of the hit loop.
	cached := all[:len(all)-1]
	m["core.compile_hit_ns"] = perCall(e, 20000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := comm.Compile(at(pidcomm.CM, pidcomm.AlgoAuto)(cached[i%len(cached)])); err != nil {
				panic(err) // compiled a moment ago on this machine
			}
		}
	})
	var mk []float64
	for _, p := range plans {
		segs := p.LaneSegments()
		mk = append(mk, perCall(e, 2000, func(n int) {
			for i := 0; i < n; i++ {
				sinkSec = cost.PipelinedMakespan(segs, core.AutoPipelineDepth)
			}
		}))
	}
	m["cost.pipelined_makespan_us"] = median(mk) / 1e3

	auto, _, _, err := timeCompiles(at(pidcomm.Auto, pidcomm.AlgoAuto), all)
	if err != nil {
		return err
	}
	m["core.auto_resolve_us"] = median(auto) / 1e3

	for _, a := range []struct {
		name string
		alg  pidcomm.Algorithm
	}{{"ring", pidcomm.AlgoRing}, {"tree", pidcomm.AlgoTree}, {"rsag", pidcomm.AlgoRabenseifner}} {
		ns, _, _, err := timeCompiles(at(pidcomm.Baseline, a.alg), []pidcomm.Primitive{pidcomm.AllReduce})
		if err != nil {
			return err
		}
		m["algo.lower_"+a.name+"_us"] = median(ns) / 1e3
	}

	rounds := 20
	if e.smoke {
		rounds = 1
	}
	var seq []float64
	for r := 0; r < rounds; r++ {
		c, err := fresh(pidcomm.AutoMeter)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = c.CompileSequence(w.ops_[w.firstSequence()].seq...)
		seq = append(seq, float64(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	m["core.compile_sequence_us"] = median(seq) / 1e3
	return nil
}

// firstSequence is the index of the RS->AA sequence op.
func (w *costSweep) firstSequence() int {
	for i, op := range w.ops_ {
		if op.seq != nil {
			return i
		}
	}
	panic("cost_sweep: no sequence op in the sweep")
}
