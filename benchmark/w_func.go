package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/pidcomm"
)

// funcReplay is the func_replay workload: the functional backend on a
// 16x16 hypercube (256 PEs, 1 channel x 4 ranks), 32 KiB per PE. Setup
// fills MRAM from the seed and compiles the eight primitives on dims
// "10" at Baseline and CM from Collective literals (16 plans); a pass
// replays each plan once. Bytes really move, so host/dram/vec/par do
// almost all the work and compile, cost.Timeline and the schedulers none.
type funcReplay struct {
	mach   *pidcomm.Machine
	comm   *pidcomm.Comm
	groups [][]int
	m      int      // payload bytes per PE
	n      int      // group size
	fill   [][]byte // per-PE source bytes, from the seed
	scBufs [][]byte // Scatter host payloads, one per group
	brBufs [][]byte // Broadcast host payloads, one per group
	plans  []funcPlan
	sims   []float64 // simulated cost of each op of the last pass
	errs   int       // plan errors of the last pass
	setupT setupTimes
}

// funcPlan is one compiled plan of the pass.
type funcPlan struct {
	name string // "<PRIM>.<level>", e.g. "AA.cm"
	span string // span name of a replay, built once so that a pass allocates nothing of its own
	d    pidcomm.Collective
	plan *pidcomm.CompiledPlan
}

// setupTimes are host times setup measured on its way, reported as
// per-layer metrics of the traced round.
type setupTimes struct {
	newMachine time.Duration
	fillBytes  int
	fill       time.Duration
}

const funcExecWorkers = 2 // main goroutine plus one helper: the 2-core sandbox

func (w *funcReplay) geometry() pidcomm.Geometry {
	return pidcomm.Geometry{Channels: 1, RanksPerChannel: 4, BanksPerChip: 8, MramPerBank: 4 * w.m}
}

func (w *funcReplay) ops() int { return len(w.plans) }

func (w *funcReplay) setup(e *env) error {
	w.m = 32 << 10
	if e.smoke {
		w.m = 4 << 10
	}
	t0 := time.Now()
	sp := e.tr.begin("pidcomm.new_machine")
	mach, err := pidcomm.NewMachine(w.geometry(), []int{16, 16}, pidcomm.WithExecWorkers(funcExecWorkers))
	e.tr.end(sp)
	if err != nil {
		return err
	}
	w.setupT.newMachine = time.Since(t0)
	w.mach = mach
	if w.comm, err = mach.Comm(); err != nil {
		return err
	}
	if w.groups, err = mach.Groups("10"); err != nil {
		return err
	}
	w.n = len(w.groups[0])

	rng := e.rng(1)
	w.fill = make([][]byte, mach.NumPEs())
	for pe := range w.fill {
		w.fill[pe] = make([]byte, w.m)
		rng.Read(w.fill[pe])
	}
	w.scBufs = make([][]byte, len(w.groups))
	w.brBufs = make([][]byte, len(w.groups))
	for g := range w.groups {
		w.scBufs[g] = make([]byte, w.n*w.m)
		rng.Read(w.scBufs[g])
		w.brBufs[g] = make([]byte, w.m)
		rng.Read(w.brBufs[g])
	}
	t0 = time.Now()
	w.fillSources()
	w.setupT.fill, w.setupT.fillBytes = time.Since(t0), mach.NumPEs()*w.m

	for _, prim := range core.Primitives() {
		for _, lvl := range []pidcomm.Level{pidcomm.Baseline, pidcomm.CM} {
			d := w.descriptor(prim, lvl)
			e.tr.nextOp()
			sp := e.tr.begin("pidcomm.compile")
			plan, err := w.comm.Compile(d)
			e.tr.end(sp)
			if err != nil {
				return fmt.Errorf("compiling %v at %v: %w", prim, lvl, err)
			}
			e.tr.count("core.plans_compiled", 1)
			name := prim.String() + "." + levelTag(lvl)
			w.plans = append(w.plans, funcPlan{name: name, span: "pidcomm.run/" + name, d: d, plan: plan})
		}
	}
	w.sims = make([]float64, len(w.plans))
	// The output check before the timed passes runs every plan once, so it
	// is the warm-up pass too.
	if bad, err := w.verify(); err != nil {
		return err
	} else if bad > 0 {
		return fmt.Errorf("%d plan outputs differ from core.Ref* before the timed passes", bad)
	}
	return nil
}

// levelTag is the metric-name form of a level: "base" or "cm".
func levelTag(l pidcomm.Level) string {
	return strings.ToLower(strings.TrimPrefix(l.String(), "+"))
}

// descriptor builds the Collective literal of one plan: sources at arena
// offset 0, destinations at 2m, the layout fig14 uses.
func (w *funcReplay) descriptor(prim pidcomm.Primitive, lvl pidcomm.Level) pidcomm.Collective {
	m, s := w.m, w.m/w.n
	d := pidcomm.Collective{Prim: prim, Dims: "10", Level: lvl}
	switch prim {
	case pidcomm.AlltoAll:
		d.Src, d.Dst = pidcomm.Span(0, m), pidcomm.At(2*m)
	case pidcomm.ReduceScatter, pidcomm.AllReduce:
		d.Src, d.Dst, d.Elem, d.Op = pidcomm.Span(0, m), pidcomm.At(2*m), pidcomm.I32, pidcomm.Sum
	case pidcomm.AllGather:
		d.Src, d.Dst = pidcomm.Span(0, s), pidcomm.At(2*m)
	case pidcomm.Scatter:
		d.Hosts, d.Dst = w.scBufs, pidcomm.Span(0, m)
	case pidcomm.Gather:
		d.Src = pidcomm.Span(0, m)
	case pidcomm.Reduce:
		d.Src, d.Elem, d.Op = pidcomm.Span(0, m), pidcomm.I32, pidcomm.Sum
	case pidcomm.Broadcast:
		d.Hosts, d.Dst = w.brBufs, pidcomm.At(2*m)
	}
	return d
}

// fillSources writes every PE's seeded bytes to arena offset 0. Levels
// from PR up reorder their source in place, so each output check starts
// from a fresh fill.
func (w *funcReplay) fillSources() {
	for pe, b := range w.fill {
		w.comm.SetPEBuffer(pe, 0, b)
	}
}

func (w *funcReplay) pass(e *env) error {
	w.errs = 0
	for i := range w.plans {
		p := &w.plans[i]
		e.tr.nextOp()
		sp := e.tr.begin(p.span)
		bd, err := p.plan.Run()
		e.tr.end(sp)
		// Run returns the difference of two cumulative meter snapshots, so
		// on a long-lived machine its low bits drift with the meter's
		// magnitude; the plan's precomputed cost is the bit-stable value.
		// The charged total must still agree with it to rounding.
		want := float64(p.plan.Cost().Total())
		if err != nil || math.Abs(float64(bd.Total())-want) > 1e-9*want {
			w.errs++
		}
		w.sims[i] = want
	}
	e.tr.count("core.replays", int64(len(w.plans)))
	return nil
}

func (w *funcReplay) outcome() passSim {
	var total float64
	for _, s := range w.sims {
		total += s
	}
	return simDigest(total, w.sims, w.errs)
}

func (w *funcReplay) finish() (int, error) { return w.verify() }

// verify runs every plan once on freshly filled sources and compares its
// output bytes with the reference model; it returns the mismatch count.
func (w *funcReplay) verify() (int, error) {
	bad := 0
	for i := range w.plans {
		p := &w.plans[i]
		w.fillSources()
		if _, err := p.plan.Run(); err != nil {
			return bad, fmt.Errorf("%s: %w", p.name, err)
		}
		if !w.outputMatches(p) {
			bad++
		}
	}
	return bad, nil
}

// outputMatches compares one plan's output, group by group, with the
// core.Ref* model applied to the seeded inputs.
func (w *funcReplay) outputMatches(p *funcPlan) bool {
	m, n, s := w.m, w.n, w.m/w.n
	var rooted [][]byte
	if p.d.Prim == pidcomm.Gather || p.d.Prim == pidcomm.Reduce {
		rooted = p.plan.Results()
		if len(rooted) != len(w.groups) {
			return false
		}
	}
	for g, pes := range w.groups {
		srcLen := m
		if p.d.Prim == pidcomm.AllGather {
			srcLen = s
		}
		in := make([][]byte, n)
		for i, pe := range pes {
			in[i] = w.fill[pe][:srcLen]
		}
		var want [][]byte
		switch p.d.Prim {
		case pidcomm.AlltoAll:
			want = core.RefAlltoAll(in, s)
		case pidcomm.ReduceScatter:
			want = core.RefReduceScatter(pidcomm.I32, pidcomm.Sum, in, s)
		case pidcomm.AllReduce:
			want = core.RefAllReduce(pidcomm.I32, pidcomm.Sum, in)
		case pidcomm.AllGather:
			want = core.RefAllGather(in)
		case pidcomm.Scatter:
			want = core.RefScatter(w.scBufs[g], n)
		case pidcomm.Broadcast:
			want = core.RefBroadcast(w.brBufs[g], n)
		case pidcomm.Gather:
			if !bytes.Equal(rooted[g], core.RefGather(in)) {
				return false
			}
			continue
		case pidcomm.Reduce:
			if !bytes.Equal(rooted[g], core.RefReduce(pidcomm.I32, pidcomm.Sum, in)) {
				return false
			}
			continue
		}
		for i, pe := range pes {
			if !bytes.Equal(w.comm.GetPEBuffer(pe, p.d.Dst.Off, len(want[i])), want[i]) {
				return false
			}
		}
	}
	return true
}

// layers reports what the traced passes' spans show per plan, the setup
// timings, and the leaf-layer drivers at this workload's geometry: 256
// PEs, one payload deep, two workers.
func (w *funcReplay) layers(e *env, m metrics) error {
	for _, p := range w.plans {
		m["core.replay_func."+p.name+"_us"] = median(e.tr.durations(p.span)) / 1e3
	}
	m["core.plans_compiled"] = 0 // all 16 compiles happen in setup
	m["core.replays"] = float64(len(w.plans))
	m["core.steps"] = 0
	m["core.compile_share"] = 0
	m["pidcomm.new_machine_func_ms"] = float64(w.setupT.newMachine) / 1e6
	m["pidcomm.set_pe_buffer_mbps"] = mbps(w.setupT.fillBytes, float64(w.setupT.fill))
	m["host.bursts_per_pass"] = float64(w.burstsPerPass())

	geo := w.geometry()
	vecDrivers(e, m)
	if err := dramBurstDrivers(e, m, geo, w.m); err != nil {
		return err
	}
	elemDriver(e, m, w.m)
	if err := hostBulkDrivers(e, m, geo, w.m, funcExecWorkers); err != nil {
		return err
	}
	parDriver(e, m, funcExecWorkers, w.mach.NumPEs())
	return nil
}

// burstsPerPass is the number of 64-byte bursts one pass moves across
// the bus, computed from the geometry (not measured): every byte a plan
// reads from or writes to a PE crosses once, whatever the level.
func (w *funcReplay) burstsPerPass() int {
	m, s := w.m, w.m/w.n
	perPE := 0
	for _, p := range w.plans {
		switch p.d.Prim {
		case pidcomm.AlltoAll, pidcomm.AllReduce:
			perPE += 2 * m
		case pidcomm.ReduceScatter, pidcomm.AllGather:
			perPE += m + s
		default: // Scatter, Gather, Reduce, Broadcast: one direction
			perPE += m
		}
	}
	return perPE * w.mach.NumPEs() / dram.BurstBytes
}
