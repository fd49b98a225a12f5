package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cost"
	"repro/internal/elem"
	"repro/internal/host"
)

// This file implements the plan/execute split: a collective is compiled
// once — validated, Auto-resolved, and its charges precomputed — into a
// CompiledPlan that can be replayed many times, so iterative workloads
// that repeat a call signature every layer/iteration (DLRM, GNN, MLP,
// BFS/CC — and the paper-scale sweeps of the bench harness) compile once
// and amortize all per-call setup.
//
// One pipeline: descriptor → specIn (collective.go) → compiled, where a
// collective is a sequence of one → rowLocked → buildLocked on a row
// miss. The shape table (comm.go) — a lone machine's own, or the one
// every host of a Cluster shares — is the one compile cache: it keys its
// rows by the members' arena-relative signatures, so a row serves every
// session at every arena base on every host; a row lowers its fused IR
// Schedule once, at those offsets, and holds no comm. A plan is its row
// bound at Compile to its owner, the owner's arena base and the host
// buffers its runs read or write (Hosts); a run binds its plan
// (Comm.cur), so a compile that finds its row lowers nothing. Auto's
// candidate dry builds (auto.go) fill and read the same rows, so the
// winner's compile traces nothing. A cluster's role rows are rows of the
// same table, keyed by descriptor and role (cluster.go).
//
// The precomputed charges are a *trace*: the exact sequence of meter
// additions a cost-only execution of the schedule performs, captured once
// on the shape table's one scratch tracer, reset per trace (the row keeps
// copies). Each addition's value depends only on the call shape
// — never on prior meter state, nor on where the arena sits
// (TestChargeTraceIsPositionIndependent) — so replaying the trace applies
// the same floating-point operands in the same order as the booking loop
// and the meter evolves bit-identically, while skipping its per-step
// pricing entirely. Every Run books the trace: on the cost-only backend
// that is the whole run, which is what makes cached replay orders of
// magnitude faster than compile-each-call; on the functional backend the
// schedule's steps then move the bytes, and book nothing.

// planKey identifies one compiled collective on a Comm: the full call
// signature with Auto already resolved to the effective level, its
// offsets relative to the session's arena. (The fusion level is not part
// of it: a comm has one for life.)
type planKey struct {
	prim           Primitive
	dims           string
	srcOff, dstOff int
	bytes          int
	elemType       elem.Type
	op             elem.Op
	lvl            Level
	// algo is the resolved lowering algorithm (never AlgoAuto): two
	// compilations of one signature through different algorithms are
	// distinct plans with distinct charge traces.
	algo Algorithm
}

// seqKey is the shape table's key: the first member's signature plus the
// remaining members' encoded in order (rowLocked) — empty for a single
// collective — plus a cluster role row's role.
type seqKey struct {
	head planKey
	tail string
	role roleKey
}

// planEntry is one shape row: what depends only on the call shape — never
// on data, meter state, caller buffers or the arena base — and so is
// shared by every plan built for the key, in any session: the first
// member's signature, the footprint (which the hazard checks shift by
// each plan's base), the trace and, on the functional backend, the fused
// schedule, whose offsets a run shifts by its plan's base. fusion reports
// what the fusion pipeline did (zero-valued under FuseOff); members and
// memberCosts are a sequence's member primitives and each one's unfused
// per-run cost (for proportional attribution by profilers), nil for a
// collective: its one member is key.prim, its cost the plan's. A
// session's Gather or Reduce row writes outs result buffers of outBytes
// each (rowLocked).
type planEntry struct {
	key            planKey
	members        []Primitive
	regs           planRegions
	sched          *Schedule
	tr             chargeTrace
	fusion         FusionReport
	memberCosts    []cost.Breakdown
	outs, outBytes int
}

// planSpec is one validated, Auto-resolved member: its arena-relative
// footprint (planRegions.set) and what buildLocked lowers on a row miss —
// a collective's resolved call, whose key is the member's signature, and
// lowering-table row, held by value so that a compile that finds its row
// costs nothing (specIn), or a hand-built member's schedule (cluster.go).
type planSpec struct {
	src, dst span
	consumed bool
	env      algoEnv
	lo       *lowering
	sched    *Schedule
}

// schedule lowers the member; a collective's lowering gets a copy of its
// resolved call.
func (sp *planSpec) schedule() Schedule {
	if sp.sched != nil {
		return *sp.sched
	}
	return sp.lo.lower(sp.env)
}

// chargeTrace is the precomputed accounting of one schedule: the meter
// additions of a cost-only execution, each run of equal ones to a
// category stored once (cost.Recorder), plus the cumulative
// bus-statistics delta. It depends only on the call shape, never on data
// or meter state, so it is shared by every plan with the same key
// (planEntry, which holds it in place: chans may back stats).
type chargeTrace struct {
	adds  []cost.TraceEntry
	stats host.XferStats
	total cost.Breakdown
	// segs is the trace coalesced into timeline lane segments, the unit
	// of overlap-aware elapsed-time placement (async.go).
	segs []cost.Segment
	// chans holds stats.BytesPerChannel on up to four channels (the
	// paper's system has four), so a row's trace is two slices.
	chans [4]int64
}

// CompiledPlan is a collective compiled once — a shape row of precomputed
// charges (and schedule, to run functionally) bound to its session's
// arena — ready to be replayed. Obtain one from Compile or CompileSequence; Run
// executes a replay. Plans stay valid for the lifetime of their Comm and
// may be Run from multiple goroutines (executions serialize on the Comm).
//
// A plan bound to Hosts serves that call alone: a Scatter or Broadcast
// replay reads their *current* contents, so callers refill the same
// slices between runs; a Gather or Reduce replay writes its results
// into them (or, compiled without, into its own: Results).
type CompiledPlan struct {
	// planEntry is the plan's shape row, shared with every plan of its key.
	*planEntry
	// owner is the tenant that compiled the plan: every run is attributed
	// to it and admitted against it; base is its arena base. Immutable.
	owner *Tenant
	base  int
	// hosts are the host buffers its runs read or write (algoEnv.hosts
	// indexes them): the caller's, a rooted plan's own, made on its first
	// functional run, or windows of st. Guarded by owner.c.execMu.
	hosts [][]byte
	// st is a functional cluster host plan's staging, which an AlltoAll's
	// pack and unpack steps read (cluster.go). Immutable.
	st *clusterState
}

// Primitive returns the plan's collective primitive.
func (cp *CompiledPlan) Primitive() Primitive { return cp.key.prim }

// Level returns the effective optimization level the plan was compiled
// at (Auto already resolved).
func (cp *CompiledPlan) Level() Level { return cp.key.lvl }

// Algorithm returns the lowering algorithm the plan was compiled
// through (Auto already resolved; AlgoReference for the built-in
// lowering).
func (cp *CompiledPlan) Algorithm() Algorithm { return cp.key.algo }

// Cost returns the plan's precomputed per-run cost breakdown — what one
// Run will charge, available without executing anything.
func (cp *CompiledPlan) Cost() cost.Breakdown { return cp.tr.total }

// LaneSegments returns a copy of the plan's per-run charge trace as
// timeline segments in charge order. It is the benchmark's seam: core's
// own placement (the async scheduler, Makespan) reads the row's segments
// in place.
func (cp *CompiledPlan) LaneSegments() []cost.Segment {
	return append([]cost.Segment(nil), cp.tr.segs...)
}

// Makespan returns the plan's pipelined dry-placed makespan at the
// autotuner's pipeline depth — the score the AutoMakespan objective
// minimizes.
func (cp *CompiledPlan) Makespan() cost.Seconds {
	return cost.PipelinedMakespan(cp.tr.segs, AutoPipelineDepth)
}

// FusionReport returns what the fusion pipeline did to this plan's
// schedule. For plans compiled with FuseOff the report is zero-valued.
func (cp *CompiledPlan) FusionReport() FusionReport { return cp.fusion }

// Members returns the plan's member primitives in execution order: the
// single primitive for an ordinary plan, the sequence members for a
// CompileSequence plan.
func (cp *CompiledPlan) Members() []Primitive {
	if cp.members == nil {
		return []Primitive{cp.key.prim}
	}
	return slices.Clone(cp.members)
}

// MemberCosts returns, for a CompileSequence plan, each member's unfused
// per-run cost breakdown (their sum is the sequence's FusionReport
// CostBefore); for a single plan it returns the plan's own cost.
// Profilers use the shares to attribute a fused run across primitives.
func (cp *CompiledPlan) MemberCosts() []cost.Breakdown {
	if cp.memberCosts == nil {
		return []cost.Breakdown{cp.tr.total}
	}
	return slices.Clone(cp.memberCosts)
}

// Run executes one replay of the compiled plan and returns its cost
// breakdown. The run is admitted against the owning tenant's quota
// first; then, on either backend, the row's precomputed charge trace is
// booked on the tenant's meter and the machine's, and on the functional
// backend the schedule's bytes move. A run is booked whole before any
// byte moves: one that fails mid-schedule (a panic out of Run; the error
// of its Future, submitted) leaves the whole trace on both meters, as its
// admission and its place on the timeline already counted it.
func (cp *CompiledPlan) Run() (cost.Breakdown, error) {
	if err := cp.owner.admit(cp.tr.total.Total()); err != nil {
		return cost.Breakdown{}, err
	}
	cp.run()
	return cp.tr.total, nil // what the run added to the meter, bit-stable
}

// Results returns the host buffers, one per communication group, a
// Gather or Reduce plan writes (nil for the other primitives and for a
// cluster's host plans, whose result is ClusterPlan.Results): the Hosts
// it was compiled with or, on a functional backend, its own, made on its
// first Run (nil before it), never a copy. Every run of the plan,
// Submit's included, overwrites them, and their contents are undefined
// after a run that failed: results that must survive later runs need a
// copy or Hosts of their own. On a cost-only backend no run writes them.
func (cp *CompiledPlan) Results() [][]byte {
	if cp.outs == 0 {
		return nil
	}
	cp.owner.c.execMu.Lock()
	defer cp.owner.c.execMu.Unlock()
	return cp.hosts
}

// run executes one replay under the comm's execution lock. Serial runs
// are barriers with respect to submitted plans: run waits for the
// submission queue to drain, then appends its lane segments to the
// elapsed-time timeline (no overlap).
func (cp *CompiledPlan) run() {
	c := cp.owner.c
	c.Flush()
	c.execMu.Lock()
	defer c.execMu.Unlock()
	c.placeSerialLocked(cp.tr.segs)
	c.runScheduleLocked(cp)
}

// try calls run, a run of cp or a part of one, returning a mid-schedule
// panic as its error (fail).
func (cp *CompiledPlan) try(run func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = cp.fail(r)
		}
	}()
	run()
	return nil
}

// fail turns a panic r out of a run of cp into its error.
func (cp *CompiledPlan) fail(r any) error {
	k := &cp.key
	return fmt.Errorf("core: %s (dims %q, %v, %v) failed mid-schedule: %v", k.prim.LongName(), k.dims, k.lvl, k.algo, r)
}

// runScheduleLocked executes one replay of cp on the comm's backend. It
// is the one execution block of the serial (run) and asynchronous
// (execSubmitted) paths, and on either backend it first books the row's
// charge trace (book); a functional run then moves the bytes of the row's
// schedule, with cp as the running plan. Callers hold execMu.
func (c *Comm) runScheduleLocked(cp *CompiledPlan) {
	c.book(cp)
	if !c.backend.Functional() {
		return
	}
	c.cur = cp
	defer func() { c.cur = nil }()
	if cp.hosts == nil && cp.outs > 0 {
		cp.hosts = make([][]byte, cp.outs)
		for g := range cp.hosts {
			cp.hosts[g] = make([]byte, cp.outBytes)
		}
	}
	c.moveSteps(cp.sched.Steps)
}

// book books what one run of cp costs, its row's charge trace, on the
// machine meter and on its tenant's — the same operands in the same
// order, so the tenant's meter is bit-identical to running its workload
// alone (tenant.go) — and the row's bus statistics on the host. Callers
// hold execMu.
func (c *Comm) book(cp *CompiledPlan) {
	c.h.Meter().AddTrace(cp.tr.adds)
	cp.owner.meter.AddTrace(cp.tr.adds)
	c.h.ApplyStats(cp.tr.stats)
}

// moveSteps moves the bytes of steps, on the comm's backend, for its
// running plan. Callers hold execMu.
func (c *Comm) moveSteps(steps []Step) {
	for _, st := range steps {
		c.backend.move(c, st)
	}
}

// tracer is the shape table's one scratch, reset per trace: a cost-only
// host (none of a comm's state) whose meter records into rec.
type tracer struct {
	h   *host.Host
	rec cost.Recorder
}

// trace resets the table's tracer, runs sched cost-only on it and returns
// it. The tracer is off the table meanwhile: a schedule that panics
// mid-epoch leaves the next trace a fresh one. Callers hold compMu.
func (c *Comm) trace(sched *Schedule) *tracer {
	tc := c.tracer
	if c.tracer = nil; tc == nil {
		tc = &tracer{h: host.New(c.hc.sys, c.h.Params())}
		tc.h.Meter().SetRecorder(tc.rec.Record)
	}
	tc.rec.Reset()
	tc.h.Meter().Reset()
	tc.h.ResetStats()
	c.executeOn(tc.h, sched.Steps)
	// Replay fidelity invariant: the recorder observes each addition of
	// Add and AddRounds, not Merge, so a path through Merge undercounts.
	// Re-summing the trace must reproduce the meter bit-for-bit (same
	// operands, same order within each category).
	if cost.SumTrace(tc.rec.Adds) != tc.h.Meter().Snapshot() {
		panic(fmt.Sprintf("core: charge trace of %s does not reproduce its meter (an execution path bypassed Add?)", sched.Name))
	}
	c.tracer = tc
	return tc
}

// traceSchedule traces sched into tr, which it keeps as exact-size
// copies. Callers hold compMu.
func (c *Comm) traceSchedule(sched *Schedule, tr *chargeTrace) {
	tc := c.trace(sched)
	tr.adds, tr.segs, tr.total = slices.Clone(tc.rec.Adds), slices.Clone(tc.rec.Segs), tc.h.Meter().Snapshot()
	tr.stats = tc.h.StatsInto(tr.chans[:])
}

// compiled binds owner's plan for specs — one collective or a sequence
// of them — to their shape row (rowLocked), with hosts: a compile that
// finds its row lowers and traces nothing. A closed session compiles
// nothing; a plan compiled while it closes never runs, because Run and
// Submit admit against the session first. Callers hold compMu.
func (c *Comm) compiled(specs []planSpec, owner *Tenant, hosts [][]byte) (*CompiledPlan, error) {
	if err := owner.errIfClosed(); err != nil {
		return nil, err
	}
	return owner.planOn(c.rowLocked(specs), hosts), nil
}

// rowLocked returns the shape row of a session's specs, keyed by the
// members' arena-relative signatures, and books the lookup: a hit, or a
// miss that builds the row for every session and Auto to share.
// ClusterTenant.Compile looks up role rows. Callers hold compMu.
func (c *Comm) rowLocked(specs []planSpec) *planEntry {
	tail := make([]byte, 0, 64)    // on the stack: a hit builds no string
	for _, sp := range specs[1:] { // self-delimiting fields: injective
		k := &sp.env.planKey
		for _, v := range [...]int{len(k.dims), int(k.prim), k.srcOff, k.dstOff, k.bytes, int(k.elemType), int(k.op), int(k.lvl), int(k.algo)} {
			tail = binary.AppendVarint(tail, int64(v))
		}
		tail = append(tail, k.dims...)
	}
	if row := c.rows[seqKey{head: specs[0].env.planKey, tail: string(tail)}]; row != nil {
		c.cacheSt.TraceHits++
		return row
	}
	row := c.buildLocked(specs)
	if env := &specs[0].env; shapes[env.prim].rooted() { // a sequence of one
		row.outs, row.outBytes = len(env.p.groups), shapes[env.prim].host.of(env.bytes, env.p.n)
	}
	c.rows[seqKey{head: specs[0].env.planKey, tail: string(tail)}] = row
	return row
}

// planOn is the one constructor of a session's plan: t's plan on row, at
// t's arena base, binding hosts.
func (t *Tenant) planOn(row *planEntry, hosts [][]byte) *CompiledPlan {
	return &CompiledPlan{planEntry: row, owner: t, base: t.ar.base, hosts: hosts}
}

// buildLocked is the one row builder, run on a row miss: the members'
// schedules are lowered at arena-relative offsets, a sequence's
// concatenated into one, and run through the fusion pipeline (fuse.go) —
// which is where the cross-collective rewrites of a sequence happen — and
// traced: the fused schedule as a single plan, the unfused one too when a
// pass changed it (the report quotes the per-run saving), and each member
// of a sequence. It books the build — a trace miss and, under FuseFull,
// the row's fusion report; its caller stores the row. Callers hold compMu.
func (c *Comm) buildLocked(specs []planSpec) *planEntry {
	row := &planEntry{key: specs[0].env.planKey}
	row.regs.set(specs)
	var sched Schedule
	if len(specs) == 1 { // a collective is its own schedule
		sched = specs[0].schedule()
	} else {
		row.members = make([]Primitive, len(specs))
		names := make([]string, len(specs))
		for i := range specs {
			row.members[i] = specs[i].env.prim
			ms := specs[i].schedule()
			names[i] = ms.Name
			row.memberCosts = append(row.memberCosts, c.trace(&ms).h.Meter().Snapshot())
			sched.Steps = append(sched.Steps, ms.Steps...)
		}
		sched.Name = "Seq(" + strings.Join(names, "+") + ")"
	}
	rep := FusionReport{StepsBefore: len(sched.Steps), StepsAfter: len(sched.Steps)}
	fused := sched.Steps
	if c.fuse == FuseFull {
		fused, rep = fuseSteps(sched.Steps)
	}
	if rep.Changed() {
		rep.CostBefore = c.trace(&sched).h.Meter().Snapshot()
	}
	sched.Steps = fused
	c.traceSchedule(&sched, &row.tr)
	if c.backend.Functional() { // a cost-only run replays the trace
		row.sched = &Schedule{Name: sched.Name, Steps: sched.Steps}
	}
	if rep.CostAfter = row.tr.total; !rep.Changed() {
		rep.CostBefore = row.tr.total
	}
	row.fusion = rep
	c.cacheSt.TraceMisses++
	if c.fuse == FuseFull {
		c.fuseSt.add(rep)
	}
	return row
}

// PlanCacheStats reports the compile cache's behavior and memory
// footprint (Snapshot.PlanCache): the shape table's rows, cumulative over
// its lifetime — on a cluster host, every host's.
type PlanCacheStats struct {
	// TraceHits and TraceMisses count shape-row lookups, one per compile
	// and per Auto candidate dry build; a miss lowers, fuses and traces a
	// new row. A row depends only on the arena-relative call shape, so it
	// serves every compile of its shape in any session, and a cluster host
	// sharing its role's row books a hit (cluster.go).
	TraceHits, TraceMisses uint64
	// CachedTraces counts the shape rows (one charge trace each).
	CachedTraces int
	// TraceEntries counts the cached traces' entries (runs of equal meter
	// additions); TraceBytes sizes them and the traces' lane segments.
	TraceEntries int64
	TraceBytes   int64
}
