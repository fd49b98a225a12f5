package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cost"
	"repro/internal/dpu"
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/internal/host"
	"repro/internal/par"
)

// Comm executes PID-Comm collectives on a hypercube. It owns a host model
// (whose meter accumulates all communication costs) and a DPU engine for
// the PE-side reorder kernels. Every collective lowers to a Schedule
// (schedule.go) compiled into a CompiledPlan (plan.go) and run by the
// single executor (exec.go) against the comm's Backend.
//
// Comm is safe for concurrent use: independent collectives may be issued
// from multiple goroutines. Executions serialize on one mutex — the
// simulated substrate models a single machine whose bus and driver the
// host drives, so collectives interleave at call granularity, exactly as
// a driver-level lock would enforce on real hardware. Callers remain
// responsible for data disjointness: two concurrent collectives (or app
// kernels) touching overlapping MRAM regions race semantically even
// though each executes atomically.
//
// Asynchronous execution (async.go): Submit enqueues compiled
// plans on a per-Comm submission queue and return Futures; independent
// plans overlap on the elapsed-time timeline (Elapsed), hazardous plans
// are ordered by their MRAM footprints, and Flush is the barrier. Serial
// runs and direct MRAM access (SetPEBuffer/GetPEBuffer) should only
// happen with no submissions in flight — serial Run flushes implicitly.
type Comm struct {
	hc      *Hypercube
	h       *host.Host
	eng     *dpu.Engine
	backend Backend

	// execMu serializes schedule execution and all direct access to the
	// host model (its meter epoch state and transfer statistics).
	execMu sync.Mutex

	// planMu guards plans, the cached group plans per dims string;
	// applications alternate between a few dims selections every layer
	// (Algorithm 1).
	planMu sync.Mutex
	plans  map[string]*plan

	// autoMu guards the Auto decision cache, the objective knob and the
	// lazily-created cost-only shadow comm the dry runs compile on
	// (auto.go).
	autoMu    sync.Mutex
	autoCache map[autoKey]autoDecision
	autoObj   AutoObjective
	shadow    *Comm

	// compMu guards the compiled-plan, sequence and charge-trace caches
	// (plan.go), their hit/miss counters, the fusion level and the
	// aggregate fusion statistics.
	compMu   sync.Mutex
	compiled map[planKey]*CompiledPlan
	traces   map[planKey]*chargeTrace
	seqPlans map[string]*CompiledPlan
	cacheSt  PlanCacheStats
	fuse     FuseLevel
	fuseSt   FusionStats

	// tl is the overlap-aware elapsed-time timeline; asyncBase is the
	// barrier behind which new submissions may not start, and frontier
	// holds the placements still visible for hazard checks. All three are
	// guarded by execMu (async.go).
	tl        cost.Timeline
	asyncBase cost.Seconds
	frontier  []placedPlan

	// asyncMu guards the submission queues, the weighted-fair virtual
	// clock and the worker state; asyncCond signals queue drain to
	// Flush. asyncSlots is the queue-slot semaphore bounding in-flight
	// submissions at MaxPendingPlans. queues[0] is the default queue of
	// plans submitted outside any tenant; every tenant appends its own
	// (async.go, tenant.go).
	// sched, lookahead and stepped are the serving knobs: the pick
	// policy (resolved through the schedulers table into schedImpl,
	// lazily and again after every policy change — schedImplOf records
	// which policy the instance serves), the candidate window depth of
	// the window-scanning policies (0 = DefaultLookahead), and stepped
	// mode, where the caller drives execution via Step instead of a
	// background worker. cands is pickLocked's reusable candidate
	// scratch (async.go, sched.go).
	asyncMu      sync.Mutex
	asyncCond    *sync.Cond
	queues       []*subQueue
	vclock       float64
	seqCounter   uint64
	asyncRunning bool
	asyncPending int
	asyncSlots   chan struct{}
	sched        SchedPolicy
	schedImpl    Scheduler
	schedImplOf  SchedPolicy
	lookahead    int
	cands        []Candidate
	stepped      bool

	// tenantMu guards the registry of live tenants, tenantSeq, the count
	// of tenants ever registered that default names are drawn from, the
	// retired list of closed tenants, kept so machine-total accounting
	// still sees their meters (tenant.go), and the clusters this Comm is a
	// host of, whose caches a closing tenant is evicted from too.
	tenantMu  sync.Mutex
	tenants   []*Tenant
	tenantSeq int
	retired   []*Tenant
	clusters  []*Cluster

	// Parallel-execution state, all guarded by execMu (the knob and the
	// per-shard contexts are only touched while an execution holds the
	// lock). egs is precomputed at construction and immutable, so the
	// tracing path (under compMu) may read it too.
	execWorkers int          // 0 = default (GOMAXPROCS at call time)
	egs         []int        // [0..numGroups): every entangled group
	streams     []*streamCtx // per-shard streaming contexts (engine.go)
	modBuf      []byte       // reusable Modulate output arena (bulkOut)
	slabs       [][]byte     // per-shard scratch slabs (groupsDoScratch)
	grun        groupRunner
	gsrun       groupScratchRunner
}

// NewComm creates a communication context for the hypercube with the
// given cost parameters and the byte-accurate functional backend.
func NewComm(hc *Hypercube, params cost.Params) *Comm {
	return NewCommWithBackend(hc, params, FunctionalBackend())
}

// NewCostComm creates a cost-only communication context: collectives
// charge the meter exactly as NewComm's would, but move no bytes — the
// hypercube's system may be a dram phantom with no MRAM at all. Rooted
// primitives return nil result buffers, and Scatter accepts nil host
// buffers (sizes are implied by the call).
func NewCostComm(hc *Hypercube, params cost.Params) *Comm {
	return NewCommWithBackend(hc, params, CostBackend())
}

// NewCommWithBackend creates a communication context on an explicit
// backend.
func NewCommWithBackend(hc *Hypercube, params cost.Params, b Backend) *Comm {
	c := &Comm{
		hc:         hc,
		h:          host.New(hc.sys, params),
		eng:        dpu.NewEngine(hc.sys, params),
		backend:    b,
		plans:      make(map[string]*plan),
		autoCache:  make(map[autoKey]autoDecision),
		compiled:   make(map[planKey]*CompiledPlan),
		traces:     make(map[planKey]*chargeTrace),
		seqPlans:   make(map[string]*CompiledPlan),
		asyncSlots: make(chan struct{}, MaxPendingPlans),
		queues:     []*subQueue{{weight: 1}},
		egs:        make([]int, hc.sys.Geometry().NumGroups()),
	}
	for i := range c.egs {
		c.egs[i] = i
	}
	c.asyncCond = sync.NewCond(&c.asyncMu)
	return c
}

// allEGs returns [0..numGroups) for bulk transfers covering the machine.
// The slice is precomputed and immutable — callers must not modify it.
func (c *Comm) allEGs() []int { return c.egs }

// SetExecWorkers sets the number of worker shards the functional backend
// splits schedule-step work across (bulk transfers, streaming epochs,
// kernel launches). n <= 0 restores the default, GOMAXPROCS. The knob is
// purely a simulator-throughput control: results, meter charges, bus
// statistics and MRAM contents are byte-identical at any worker count, so
// it is NOT part of the plan-cache key — changing it never invalidates
// compiled plans.
func (c *Comm) SetExecWorkers(n int) {
	if n < 0 {
		n = 0
	}
	c.execMu.Lock()
	c.execWorkers = n
	c.h.SetWorkers(c.workers())
	c.execMu.Unlock()
}

// ExecWorkers returns the effective worker-shard count.
func (c *Comm) ExecWorkers() int {
	c.execMu.Lock()
	defer c.execMu.Unlock()
	return c.workers()
}

// workers resolves the effective worker count. Callers hold execMu.
func (c *Comm) workers() int {
	if c.execWorkers > 0 {
		return c.execWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// groupRunner adapts a per-group closure to par.Runner; the Comm keeps
// one so staged-path modulation can fan out without allocating a runner
// per call. Guarded by execMu like all execution state.
type groupRunner struct{ fn func(g int) }

func (gr *groupRunner) RunShard(_, lo, hi int) {
	for g := lo; g < hi; g++ {
		gr.fn(g)
	}
}

// groupsDo runs fn(g) for every g in [0, n) sharded across the comm's
// workers. fn must only write state owned by group g. Callers hold execMu.
func (c *Comm) groupsDo(n int, fn func(g int)) {
	c.grun.fn = fn
	par.Do(c.workers(), n, &c.grun)
	c.grun.fn = nil
}

// groupScratchRunner is groupRunner plus a per-shard scratch slab.
type groupScratchRunner struct {
	c     *Comm
	bytes int
	fn    func(g int, scratch []byte)
}

func (gr *groupScratchRunner) RunShard(shard, lo, hi int) {
	s := gr.c.slabs[shard][:gr.bytes]
	for g := lo; g < hi; g++ {
		gr.fn(g, s)
	}
}

// groupsDoScratch is groupsDo with a bytes-sized scratch slab per shard
// (reused across runs — the parallel replacement for a per-group make).
func (c *Comm) groupsDoScratch(n, bytes int, fn func(g int, scratch []byte)) {
	k := c.workers()
	if k > n {
		k = n
	}
	for len(c.slabs) < k {
		c.slabs = append(c.slabs, nil)
	}
	for i := 0; i < k; i++ {
		if cap(c.slabs[i]) < bytes {
			c.slabs[i] = make([]byte, bytes)
		}
	}
	c.gsrun.c, c.gsrun.bytes, c.gsrun.fn = c, bytes, fn
	par.Do(c.workers(), n, &c.gsrun)
	c.gsrun.fn = nil
}

// bulkOut returns the comm's reusable n-byte modulation-output arena.
// Every staged (StepBulk) Modulate that fully overwrites its output uses
// it, so cached replays allocate no fresh buffer per step. At most one
// Bulk step is in flight at a time (steps execute sequentially), so a
// single arena suffices. Callers hold execMu.
func (c *Comm) bulkOut(n int) []byte {
	if cap(c.modBuf) < n {
		c.modBuf = make([]byte, n)
	}
	return c.modBuf[:n]
}

// Backend returns the comm's execution backend.
func (c *Comm) Backend() Backend { return c.backend }

// SetFuse configures the schedule-fusion level for subsequently compiled
// plans (fuse.go). The default is FuseFull. The level is part of the
// plan-cache key, so toggling it never serves a plan fused at another
// level; plans already handed out keep the level they were compiled at.
// Cached Auto decisions are dropped on a change — they were made
// against schedules fused at the old level and the cheapest level may
// differ at the new one.
func (c *Comm) SetFuse(f FuseLevel) {
	c.compMu.Lock()
	changed := c.fuse.resolved() != f.resolved()
	c.fuse = f.resolved()
	c.compMu.Unlock()
	if changed {
		c.autoMu.Lock()
		c.autoCache = make(map[autoKey]autoDecision)
		c.autoMu.Unlock()
	}
}

// Fuse returns the comm's current schedule-fusion level.
func (c *Comm) Fuse() FuseLevel {
	c.compMu.Lock()
	defer c.compMu.Unlock()
	return c.fuse.resolved()
}

// FusionStats returns the aggregate fusion activity of every plan
// compiled on this comm (cumulative; survives ClearPlanCache).
func (c *Comm) FusionStats() FusionStats {
	c.compMu.Lock()
	defer c.compMu.Unlock()
	return c.fuseSt
}

// Hypercube returns the comm's hypercube manager.
func (c *Comm) Hypercube() *Hypercube { return c.hc }

// Meter returns the meter accumulating all communication costs.
func (c *Comm) Meter() *cost.Meter { return c.h.Meter() }

// Host returns the underlying host model (shared with applications that
// also issue their own transfers).
func (c *Comm) Host() *host.Host { return c.h }

// Engine returns the DPU engine (shared with application kernels).
func (c *Comm) Engine() *dpu.Engine { return c.eng }

func (c *Comm) plan(dims string) (*plan, error) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if p, ok := c.plans[dims]; ok {
		return p, nil
	}
	p, err := c.hc.buildPlan(dims)
	if err != nil {
		return nil, err
	}
	c.plans[dims] = p
	return p, nil
}

// SetPEBuffer writes raw bytes directly into a PE's MRAM (no cost):
// test/application setup helper representing data the PE itself produced.
func (c *Comm) SetPEBuffer(pe, off int, data []byte) {
	m := c.hc.sys.BankBytes(pe)
	if off < 0 || off+len(data) > len(m) {
		panic(fmt.Sprintf("core: PE %d buffer [%d,%d) out of MRAM range %d", pe, off, off+len(data), len(m)))
	}
	copy(m[off:], data)
}

// GetPEBuffer reads raw bytes directly from a PE's MRAM (no cost).
func (c *Comm) GetPEBuffer(pe, off, n int) []byte {
	m := c.hc.sys.BankBytes(pe)
	if off < 0 || off+n > len(m) {
		panic(fmt.Sprintf("core: PE %d buffer [%d,%d) out of MRAM range %d", pe, off, off+n, len(m)))
	}
	out := make([]byte, n)
	copy(out, m[off:])
	return out
}

// blockSize computes and validates the per-block size s = bytesPerPE / n
// for block-structured primitives.
func blockSize(bytesPerPE, n int) (int, error) {
	if bytesPerPE%n != 0 {
		return 0, fmt.Errorf("core: %d bytes/PE not divisible by group size %d", bytesPerPE, n)
	}
	s := bytesPerPE / n
	if s%dram.BankBurstBytes != 0 {
		return 0, fmt.Errorf("core: block size %d not a multiple of %d", s, dram.BankBurstBytes)
	}
	return s, nil
}

// checkElem validates a reducing call's element type and operator by
// value: elem's own accessors panic on an unknown one.
func checkElem(t elem.Type, op elem.Op) error {
	if t < elem.I8 || t > elem.I64 {
		return fmt.Errorf("core: unsupported element type %v", t)
	}
	if op < elem.Sum || op > elem.Xor {
		return fmt.Errorf("core: unsupported reduction operator %v", op)
	}
	return nil
}

// overlap reports whether [aOff,aOff+aLen) and [bOff,bOff+bLen) intersect.
func overlap(aOff, aLen, bOff, bLen int) bool {
	return aOff < bOff+bLen && bOff < aOff+aLen
}
