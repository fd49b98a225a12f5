package pidcomm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
)

// Machine is one simulated PIM-enabled DIMM system: the DIMM geometry,
// the virtual hypercube over its PEs, the timing model, the shared
// elapsed-time timeline and the machine-wide compiled-plan caches.
// Sessions (Comm) are created with NewTenant or the whole-machine
// convenience Comm; all sessions share the machine's scheduler and
// timeline, so a Machine is the unit of capacity while a Comm is the
// unit of isolation.
type Machine struct {
	sys      *dram.System
	hc       *core.Hypercube
	cc       *core.Comm
	costOnly bool
}

// machineConfig collects NewMachine options.
type machineConfig struct {
	params    cost.Params
	costOnly  bool
	fuse      core.FuseLevel
	workers   int
	sched     SchedPolicy
	stepped   bool
	lookahead int
}

// MachineOption configures NewMachine.
type MachineOption func(*machineConfig)

// WithParams overrides the calibrated timing model.
func WithParams(p Params) MachineOption {
	return func(mc *machineConfig) { mc.params = p }
}

// CostOnly builds the machine on the cost-only backend over a phantom
// (no-MRAM) system: every collective charges exactly what the
// functional machine would — breakdowns are bit-identical — but no
// bytes exist or move, making paper-scale capacity studies orders of
// magnitude cheaper. Rooted primitives return nil result buffers and
// SetPEBuffer/GetPEBuffer panic.
func CostOnly() MachineOption {
	return func(mc *machineConfig) { mc.costOnly = true }
}

// WithFuse sets the machine's schedule-fusion level (default FuseFull).
// FuseOff compiles every plan exactly as lowered — bit-identical to the
// pre-fusion engine; FuseFull runs the peephole passes, which is what
// makes CompileSequence plans collapse their interior synchronizations,
// cancel inverse rotate/unrotate pairs across member boundaries, and
// stream back-to-back epochs as one.
func WithFuse(f FuseLevel) MachineOption {
	return func(mc *machineConfig) { mc.fuse = f }
}

// WithExecWorkers sets the functional backend's worker-pool size: how
// many OS threads each collective's data movement is sharded across
// (default GOMAXPROCS; n <= 0 keeps the default). Purely a
// simulator-throughput knob — results, breakdowns, and bus statistics
// are bit-identical at every setting — and not part of the plan-cache
// key, so it can also be changed later with Machine.SetExecWorkers.
func WithExecWorkers(n int) MachineOption {
	return func(mc *machineConfig) { mc.workers = n }
}

// WithSched selects the machine's submission scheduling policy at
// construction: SchedWFQ (weighted-fair, the default), SchedEDF
// (earliest-deadline-first), SchedFIFO (global submission order) or
// SchedLookahead (makespan-aware reordering). Use ParseSchedPolicy to
// map names to values.
func WithSched(p SchedPolicy) MachineOption {
	return func(mc *machineConfig) { mc.sched = p }
}

// WithStepped builds the machine in stepped serving mode: Submit only
// enqueues and the caller drives execution one plan at a time with
// Machine.Step — the deterministic substrate of the open-loop serving
// driver (internal/serve).
func WithStepped(on bool) MachineOption {
	return func(mc *machineConfig) { mc.stepped = on }
}

// WithLookahead sets the candidate window of the window-scanning
// scheduling policies (SchedEDF, SchedLookahead): how deep into each
// bucket hazard-free plans are considered at each pick. Default
// DefaultLookahead; must be in [1, MaxPendingPlans].
func WithLookahead(k int) MachineOption {
	return func(mc *machineConfig) { mc.lookahead = k }
}

// NewMachine builds a simulated machine with the given DIMM geometry
// and virtual-hypercube shape (every dimension a power of two except
// the last; product equal to the PE count).
func NewMachine(geo Geometry, shape []int, opts ...MachineOption) (*Machine, error) {
	mc := machineConfig{params: cost.DefaultParams()}
	for _, o := range opts {
		o(&mc)
	}
	if err := mc.params.Validate(); err != nil {
		return nil, err
	}
	var (
		sys *dram.System
		err error
	)
	if mc.costOnly {
		sys, err = dram.NewPhantomSystem(geo)
	} else {
		sys, err = dram.NewSystem(geo)
	}
	if err != nil {
		return nil, err
	}
	hc, err := core.NewHypercube(sys, shape)
	if err != nil {
		return nil, err
	}
	m := &Machine{sys: sys, hc: hc, costOnly: mc.costOnly}
	if mc.costOnly {
		m.cc = core.NewCostComm(hc, mc.params)
	} else {
		m.cc = core.NewComm(hc, mc.params)
	}
	m.cc.SetFuse(mc.fuse)
	if mc.workers > 0 {
		m.cc.SetExecWorkers(mc.workers)
	}
	m.cc.SetSched(mc.sched)
	if mc.stepped {
		m.cc.SetStepped(true)
	}
	if mc.lookahead != 0 {
		if err := m.cc.SetLookahead(mc.lookahead); err != nil {
			return nil, fmt.Errorf("pidcomm: %w", err)
		}
	}
	return m, nil
}

// SetExecWorkers resizes the functional backend's worker pool for every
// session on the machine (0 restores the GOMAXPROCS default). Safe to
// call between collectives; never changes results.
func (m *Machine) SetExecWorkers(n int) { m.cc.SetExecWorkers(n) }

// ExecWorkers returns the worker-pool size collectives execute with.
func (m *Machine) ExecWorkers() int { return m.cc.ExecWorkers() }

// TenantConfig describes one session on a shared machine.
type TenantConfig struct {
	// Name labels the tenant in diagnostics and `pidinfo -tenants`.
	Name string
	// ArenaBytes is the per-PE MRAM window carved for the tenant
	// (rounded up to the 8-byte bank-burst granule). Every Region the
	// tenant names is validated against [0, ArenaBytes).
	ArenaBytes int
	// Weight is the tenant's share in the weighted-fair submission
	// scheduler; 0 means 1.
	Weight float64
	// Quota, if positive, bounds the total simulated time the tenant
	// may admit; a Run/Submit whose predicted cost would exceed it
	// fails with ErrQuotaExceeded.
	Quota Seconds
	// MaxPending, if positive, bounds the tenant's in-flight
	// submissions: beyond it, submissions shed per the Shed policy with
	// ErrOverloaded instead of queuing without bound — the serving
	// path's admission control.
	MaxPending int
	// Shed selects what an overloaded tenant drops: the incoming
	// submission (ShedReject, the default) or its oldest queued plan
	// (ShedOldest).
	Shed ShedPolicy
}

// NewTenant carves a fresh disjoint MRAM arena of cfg.ArenaBytes per PE
// and returns the session bound to it. Arenas come first-fit from the
// machine's free-list allocator (CloseTenant returns them); NewTenant
// fails when no contiguous free window can fit the request.
func (m *Machine) NewTenant(cfg TenantConfig) (*Comm, error) {
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("tenant-%d", len(m.cc.Tenants()))
	}
	if cfg.Weight < 0 {
		return nil, fmt.Errorf("pidcomm: tenant %q weight %v must be positive", name, cfg.Weight)
	}
	if cfg.Quota < 0 {
		return nil, fmt.Errorf("pidcomm: tenant %q quota %v must be non-negative", name, cfg.Quota)
	}
	ar, err := m.sys.CarveArena(cfg.ArenaBytes)
	if err != nil {
		return nil, fmt.Errorf("pidcomm: tenant %q: %w", name, err)
	}
	t, err := m.cc.NewTenant(core.TenantConfig{
		Name: name, Base: ar.Base, Bytes: ar.Bytes,
		Weight: cfg.Weight, Quota: cfg.Quota,
		MaxPending: cfg.MaxPending, Shed: cfg.Shed,
	})
	if err != nil {
		// Return the carved window so a failed registration does not
		// consume MRAM.
		if ferr := m.sys.FreeArena(ar); ferr != nil {
			return nil, fmt.Errorf("pidcomm: %w (and un-carving the arena failed: %v)", err, ferr)
		}
		return nil, fmt.Errorf("pidcomm: %w", err)
	}
	return &Comm{t: t, m: m}, nil
}

// CloseTenant retires a session at runtime — the teardown half of
// tenant churn. It drains the machine, rejects the session's later
// Run/Submit calls with ErrTenantClosed, evicts its cached plans, and
// returns its MRAM arena to the machine's coalescing free-list
// allocator, where it merges with adjacent free windows and becomes
// available to future NewTenant calls. The tenant's meter survives
// (RetiredTenants, Breakdown), so machine-total accounting stays
// bit-identical across create/teardown cycles. Closing a session twice
// returns ErrTenantClosed.
func (m *Machine) CloseTenant(c *Comm) error {
	base, bytes := c.t.Arena()
	if err := c.t.Close(); err != nil {
		return fmt.Errorf("pidcomm: %w", err)
	}
	if err := m.sys.FreeArena(dram.Arena{Base: base, Bytes: bytes}); err != nil {
		return fmt.Errorf("pidcomm: closing tenant %q: %w", c.t.Name(), err)
	}
	return nil
}

// Comm returns a whole-machine session: a tenant named "machine"
// covering the largest contiguous free MRAM window. It is the
// single-workload convenience — quickstart-style programs call it once
// and never think about tenancy — and composes with NewTenant only in
// the natural order (carve the tenants first; Comm takes the rest).
func (m *Machine) Comm() (*Comm, error) {
	free := m.sys.LargestFree()
	if free <= 0 {
		return nil, fmt.Errorf("pidcomm: no MRAM left to bind a whole-machine session")
	}
	return m.NewTenant(TenantConfig{Name: "machine", ArenaBytes: free})
}

// CostOnly reports whether the machine runs the cost-only backend.
func (m *Machine) CostOnly() bool { return m.costOnly }

// Shape returns the hypercube shape.
func (m *Machine) Shape() []int { return m.hc.Shape() }

// NumPEs returns the machine's PE count.
func (m *Machine) NumPEs() int { return m.sys.Geometry().NumPEs() }

// MramPerBank returns the per-PE MRAM capacity in bytes.
func (m *Machine) MramPerBank() int { return m.sys.MramSize() }

// FreeArenaBytes returns the total per-PE MRAM not currently carved
// into arenas. After churn the free bytes may be split across windows:
// LargestFreeArena bounds the biggest single tenant that still fits.
func (m *Machine) FreeArenaBytes() int { return m.sys.MramSize() - m.sys.CarvedBytes() }

// LargestFreeArena returns the largest contiguous free MRAM window —
// the biggest ArenaBytes a NewTenant call can currently satisfy.
func (m *Machine) LargestFreeArena() int { return m.sys.LargestFree() }

// FreeArenaSpans returns the allocator's free windows as (base, bytes)
// pairs, sorted by base and maximally coalesced.
func (m *Machine) FreeArenaSpans() []dram.Arena { return m.sys.FreeSpans() }

// Groups returns the communication groups (PE lists in rank order) the
// dims selection produces — the cube slices of § IV-B2.
func (m *Machine) Groups(dims string) ([][]int, error) { return m.hc.Groups(dims) }

// Breakdown returns the machine-wide attributed cost: the per-category
// sum of every tenant's meter — live and retired, so closing a tenant
// never loses its history — folded in retirement-then-creation order.
// By construction it equals the sum of the per-tenant meters bit for
// bit; the tenant-isolation tests additionally pin each tenant's meter
// to a solo run of the same workload, across churn.
func (m *Machine) Breakdown() Breakdown {
	var b Breakdown
	for _, t := range m.cc.RetiredTenants() {
		b = b.Add(t.Meter().Snapshot())
	}
	for _, t := range m.cc.Tenants() {
		b = b.Add(t.Meter().Snapshot())
	}
	return b
}

// SetAutoObjective configures what Auto resolution on this machine
// minimizes: the meter total (AutoMeter, the default — serial cost) or
// the pipelined dry-placed makespan (AutoMakespan — overlapped elapsed
// time, the right objective for async submission bursts). Cached Auto
// decisions are dropped on a change.
func (m *Machine) SetAutoObjective(o AutoObjective) { m.cc.SetAutoObjective(o) }

// AutoObjective returns the machine's current Auto objective.
func (m *Machine) AutoObjective() AutoObjective { return m.cc.AutoObjective() }

// AutoDecisions returns a snapshot of the machine's cached Auto
// decisions, sorted for stable display (`pidinfo -auto` renders the
// same table on a representative comm).
func (m *Machine) AutoDecisions() []AutoDecision { return m.cc.AutoDecisions() }

// Sched returns the machine's submission scheduling policy.
func (m *Machine) Sched() SchedPolicy { return m.cc.Sched() }

// SetLookahead sets the candidate window of the window-scanning
// scheduling policies at runtime (see WithLookahead). k must be in
// [1, MaxPendingPlans].
func (m *Machine) SetLookahead(k int) error { return m.cc.SetLookahead(k) }

// Lookahead returns the effective candidate window depth.
func (m *Machine) Lookahead() int { return m.cc.Lookahead() }

// Step pops the next queued plan under the scheduling policy and
// executes it synchronously, returning its completed future (nil when
// the queue is empty or a background worker owns it). Only meaningful
// in stepped mode.
func (m *Machine) Step() *Future { return m.cc.Step() }

// Pending returns the number of submitted plans not yet completed.
func (m *Machine) Pending() int { return m.cc.Pending() }

// Elapsed returns the overlap-aware simulated elapsed time of
// everything executed on the machine: serial runs append, submitted
// plans with disjoint footprints overlap. The makespan of the shared
// timeline.
func (m *Machine) Elapsed() Seconds { return m.cc.Elapsed() }

// Flush blocks until every plan submitted by any tenant has completed,
// then closes the overlap window (the machine-wide barrier).
func (m *Machine) Flush() { m.cc.Flush() }

// NetBusy returns the cumulative simulated time this machine's network
// lane has been busy: the inter-host legs of cluster collectives
// charged to this host. Zero on a machine that never joined a cluster.
func (m *Machine) NetBusy() Seconds { return m.cc.LaneBusy(cost.LaneNet) }

// PlanCacheStats returns the machine-wide compiled-plan cache counters
// and memory accounting.
func (m *Machine) PlanCacheStats() PlanCacheStats { return m.cc.PlanCacheStats() }

// Fuse returns the machine's schedule-fusion level.
func (m *Machine) Fuse() FuseLevel { return m.cc.Fuse() }

// FusionStats returns the aggregate fusion activity of every plan
// compiled on the machine (cumulative over its lifetime).
func (m *Machine) FusionStats() FusionStats { return m.cc.FusionStats() }

// TenantInfo is one row of the machine's tenant listing.
type TenantInfo struct {
	// Name is the tenant's label.
	Name string
	// ArenaBase and ArenaBytes locate the tenant's per-PE MRAM window.
	ArenaBase, ArenaBytes int
	// Weight is the weighted-fair scheduler share.
	Weight float64
	// Quota is the simulated-time budget (0 = unlimited); Admitted is
	// the predicted time admitted against it so far.
	Quota, Admitted Seconds
	// MaxPending is the in-flight bound (0 = unlimited); Pending is the
	// current in-flight count; Shed is the overload policy.
	MaxPending, Pending int
	Shed                ShedPolicy
	// Closed marks a retired tenant (RetiredTenants rows only).
	Closed bool
	// Meter is the tenant's attributed cost so far.
	Meter Breakdown
}

func tenantInfo(t *core.Tenant) TenantInfo {
	base, bytes := t.Arena()
	return TenantInfo{
		Name:      t.Name(),
		ArenaBase: base, ArenaBytes: bytes,
		Weight: t.Weight(),
		Quota:  t.Quota(), Admitted: t.Admitted(),
		MaxPending: t.MaxPending(), Pending: t.Pending(),
		Shed:   t.Shed(),
		Closed: t.Closed(),
		Meter:  t.Meter().Snapshot(),
	}
}

// Tenants lists every live session on the machine in creation order.
func (m *Machine) Tenants() []TenantInfo {
	ts := m.cc.Tenants()
	out := make([]TenantInfo, len(ts))
	for i, t := range ts {
		out[i] = tenantInfo(t)
	}
	return out
}

// RetiredTenants lists the closed sessions in closing order; their
// arenas are back in the free pool but their meters persist.
func (m *Machine) RetiredTenants() []TenantInfo {
	ts := m.cc.RetiredTenants()
	out := make([]TenantInfo, len(ts))
	for i, t := range ts {
		out[i] = tenantInfo(t)
	}
	return out
}

// Comm is one session on a Machine: a tenant bound to a disjoint
// per-PE MRAM arena, with its own meter, scheduler weight and optional
// quota. The Collective descriptor is the only collective entry path —
// Run executes one-shot, Compile returns a replayable CompiledPlan,
// Submit enqueues asynchronously — and every Region in a descriptor is
// arena-relative, so a session cannot name MRAM outside its window.
//
// A Comm is safe for concurrent use; executions serialize on the shared
// machine while the elapsed-time timeline overlaps independent plans.
type Comm struct {
	t *core.Tenant
	m *Machine
}

// Run compiles (or fetches the cached plan for) d and executes one
// replay, returning the run's cost breakdown. Rooted primitives
// (Gather, Reduce) leave their results on the plan: use Compile and
// CompiledPlan.Results to read them.
func (c *Comm) Run(d Collective) (Breakdown, error) { return c.t.Run(d) }

// Compile compiles d — validation, Auto resolution, lowering to
// schedule IR, charge precomputation — into a CompiledPlan ready for
// repeated Run/Submit:
//
//	plan, _ := comm.Compile(pidcomm.Collective{...})
//	for layer := 0; layer < L; layer++ {
//	    bd, _ := plan.Run() // identical cost/result to a one-shot Run
//	}
//
// Repeated one-shot Runs of an equal descriptor hit the same cache, so
// they amortize too.
func (c *Comm) Compile(d Collective) (*CompiledPlan, error) { return c.t.Compile(d) }

// CompileSequence compiles ds as one fused multi-collective plan: the
// members lower in order into a single schedule, and the machine's
// fusion passes rewrite across the member boundaries — interior
// synchronizations collapse, inverse rotate/unrotate pairs cancel,
// back-to-back transfer epochs coalesce — so an iterative pipeline
// (e.g. DLRM's per-batch ReduceScatter→AlltoAll) replays as one denser
// plan. Functionally byte-identical to running the members serially;
// CompiledPlan.FusionReport quotes the saving. Rooted primitives
// (Gather, Reduce) cannot join a sequence.
func (c *Comm) CompileSequence(ds ...Collective) (*CompiledPlan, error) {
	return c.t.CompileSequence(ds...)
}

// Submit compiles (or fetches the cached plan for) d, enqueues one
// asynchronous execution on the session's weighted-fair bucket and
// returns its Future. Plans of one session execute in submission order;
// plans with data hazards (RAW/WAR/WAW on a region) are ordered, and
// independent plans — always including other tenants' plans, whose
// arenas are disjoint — overlap on the shared elapsed-time timeline.
func (c *Comm) Submit(d Collective) (*Future, error) { return c.t.Submit(d) }

// SubmitOpts is Submit with explicit serving attributes: a simulated
// arrival time the placement may not precede (NotBefore) and an
// absolute deadline the EDF policy schedules against (Deadline). An
// admission rejection (quota, overload, closed tenant) returns an
// already-completed Future carrying the error, with a zero Window.
func (c *Comm) SubmitOpts(d Collective, o SubmitOptions) (*Future, error) {
	cp, err := c.t.Compile(d)
	if err != nil {
		return nil, err
	}
	return cp.SubmitOpts(o), nil
}

// Close retires the session and returns its arena to the machine's
// free-list allocator (Machine.CloseTenant).
func (c *Comm) Close() error { return c.m.CloseTenant(c) }

// Closed reports whether the session has been retired.
func (c *Comm) Closed() bool { return c.t.Closed() }

// Pending returns the session's submitted-but-uncompleted plan count.
func (c *Comm) Pending() int { return c.t.Pending() }

// AutoResolve returns the (algorithm, level) pair descriptor d resolves
// to: the autotuner's pick (under the machine's Auto objective) where
// either axis is Auto, the explicit selection otherwise. Exactly what
// Compile would resolve d to, without compiling anything.
func (c *Comm) AutoResolve(d Collective) (Algorithm, Level, error) { return c.t.Resolve(d) }

// SetPEBuffer writes raw bytes directly into the session's arena of a
// PE's MRAM (no cost): test/application setup representing data the PE
// itself produced. off is arena-relative. Call Flush first if
// submissions may be in flight.
func (c *Comm) SetPEBuffer(pe, off int, data []byte) { c.t.SetPEBuffer(pe, off, data) }

// GetPEBuffer reads raw bytes directly from the session's arena of a
// PE's MRAM (no cost). off is arena-relative.
func (c *Comm) GetPEBuffer(pe, off, n int) []byte { return c.t.GetPEBuffer(pe, off, n) }

// Meter returns the session's attributed cost so far: exactly the
// charges of this session's plans, bit-identical to running the same
// workload alone on its own machine.
func (c *Comm) Meter() Breakdown { return c.t.Meter().Snapshot() }

// Flush blocks until every plan submitted on the shared machine has
// completed — the barrier before touching MRAM directly while
// submissions may be in flight.
func (c *Comm) Flush() { c.t.Flush() }

// Elapsed returns the shared machine's overlap-aware elapsed time.
func (c *Comm) Elapsed() Seconds { return c.t.Elapsed() }

// Name returns the session's tenant name.
func (c *Comm) Name() string { return c.t.Name() }

// Arena returns the session's per-PE MRAM window as (base, bytes).
func (c *Comm) Arena() (base, bytes int) { return c.t.Arena() }

// Weight returns the session's weighted-fair scheduler share.
func (c *Comm) Weight() float64 { return c.t.Weight() }

// Quota returns the session's simulated-time budget (0 = unlimited).
func (c *Comm) Quota() Seconds { return c.t.Quota() }

// Admitted returns the predicted simulated time admitted so far.
func (c *Comm) Admitted() Seconds { return c.t.Admitted() }
