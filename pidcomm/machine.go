package pidcomm

import (
	"fmt"
	"slices"

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
	sys *dram.System
	hc  *core.Hypercube
	cc  *core.Comm
}

// MachineOption sets one field of the machine's configuration.
// NewMachine applies the options once; nothing they set can change
// afterwards — a machine is configured at construction.
type MachineOption func(*core.Config)

// WithParams overrides the calibrated timing model.
func WithParams(p Params) MachineOption {
	return func(c *core.Config) { c.Params = p }
}

// CostOnly builds the machine on the cost-only backend over a phantom
// (no-MRAM) system: every collective charges exactly what the
// functional machine would — breakdowns are bit-identical — but no
// bytes exist or move, making paper-scale capacity studies orders of
// magnitude cheaper. Rooted primitives return nil result buffers and
// SetPEBuffer/GetPEBuffer panic.
func CostOnly() MachineOption {
	return func(c *core.Config) { c.Backend = core.CostBackend() }
}

// WithFuse sets the machine's schedule-fusion level (default FuseFull).
// FuseOff compiles every plan exactly as lowered — bit-identical to the
// pre-fusion engine; FuseFull runs the peephole passes, which is what
// makes CompileSequence plans collapse their interior synchronizations,
// cancel inverse rotate/unrotate pairs across member boundaries, and
// stream back-to-back epochs as one.
func WithFuse(f FuseLevel) MachineOption {
	return func(c *core.Config) { c.Fuse = f }
}

// WithExecWorkers sets the functional backend's worker-pool size: how
// many OS threads each collective's data movement is sharded across
// (default GOMAXPROCS; n <= 0 keeps the default). Purely a
// simulator-throughput knob — results, breakdowns, and bus statistics
// are bit-identical at every setting.
func WithExecWorkers(n int) MachineOption {
	return func(c *core.Config) { c.ExecWorkers = n }
}

// WithSched selects the machine's submission scheduling policy:
// SchedWFQ (weighted-fair, the default), SchedEDF
// (earliest-deadline-first), SchedFIFO (global submission order) or
// SchedLookahead (makespan-aware reordering). Use ParseSchedPolicy to
// map names to values; a value outside the table fails NewMachine.
func WithSched(p SchedPolicy) MachineOption {
	return func(c *core.Config) { c.Sched = p }
}

// WithStepped builds the machine in stepped serving mode: Submit only
// enqueues and the caller drives execution one plan at a time with
// Machine.Step — the deterministic substrate of the open-loop serving
// driver (internal/serve). Flush and a Future's blocking accessors
// step the queue themselves.
func WithStepped(on bool) MachineOption {
	return func(c *core.Config) { c.Stepped = on }
}

// WithLookahead sets the candidate window of the window-scanning
// scheduling policies (SchedEDF, SchedLookahead): how deep into each
// bucket hazard-free plans are considered at each pick. Default
// DefaultLookahead (also what 0 selects); otherwise it must be in
// [1, MaxPendingPlans] or NewMachine fails.
func WithLookahead(k int) MachineOption {
	return func(c *core.Config) { c.Lookahead = k }
}

// NewMachine builds a simulated machine with the given DIMM geometry
// and virtual-hypercube shape (every dimension a power of two except
// the last; product equal to the PE count).
func NewMachine(geo Geometry, shape []int, opts ...MachineOption) (*Machine, error) {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	cc, err := core.New(geo, shape, cfg)
	if err != nil {
		return nil, err
	}
	hc := cc.Hypercube()
	return &Machine{sys: hc.System(), hc: hc, cc: cc}, nil
}

// ExecWorkers returns the worker-pool size collectives execute with.
func (m *Machine) ExecWorkers() int { return m.cc.ExecWorkers() }

// TenantConfig describes one session on a shared machine: its name, the
// per-PE ArenaBytes carved for it, its scheduler Weight, its
// simulated-time Quota and the overload bounds MaxPending and Shed.
type TenantConfig = core.TenantConfig

// Comm is one session on a Machine: a tenant bound to a disjoint per-PE
// MRAM arena, with its own meter, scheduler weight and optional quota.
// The Collective descriptor is the only collective entry path — Run
// executes one-shot, Compile returns a replayable CompiledPlan, Submit
// enqueues asynchronously — and every Region in a descriptor is
// arena-relative, so a session cannot name MRAM outside its window.
// Close retires the session — later compiles, runs and submissions fail
// with ErrTenantClosed, its meter stays readable — and returns the arena
// to the machine's free-list allocator for future NewTenant calls. A
// Comm is safe for concurrent use.
type Comm = core.Tenant

// NewTenant carves a fresh disjoint MRAM arena of cfg.ArenaBytes per PE
// and returns the session bound to it. Arenas come first-fit from the
// machine's free-list allocator (Comm.Close returns them); NewTenant
// fails when no contiguous free window can fit the request.
func (m *Machine) NewTenant(cfg TenantConfig) (*Comm, error) { return m.cc.NewTenant(cfg) }

// CloseTenant is c.Close() for a session of this machine — the teardown
// half of tenant churn — and an error that closes nothing for a session
// of another machine. The tenant's meter survives (RetiredTenants,
// Breakdown), so machine-total accounting stays bit-identical across
// create/teardown cycles. Closing a session twice returns
// ErrTenantClosed.
func (m *Machine) CloseTenant(c *Comm) error {
	if !c.Closed() && !slices.Contains(m.cc.Tenants(), c) {
		return fmt.Errorf("pidcomm: tenant %q is not a session of this machine", c.Name())
	}
	return c.Close()
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
func (m *Machine) CostOnly() bool { return !m.cc.Backend().Functional() }

// Shape returns the hypercube shape.
func (m *Machine) Shape() []int { return m.hc.Shape() }

// NumPEs returns the machine's PE count.
func (m *Machine) NumPEs() int { return m.sys.Geometry().NumPEs() }

// MramPerBank returns the per-PE MRAM capacity in bytes.
func (m *Machine) MramPerBank() int { return m.sys.MramSize() }

// FreeArenaBytes returns the total per-PE MRAM not currently carved
// into arenas. After churn the free bytes may be split across windows
// (FreeArenaSpans).
func (m *Machine) FreeArenaBytes() int { return m.sys.MramSize() - m.sys.CarvedBytes() }

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
		b = b.Add(t.Meter())
	}
	for _, t := range m.cc.Tenants() {
		b = b.Add(t.Meter())
	}
	return b
}

// SetAutoObjective configures what Auto resolution on this machine
// minimizes: the meter total (AutoMeter, the default — serial cost) or
// the pipelined dry-placed makespan (AutoMakespan — overlapped elapsed
// time, the right objective for async submission bursts). Cached Auto
// decisions are dropped on a change.
func (m *Machine) SetAutoObjective(o AutoObjective) { m.cc.SetAutoObjective(o) }

// AutoDecisions returns a snapshot of the machine's cached Auto
// decisions, sorted for stable display (`pidinfo -auto` renders the
// same table on a representative comm).
func (m *Machine) AutoDecisions() []AutoDecision { return m.cc.AutoDecisions() }

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

// FusionStats returns the aggregate fusion activity of every plan
// compiled on the machine (cumulative over its lifetime).
func (m *Machine) FusionStats() FusionStats { return m.cc.FusionStats() }

// Tenants lists every live session on the machine in creation order.
func (m *Machine) Tenants() []*Comm { return m.cc.Tenants() }

// RetiredTenants lists the closed sessions in closing order; their
// arenas are back in the free pool but their meters persist.
func (m *Machine) RetiredTenants() []*Comm { return m.cc.RetiredTenants() }
