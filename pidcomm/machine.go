package pidcomm

import "repro/internal/core"

// Machine is one simulated PIM-enabled DIMM system: the DIMM geometry,
// the virtual hypercube over its PEs, the timing model, the shared
// elapsed-time timeline and the machine-wide shape table, its one
// compile cache.
// Sessions (Comm) are created with NewTenant or the whole-machine
// convenience Comm; all sessions share the machine's scheduler and
// timeline, so a Machine is the unit of capacity while a Comm is the
// unit of isolation. What the machine did is read through one method,
// Snapshot; Pending and Elapsed alone, polled per request, have getters.
type Machine struct {
	cc *core.Comm
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

// WithStepped sets nothing: every machine steps, running queued plans on
// the goroutine that calls Machine.Step, Flush or a Future's accessors.
//
// Deprecated: the argument is ignored. Only the wall-clock benchmark
// (benchmark/replica.go) still passes it; its next change deletes it.
func WithStepped(bool) MachineOption {
	return func(*core.Config) {}
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
	cc, err := core.New(geo, shape, config(opts))
	if err != nil {
		return nil, err
	}
	return &Machine{cc: cc}, nil
}

// config applies opts to the zero configuration, for NewMachine and
// NewCluster alike.
func config(opts []MachineOption) core.Config {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
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
// half of tenant churn — and an error that closes nothing for nil or a
// session of another machine. The tenant's meter survives as a retired row
// of Snapshot.Tenants, so machine-total accounting stays bit-identical
// across create/teardown cycles. A second close returns ErrTenantClosed.
func (m *Machine) CloseTenant(c *Comm) error { return m.cc.CloseTenant(c) }

// Comm returns a whole-machine session: a tenant named "machine"
// covering the largest contiguous free MRAM window. It is the
// single-workload convenience — quickstart-style programs call it once
// and never think about tenancy — and composes with NewTenant only in
// the natural order (carve the tenants first; Comm takes the rest).
func (m *Machine) Comm() (*Comm, error) { return m.cc.Session() }

// CostOnly reports whether the machine runs the cost-only backend.
func (m *Machine) CostOnly() bool { return !m.cc.Backend().Functional() }

// Shape returns the hypercube shape.
func (m *Machine) Shape() []int { return m.cc.Hypercube().Shape() }

// NumPEs returns the machine's PE count.
func (m *Machine) NumPEs() int { return m.cc.Hypercube().System().Geometry().NumPEs() }

// MramPerBank returns the per-PE MRAM capacity in bytes.
func (m *Machine) MramPerBank() int { return m.cc.Hypercube().System().MramSize() }

// Groups returns the communication groups (PE lists in rank order) the
// dims selection produces — the cube slices of § IV-B2.
func (m *Machine) Groups(dims string) ([][]int, error) { return m.cc.Hypercube().Groups(dims) }

// Snapshot returns the machine's run-time state as one value to print
// (`pidinfo -tenants`) or read field by field. Its Meter sums every
// tenant's meter, live and retired: closing a tenant loses no history.
func (m *Machine) Snapshot() Snapshot { return m.cc.Snapshot() }

// SetAutoObjective configures what Auto resolution on this machine
// minimizes: the meter total (AutoMeter, the default — serial cost) or
// the pipelined dry-placed makespan (AutoMakespan — overlapped elapsed
// time, the right objective for async submission bursts). Cached Auto
// decisions are dropped on a change. On a cluster host (Cluster.Machine)
// it sets the objective of the whole cluster.
func (m *Machine) SetAutoObjective(o AutoObjective) { m.cc.SetAutoObjective(o) }

// Step pops the next queued plan under the scheduling policy and
// executes it synchronously, returning its completed future (nil when
// the queue is empty). Nothing else runs a submission before Flush or a
// blocking accessor of its future does, so a caller that steps controls
// the interleaving of arrivals and picks.
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
