// Package pidcomm is the public API of the PID-Comm reproduction: a fast
// and flexible collective communication framework for (simulated)
// commodity processing-in-DIMM devices, after Noh, Hong et al., ISCA 2024.
//
// PID-Comm abstracts the PEs of a PIM-enabled DIMM system as a virtual
// hypercube and provides eight multi-instance collective communication
// primitives over user-selected dimensions, each in a conventional
// host-mediated version and in PID-Comm's optimized version (PE-assisted
// reordering, in-register modulation, cross-domain modulation).
//
// # Machines, tenants and the Collective descriptor
//
// A Machine owns one simulated system: the DIMM geometry, the virtual
// hypercube over its PEs, the calibrated timing model, the shared
// four-lane elapsed-time timeline and the shape table, its one compile
// cache.
// Sessions on the machine are Comms, created with NewTenant (or the
// whole-machine convenience Comm): each tenant is bound to a disjoint
// per-PE MRAM arena carved from the machine's free-list allocator,
// meters its own costs, and competes for the machine under a
// weighted-fair scheduler. Comm.Close retires a session and returns its
// arena to the allocator.
//
// Every collective is described by one Collective value and consumed by
// exactly three entry points — Run (one-shot), Compile (plan once,
// replay many times) and Submit (asynchronous):
//
//	mach, _ := pidcomm.NewMachine(pidcomm.PaperSystem(1<<20), []int{32, 32})
//	comm, _ := mach.Comm()
//	// ... place per-PE data with comm.SetPEBuffer ...
//	bd, _ := comm.Run(pidcomm.Collective{
//	    Prim: pidcomm.ReduceScatter, Dims: "01",
//	    Src:  pidcomm.Span(srcOff, bytesPerPE), Dst: pidcomm.At(dstOff),
//	    Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.CM,
//	})
//	fmt.Println("simulated time:", bd.Total())
//
// The zero value of every optional Collective field is a sensible
// default: Level zero is Auto (the autotuner picks the cheapest
// applicable level) and a destination Region with zero Bytes takes the
// size the primitive implies.
//
// # Multi-tenant serving
//
// Several models can share one simulated machine: each NewTenant call
// carves a disjoint MRAM arena and returns an isolated session. All
// region handles are arena-relative — a tenant cannot even name MRAM
// outside its window. Submitted plans from all tenants are placed on
// the shared timeline by a weighted-fair scheduler, and per-tenant
// meters sum bit-identically to the Meter of Machine.Snapshot — the one
// read path for what a machine did (Cluster.Snapshot for a cluster):
//
//	mach, _ := pidcomm.NewMachine(pidcomm.PaperSystem(64<<20), []int{32, 32})
//	a, _ := mach.NewTenant(pidcomm.TenantConfig{Name: "dlrm", ArenaBytes: 32 << 20, Weight: 2})
//	b, _ := mach.NewTenant(pidcomm.TenantConfig{Name: "gnn", ArenaBytes: 16 << 20, Weight: 1})
//	fa, _ := a.Submit(...)  // overlaps with b's plans on the timeline
//	fb, _ := b.Submit(...)
//
// The heavy lifting lives in internal/core (collectives), internal/dram,
// internal/dpu, internal/host (the PIM-DIMM substrate) and internal/cost
// (the calibrated timing model); this package re-exports the stable
// surface — descriptors, plans, futures and the session types themselves
// (Comm is core.Tenant, ClusterComm is core.ClusterTenant — the same
// arena sharded across a cluster's hosts — and their methods are all
// arena-relative) — and
// wraps only Machine and Cluster, which add the whole-machine session
// (Comm; Cluster's Run, Compile and Submit bind one) to their core
// counterparts. Neither layer has a machine-absolute entry point: every
// collective compiles and runs in a session.
package pidcomm

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
)

// Re-exported element types (§ V-C).
const (
	I8  = elem.I8
	I16 = elem.I16
	I32 = elem.I32
	I64 = elem.I64
)

// Re-exported reduction operators.
const (
	Sum = elem.Sum
	Min = elem.Min
	Max = elem.Max
	Or  = elem.Or
	And = elem.And
	Xor = elem.Xor
)

// Re-exported optimization levels (§ V-A). Auto is the autotuner
// pseudo-level and the Level zero value: a Collective that leaves Level
// unset dry-runs every applicable level on the cost-only backend, picks
// the cheapest for the call signature, caches the decision and executes
// with it (see Comm.Resolve).
const (
	Auto     = core.Auto
	Baseline = core.Baseline
	PR       = core.PR
	IM       = core.IM
	CM       = core.CM
)

// Algorithm names one schedule-IR producer of core's static algorithm
// table (go doc ./internal/core, "Pipeline"). The zero value AlgoAuto
// lets the autotuner search a primitive's rows alongside the levels;
// AlgoReference pins the built-in staged lowering; the named alternatives
// (ring, tree, Rabenseifner-style reduce-scatter+all-gather) are
// byte-identical to the reference and differ only in where their
// simulated time goes.
type Algorithm = core.Algorithm

// Re-exported algorithm identifiers.
const (
	AlgoAuto         = core.AlgoAuto
	AlgoReference    = core.AlgoReference
	AlgoRing         = core.AlgoRing
	AlgoTree         = core.AlgoTree
	AlgoRabenseifner = core.AlgoRabenseifner
)

// ParseAlgorithm parses an algorithm name ("Auto", "ref", "ring",
// "tree", "rsag") as printed by Algorithm.String.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// AutoObjective selects what Auto resolution minimizes
// (Comm.SetAutoObjective): the meter total (serial cost, the default)
// or the pipelined dry-placed makespan (overlapped elapsed time — the
// right objective for async submission bursts).
type AutoObjective = core.AutoObjective

// Re-exported Auto objectives.
const (
	AutoMeter    = core.AutoMeter
	AutoMakespan = core.AutoMakespan
)

// Primitive identifies one of the eight collectives.
type Primitive = core.Primitive

// Re-exported primitive identifiers.
const (
	AlltoAll      = core.AlltoAll
	ReduceScatter = core.ReduceScatter
	AllReduce     = core.AllReduce
	AllGather     = core.AllGather
	Scatter       = core.Scatter
	Gather        = core.Gather
	Reduce        = core.Reduce
	Broadcast     = core.Broadcast
)

// Collective describes one collective call: primitive, dimensions,
// arena-relative Region handles, element type/operator for the reducing
// primitives, optimization level (zero = Auto) and host payloads for
// Scatter/Broadcast. See core.Collective for the per-primitive field
// table.
type Collective = core.Collective

// FuseLevel selects how compilation post-processes lowered schedules
// with the peephole fusion passes (merge adjacent rotations, coalesce
// transfer epochs, cancel inverse rotate/unrotate pairs, drop no-ops and
// interior synchronizations). The default is FuseFull; pass
// WithFuse(FuseOff) to NewMachine for schedules that execute exactly as
// lowered.
type FuseLevel = core.FuseLevel

// Re-exported fusion levels.
const (
	FuseFull = core.FuseFull
	FuseOff  = core.FuseOff
)

// FusionReport describes what the fusion pipeline did to one compiled
// plan (CompiledPlan.FusionReport): step counts, per-pass rewrite
// counters, the per-PE rotation work removed, and the plan's cost before
// and after fusion.
type FusionReport = core.FusionReport

// Region is an arena-relative per-PE MRAM byte range [Off, Off+Bytes).
// Leave Bytes zero where the primitive implies the size.
type Region = core.Region

// At returns a Region at off whose size the primitive implies.
func At(off int) Region { return core.At(off) }

// Span returns the fully specified Region [off, off+bytes).
func Span(off, bytes int) Region { return core.Span(off, bytes) }

// Geometry describes the simulated DIMM system.
type Geometry = dram.Geometry

// Breakdown is a per-category simulated-time snapshot.
type Breakdown = cost.Breakdown

// Seconds is simulated wall-clock time.
type Seconds = cost.Seconds

// Params is the hardware timing model.
type Params = cost.Params

// Level selects how much of the optimization stack a collective uses.
type Level = core.Level

// ElemType is an element data type.
type ElemType = elem.Type

// ReduceOp is a reduction operator.
type ReduceOp = elem.Op

// CompiledPlan is a collective compiled once — validated, Auto-resolved,
// lowered to schedule IR, charges precomputed — for repeated Run or
// Submit calls. Obtain one from Comm.Compile; plans are owned by the
// session that compiled them (runs are admitted against its quota and
// metered on its meter).
type CompiledPlan = core.CompiledPlan

// Future is the handle of one asynchronously submitted plan execution; see
// Comm.Submit and CompiledPlan.Submit. Wait/Err/Cost/Window run the
// machine's queue on the calling goroutine until the execution completes;
// Done polls, and turns true once someone has waited, flushed or stepped
// past the plan. A Gather's or Reduce's results are its plan's
// (Plan().Results()), overwritten by its next run.
type Future = core.Future

// Snapshot is a machine's run-time state as plain fields (Machine.Snapshot;
// String renders them): clock, per-lane work (cpu, bus, pe, net), meter,
// plan-cache, fusion and Auto caches, session rows, free MRAM windows.
type Snapshot = core.Snapshot

// TenantSnapshot is one session's row of a Snapshot.
type TenantSnapshot = core.TenantSnapshot

// ClusterSnapshot is every host's Snapshot and the slowest-host roll-up.
type ClusterSnapshot = core.ClusterSnapshot

// ErrQuotaExceeded is wrapped by Run/Submit errors of a tenant whose
// simulated-time quota cannot cover the next plan.
var ErrQuotaExceeded = core.ErrQuotaExceeded

// ErrOverloaded is wrapped by the error of a Future shed under per-
// tenant overload admission (TenantConfig.MaxPending + ShedPolicy).
var ErrOverloaded = core.ErrOverloaded

// ErrTenantClosed is wrapped by Compile/Run/Submit errors of a closed
// session (Comm.Close, Machine.CloseTenant), and by a double close.
var ErrTenantClosed = core.ErrTenantClosed

// SubmitOptions carries the serving attributes of one submission:
// simulated arrival time (NotBefore) and absolute deadline (Deadline).
type SubmitOptions = core.SubmitOptions

// SchedPolicy selects how the machine picks the next queued plan
// (WithSched); ParseSchedPolicy maps names to values.
type SchedPolicy = core.SchedPolicy

// Re-exported scheduling policies: weighted-fair queuing (default),
// earliest-deadline-first over hazard-free candidates, global
// submission order, and makespan-aware lookahead reordering.
const (
	SchedWFQ       = core.SchedWFQ
	SchedEDF       = core.SchedEDF
	SchedFIFO      = core.SchedFIFO
	SchedLookahead = core.SchedLookahead
)

// ParseSchedPolicy parses a scheduling policy name as printed by
// SchedPolicy.String ("wfq", "edf", "fifo", "lookahead") — the
// name-based selection `pidbench -sched` and `pidinfo -sched` use.
func ParseSchedPolicy(s string) (SchedPolicy, error) { return core.ParseSchedPolicy(s) }

// SchedPolicies returns the scheduling policies in value order.
func SchedPolicies() []SchedPolicy { return core.SchedPolicies() }

// DefaultLookahead is the default candidate window depth of the
// window-scanning scheduling policies (WithLookahead overrides it).
const DefaultLookahead = core.DefaultLookahead

// ShedPolicy selects what an overloaded tenant drops
// (TenantConfig.Shed).
type ShedPolicy = core.ShedPolicy

// Re-exported shed policies: reject the incoming submission, or drop
// the oldest queued plan in its favor.
const (
	ShedReject = core.ShedReject
	ShedOldest = core.ShedOldest
)

// MaxPendingPlans bounds a machine's submission queue; once this many
// plans are in flight, Submit runs queued plans until a slot frees.
const MaxPendingPlans = core.MaxPendingPlans

// DefaultParams returns the calibrated timing parameters (cost.DefaultParams).
func DefaultParams() Params { return cost.DefaultParams() }

// PaperSystem returns the paper's testbed geometry — 4 channels x 4 ranks
// x 8 chips x 8 banks = 1024 PEs — with the given per-bank MRAM bytes.
func PaperSystem(mramPerBank int) Geometry { return dram.PaperGeometry(mramPerBank) }

// DimsString builds a comm-dimensions bitmap, e.g. DimsString(3, 0, 2) ==
// "101" selecting the x and z axes of a 3-D hypercube.
func DimsString(numDims int, selected ...int) string {
	return core.DimsString(numDims, selected...)
}
