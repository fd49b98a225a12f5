package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/dram"
)

// This file implements tenant sessions — arena-scoped views of one Comm
// that let many independent workloads ("models being served") share one
// simulated machine — and their whole lifecycle: NewTenant carves and
// registers, Close retires and frees. A Tenant owns a
// disjoint window of every PE's MRAM, handed out by the system's
// free-list allocator — all of its Collective regions are validated
// against that window and translated to absolute offsets, so tenants
// cannot name, let alone alias, each other's footprints — plus its own
// cost.Meter, a weight in the machine's weighted-fair
// submission scheduler (async.go), and an optional simulated-time quota.
//
// Accounting invariant: every charge a tenant's plan makes on the
// machine meter is mirrored — same operands, same order within each
// category — into the tenant's meter (see runScheduleLocked). A tenant's
// meter is therefore bit-identical to the meter of running that tenant's
// workload alone on its own machine, and summing all tenant meters
// reproduces exactly the attributed machine total.

// ErrQuotaExceeded is wrapped by admission errors of a Tenant whose
// simulated-time quota cannot cover the next plan.
var ErrQuotaExceeded = errors.New("core: tenant quota exceeded")

// ErrOverloaded is wrapped by admission errors of a Tenant that already
// has MaxPending plans in flight — the overload signal of the serving
// path. Under ShedReject the incoming future carries it; under
// ShedOldest the dropped (oldest queued) future does.
var ErrOverloaded = errors.New("core: tenant overloaded")

// ErrTenantClosed is wrapped by compile and admission errors of a closed
// Tenant and returned by a double Close.
var ErrTenantClosed = errors.New("core: tenant closed")

// ShedPolicy selects which plan an overloaded tenant sheds when a
// submission arrives beyond MaxPending in flight.
type ShedPolicy int

const (
	// ShedReject rejects the incoming submission (the default): its
	// future completes immediately with ErrOverloaded and a zero Window.
	ShedReject ShedPolicy = iota
	// ShedOldest drops the tenant's oldest still-queued plan in favor of
	// the incoming one: the victim's future completes with ErrOverloaded
	// (zero Window), the newcomer is enqueued. If nothing is queued —
	// everything in flight is already executing — the incoming
	// submission is rejected as under ShedReject.
	ShedOldest
)

// String names the policy for tables and diagnostics.
func (p ShedPolicy) String() string {
	switch p {
	case ShedReject:
		return "reject-newest"
	case ShedOldest:
		return "drop-oldest"
	}
	return fmt.Sprintf("ShedPolicy(%d)", int(p))
}

// Tenant is one arena-scoped session on a shared Comm (pidcomm's Comm):
// Run executes a Collective one-shot, Compile returns a replayable
// CompiledPlan, Submit enqueues asynchronously, and every Region is
// arena-relative, so a session cannot name MRAM outside its window.
// Create tenants with Comm.NewTenant (or Comm.Session); Close returns the
// arena. A Tenant is safe for concurrent use.
type Tenant struct {
	c      *Comm
	name   string
	ar     arena
	meter  cost.Meter
	rec    func(cost.Category, cost.Seconds) // meter.Add: the machine meter's recorder while the tenant's plans run functionally
	weight float64
	quota  cost.Seconds
	sq     subQueue // the tenant's scheduler bucket, guarded by the Comm's asyncMu

	// maxPending and shed are the overload-admission knobs (immutable
	// after creation): beyond maxPending in-flight plans, submissions
	// shed per the policy. 0 = unlimited.
	maxPending int
	shed       ShedPolicy

	// inflight counts the tenant's submitted-but-uncompleted plans
	// (queued or executing); overErr is the error of a plan shed beyond
	// them, made on first use; admitted is the admission ledger, the
	// simulated time admitted against the quota. Guarded by the Comm's
	// asyncMu.
	inflight int
	overErr  error
	admitted cost.Seconds

	// closed is set once, by Close, before it drains the machine.
	closed atomic.Bool
	// cl is the cluster of a cluster session's shard (set by join):
	// its Close runs under the cluster's execMu.
	cl *Cluster
}

// TenantConfig describes one session on a shared machine.
type TenantConfig struct {
	// Name labels the tenant in diagnostics, ownership errors and
	// `pidinfo -tenants`; empty picks "tenant-N", N counting the sessions
	// the machine has created so far.
	Name string
	// ArenaBytes is the per-PE MRAM window carved for the tenant
	// (rounded up to the 8-byte bank-burst granule). Every Region the
	// tenant names is validated against [0, ArenaBytes).
	ArenaBytes int
	// Weight is the tenant's share in the weighted-fair submission
	// scheduler, positive and finite; 0 means 1.
	Weight float64
	// Quota, if positive, bounds the total simulated time the tenant
	// may admit; a Run/Submit whose predicted cost would exceed it
	// fails with ErrQuotaExceeded. It must be finite.
	Quota cost.Seconds
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
// system's free-list allocator (Tenant.Close returns them); NewTenant
// fails when no contiguous free window can fit the request. See
// TenantConfig for the scheduler weight, the simulated-time quota
// (enforced against each plan's predicted cost at Run/Submit) and the
// overload bounds.
func (c *Comm) NewTenant(cfg TenantConfig) (*Tenant, error) {
	c.asyncMu.Lock()
	defer c.asyncMu.Unlock()
	name, weight := cfg.Name, cfg.Weight
	if name == "" {
		name = fmt.Sprintf("tenant-%d", c.tenantSeq)
	}
	if weight == 0 {
		weight = 1
	}
	// Negated, so NaN fails: a NaN weight would turn the weighted-fair clock
	// NaN for the machine's life, a NaN quota admit without bound.
	if !(weight > 0) || math.IsInf(weight, 1) {
		return nil, fmt.Errorf("core: tenant %q weight %v must be positive and finite", name, weight)
	}
	if !(cfg.Quota >= 0) || math.IsInf(float64(cfg.Quota), 1) {
		return nil, fmt.Errorf("core: tenant %q quota %v must be non-negative and finite", name, cfg.Quota)
	}
	if cfg.MaxPending < 0 {
		return nil, fmt.Errorf("core: tenant %q MaxPending %d must be non-negative", name, cfg.MaxPending)
	}
	if cfg.Shed != ShedReject && cfg.Shed != ShedOldest {
		return nil, fmt.Errorf("core: tenant %q has unknown shed policy %v", name, cfg.Shed)
	}
	ar, err := c.hc.sys.CarveArena(cfg.ArenaBytes)
	if err != nil {
		return nil, fmt.Errorf("core: tenant %q: %w", name, err)
	}
	t := &Tenant{
		c:          c,
		name:       name,
		ar:         arena{ar.Base, ar.Bytes},
		weight:     weight,
		quota:      cfg.Quota,
		maxPending: cfg.MaxPending,
		shed:       cfg.Shed,
		sq:         subQueue{weight: weight},
	}
	t.rec = t.meter.Add
	c.tenantSeq++
	c.tenants = append(c.tenants, t)
	return t, nil
}

// Session returns a whole-machine session: a tenant named "machine"
// over the largest contiguous free MRAM window — offset 0 on a fresh
// machine, so its regions are absolute. Carve NewTenant sessions first.
func (c *Comm) Session() (*Tenant, error) {
	free := c.hc.sys.LargestFree()
	if free <= 0 {
		return nil, errors.New("core: no MRAM left to bind a whole-machine session")
	}
	return c.NewTenant(TenantConfig{Name: "machine", ArenaBytes: free})
}

// Close retires the tenant — the teardown half of tenant churn. It
// rejects every later compile and admission with ErrTenantClosed, drains
// the machine, moves the tenant and its scheduler bucket from the live
// registry to the retired list and then returns the arena to the
// system's coalescing free-list allocator for future NewTenant calls; the
// machine's shape rows stay, for any later session to share. The flag is
// set before the drain and submit checks it in the section that
// enqueues, so no plan reaches the bucket after the drain, and a plan
// compiled while the session closes fails Run and Submit. The tenant's meter survives on the Comm's retired list
// (Snapshot.Tenants), so machine-total accounting stays bit-identical
// across create/teardown cycles. A cluster shard closes under the
// cluster's execMu, never between a cluster run's admission and its last
// host. Returns ErrTenantClosed on a double close.
func (t *Tenant) Close() error {
	if t.cl != nil {
		t.cl.execMu.Lock()
		defer t.cl.execMu.Unlock()
	}
	if t.closed.Swap(true) {
		return fmt.Errorf("%w: tenant %q closed twice", ErrTenantClosed, t.name)
	}
	c := t.c
	c.Flush()
	c.asyncMu.Lock()
	c.tenants = slices.DeleteFunc(c.tenants, func(o *Tenant) bool { return o == t })
	c.retired = append(c.retired, t)
	t.sq.q = nil
	if len(c.tenants) == 0 { // the last session: an idle machine's chunk pins no finished plan
		c.futs = nil
	}
	c.asyncMu.Unlock()
	if err := c.hc.sys.FreeArena(dram.Arena{Base: t.ar.base, Bytes: t.ar.size}); err != nil {
		return fmt.Errorf("core: closing tenant %q: %w", t.name, err)
	}
	return nil
}

// CloseTenant is t.Close(), refusing nil and the tenants of another Comm.
func (c *Comm) CloseTenant(t *Tenant) error {
	if t == nil {
		return errors.New("core: CloseTenant of a nil tenant")
	} else if t.c != c {
		return fmt.Errorf("core: tenant %q is not a session of this machine", t.name)
	}
	return t.Close()
}

// Closed reports whether the tenant has been closed.
func (t *Tenant) Closed() bool { return t.closed.Load() }

// Compile compiles d — validation against the tenant's arena (every
// region must lie within [0, ArenaBytes)), Auto resolution, lowering to
// schedule IR, charge precomputation — into a CompiledPlan ready for
// repeated Run/Submit:
//
//	plan, _ := comm.Compile(pidcomm.Collective{...})
//	for layer := 0; layer < L; layer++ {
//	    bd, _ := plan.Run() // identical cost/result to a one-shot Run
//	}
//
// Every compile binds a new plan to the machine's shape row for d's
// arena-relative shape, so a repeated compile of an equal descriptor, in
// any session, lowers and traces nothing. The returned plan is owned by
// the tenant — each
// Run/Submit is admitted against the quota and attributed to the
// tenant's meter. A closed tenant compiles nothing: ErrTenantClosed.
func (t *Tenant) Compile(d Collective) (*CompiledPlan, error) { return t.CompileSequence(d) }

// CompileSequence compiles ds as one fused multi-collective plan
// against the tenant's arena: the members lower in order into a single
// schedule, and the machine's fusion passes rewrite across the member
// boundaries — interior synchronizations collapse, inverse
// rotate/unrotate pairs cancel, back-to-back transfer epochs coalesce —
// so an iterative pipeline (e.g. DLRM's per-batch
// ReduceScatter→AlltoAll) replays as one denser plan. Functionally
// byte-identical to running the members serially;
// CompiledPlan.FusionReport quotes the saving. Rooted primitives
// (Gather, Reduce) cannot join a sequence. The plan is owned by the
// tenant: runs are admitted against its quota as a unit and attributed
// to its meter. The single funnel behind Compile, Run and Submit too: a
// collective is a sequence of one.
func (t *Tenant) CompileSequence(ds ...Collective) (*CompiledPlan, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("core: empty collective sequence")
	}
	t.c.compMu.Lock() // the one lock of a compile, held to return
	defer t.c.compMu.Unlock()
	var few [2]planSpec // a collective or a pair on the stack
	specs := few[:0]
	var hosts [][]byte // one payload member's as is, several concatenated
	for i, d := range ds {
		sp, err := t.c.specIn(t.ar, d, false)
		if err == nil && len(ds) > 1 && shapes[d.Prim].rooted() {
			err = fmt.Errorf("%s: rooted primitives cannot join a fused sequence (their results live on the host); compile them separately",
				d.Prim.LongName())
		}
		if err != nil {
			if len(ds) > 1 {
				err = fmt.Errorf("sequence[%d]: %w", i, err)
			}
			return nil, err
		}
		if sp.env.hosts = len(hosts); hosts == nil {
			hosts = d.Hosts
		} else if d.Hosts != nil {
			hosts = append(slices.Clip(hosts), d.Hosts...)
		}
		specs = append(specs, sp)
	}
	return t.c.compiled(specs, t, hosts)
}

// Run compiles d and executes one replay, returning the run's cost
// breakdown. Rooted primitives (Gather, Reduce) write d.Hosts; a
// functional one-shot without them makes its result buffers on every
// call. To read those, use Compile and CompiledPlan.Results, or pass
// Hosts.
func (t *Tenant) Run(d Collective) (cost.Breakdown, error) {
	cp, err := t.Compile(d)
	if err != nil {
		return cost.Breakdown{}, err
	}
	return cp.Run()
}

// Submit compiles d, enqueues one
// asynchronous execution on the tenant's weighted-fair bucket and
// returns its Future. Plans of one session execute in submission order;
// plans with data hazards (RAW/WAR/WAW on a region) are ordered, and
// independent plans — always including other tenants' plans, whose
// arenas are disjoint — overlap on the shared elapsed-time timeline.
func (t *Tenant) Submit(d Collective) (*Future, error) {
	return t.SubmitOpts(d, SubmitOptions{})
}

// SubmitOpts is Submit with explicit serving attributes: a simulated
// arrival time the placement may not precede (NotBefore) and an
// absolute deadline the EDF policy schedules against (Deadline). An
// admission rejection (quota, overload) returns an already-completed
// Future carrying the error, with a zero Window.
func (t *Tenant) SubmitOpts(d Collective, o SubmitOptions) (*Future, error) {
	cp, err := t.Compile(d)
	if err != nil {
		return nil, err
	}
	return cp.SubmitOpts(o), nil
}

// Resolve returns the (algorithm, level) pair Compile(d) would resolve
// to, compiling nothing: the autotuner's pick (under the machine's Auto
// objective) where either axis is Auto, the explicit selection otherwise.
func (t *Tenant) Resolve(d Collective) (Algorithm, Level, error) {
	t.c.compMu.Lock()
	defer t.c.compMu.Unlock()
	return t.c.resolveLocked(d)
}

// SetPEBuffer writes raw bytes directly into the tenant's arena of a
// PE's MRAM (no cost): test/application setup representing data the PE
// itself produced. off is arena-relative. Call Flush first if
// submissions may be in flight.
func (t *Tenant) SetPEBuffer(pe, off int, data []byte) {
	if off < 0 || off+len(data) > t.ar.size {
		panic(fmt.Sprintf("core: tenant %q buffer [%d,%d) outside arena size %d",
			t.name, off, off+len(data), t.ar.size))
	}
	t.c.SetPEBuffer(pe, t.ar.base+off, data)
}

// GetPEBuffer reads raw bytes from the tenant's arena of a PE's MRAM
// (no cost), off arena-relative.
func (t *Tenant) GetPEBuffer(pe, off, n int) []byte {
	if off < 0 || n < 0 || off+n > t.ar.size {
		panic(fmt.Sprintf("core: tenant %q buffer [%d,%d) outside arena size %d",
			t.name, off, off+n, t.ar.size))
	}
	return t.c.GetPEBuffer(pe, t.ar.base+off, n)
}

// Meter returns the tenant's attributed cost so far: exactly the
// charges of this tenant's plans, bit-identical to running the same
// workload alone on its own machine.
func (t *Tenant) Meter() cost.Breakdown { return t.meter.Snapshot() }

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Arena returns the tenant's per-PE MRAM window as (base, bytes).
func (t *Tenant) Arena() (base, bytes int) { return t.ar.base, t.ar.size }

// Flush blocks until every plan submitted on the shared machine has
// completed — the barrier before touching MRAM directly while
// submissions may be in flight.
func (t *Tenant) Flush() { t.c.Flush() }

// Elapsed returns the shared machine's overlap-aware elapsed time.
func (t *Tenant) Elapsed() cost.Seconds { return t.c.Elapsed() }

// admit is admitLocked under the comm's asyncMu.
func (t *Tenant) admit(c cost.Seconds) error {
	t.c.asyncMu.Lock()
	defer t.c.asyncMu.Unlock()
	return t.admitLocked(c)
}

// admitLocked is the admission check of a run or submission: a closed
// tenant admits nothing (ErrTenantClosed); otherwise it charges the
// admission ledger with a plan's predicted cost, rejecting with
// ErrQuotaExceeded if the quota cannot cover it. Callers hold the comm's
// asyncMu.
func (t *Tenant) admitLocked(c cost.Seconds) error {
	if t.closed.Load() {
		return fmt.Errorf("%w: tenant %q", ErrTenantClosed, t.name)
	}
	if t.quota > 0 && t.admitted+c > t.quota {
		return fmt.Errorf("%w: tenant %q admitted %.6gs + requested %.6gs exceeds quota %.6gs",
			ErrQuotaExceeded, t.name, float64(t.admitted), float64(c), float64(t.quota))
	}
	t.admitted += c
	return nil
}

// refund reverses an admit for a plan that was admitted but never ran: a
// cluster run's host admitted before another host rejected it (admitAll).
func (t *Tenant) refund(c cost.Seconds) {
	t.c.asyncMu.Lock()
	t.admitted -= c
	t.c.asyncMu.Unlock()
}

// overloadedLocked is the rejection of a submission beyond MaxPending
// plans in flight, nil below the bound. Callers hold the comm's asyncMu.
func (t *Tenant) overloadedLocked() error {
	if t.maxPending == 0 || t.inflight < t.maxPending {
		return nil
	}
	if t.overErr == nil { // it names the bound, not a live count: one serves every shed
		t.overErr = fmt.Errorf("%w: tenant %q at its bound of %d plans in flight", ErrOverloaded, t.name, t.maxPending)
	}
	return t.overErr
}

// errIfClosed is the compile-time closed check: a closed tenant compiles
// nothing.
func (t *Tenant) errIfClosed() error {
	if t.Closed() {
		return fmt.Errorf("%w: tenant %q", ErrTenantClosed, t.name)
	}
	return nil
}
