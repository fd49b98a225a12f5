package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cost"
	"repro/internal/dram"
)

// This file implements tenant sessions: arena-scoped views of one Comm
// that let many independent workloads ("models being served") share one
// simulated machine. A Tenant owns a disjoint window of every PE's MRAM
// — all of its Collective regions are validated against that window and
// translated to absolute offsets, so tenants cannot name, let alone
// alias, each other's footprints — plus its own cost.Meter, a weight in
// the machine's weighted-fair submission scheduler (async.go), and an
// optional simulated-time quota.
//
// Accounting invariant: every charge a tenant's plan makes on the
// machine meter is mirrored — same operands, same order — into the
// tenant's meter (see runScheduleLocked). A tenant's meter is therefore
// bit-identical to the meter of running that tenant's workload alone on
// its own machine, and summing all tenant meters reproduces exactly the
// attributed machine total.

// ErrQuotaExceeded is wrapped by admission errors of a Tenant whose
// simulated-time quota cannot cover the next plan.
var ErrQuotaExceeded = errors.New("core: tenant quota exceeded")

// ErrOverloaded is wrapped by admission errors of a Tenant that already
// has MaxPending plans in flight — the overload signal of the serving
// path. Under ShedReject the incoming future carries it; under
// ShedOldest the dropped (oldest queued) future does.
var ErrOverloaded = errors.New("core: tenant overloaded")

// ErrTenantClosed is wrapped by admission errors of a closed Tenant and
// returned by a double Close.
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

// Tenant is one arena-scoped session on a shared Comm. Create tenants
// with Comm.NewTenant; a Tenant is safe for concurrent use.
type Tenant struct {
	c      *Comm
	name   string
	ar     arena
	meter  *cost.Meter
	weight float64
	quota  cost.Seconds
	sq     *subQueue

	// maxPending and shed are the overload-admission knobs (immutable
	// after creation): beyond maxPending in-flight plans, submissions
	// shed per the policy. 0 = unlimited.
	maxPending int
	shed       ShedPolicy

	// inflight counts the tenant's submitted-but-uncompleted plans
	// (queued or executing). Guarded by the Comm's asyncMu.
	inflight int

	// mu guards the admission ledger and the closed flag.
	mu       sync.Mutex
	admitted cost.Seconds
	closed   bool
}

// TenantConfig parameterizes NewTenant.
type TenantConfig struct {
	// Name labels the tenant in diagnostics and ownership errors.
	Name string
	// Base and Bytes give the tenant's per-PE MRAM arena [Base,
	// Base+Bytes); both must be dram.BankBurstBytes-aligned and the
	// window disjoint from every live tenant's arena.
	Base, Bytes int
	// Weight is the tenant's weighted-fair scheduler share (0 = 1).
	Weight float64
	// Quota, if positive, bounds the total simulated time the tenant
	// may admit.
	Quota cost.Seconds
	// MaxPending, if positive, bounds the tenant's in-flight
	// submissions; beyond it, submissions shed per Shed.
	MaxPending int
	// Shed is the overload policy applied beyond MaxPending.
	Shed ShedPolicy
}

// NewTenant registers a tenant session over the per-PE MRAM window
// [cfg.Base, cfg.Base+cfg.Bytes), which must be BankBurstBytes-aligned
// and disjoint from every existing tenant's arena. See TenantConfig for
// the scheduler weight, the simulated-time quota (enforced against each
// plan's predicted cost at Run/Submit) and the overload bounds.
func (c *Comm) NewTenant(cfg TenantConfig) (*Tenant, error) {
	name, base, bytes, weight, quota := cfg.Name, cfg.Base, cfg.Bytes, cfg.Weight, cfg.Quota
	if bytes <= 0 || base < 0 || base+bytes > c.hc.sys.MramSize() {
		return nil, fmt.Errorf("core: tenant %q arena [%d,%d) exceeds MRAM size %d",
			name, base, base+bytes, c.hc.sys.MramSize())
	}
	if base%dram.BankBurstBytes != 0 || bytes%dram.BankBurstBytes != 0 {
		return nil, fmt.Errorf("core: tenant %q arena [%d,%d) not %d-byte aligned",
			name, base, base+bytes, dram.BankBurstBytes)
	}
	if weight == 0 {
		weight = 1
	}
	if weight < 0 {
		return nil, fmt.Errorf("core: tenant %q weight %v must be positive", name, weight)
	}
	if quota < 0 {
		return nil, fmt.Errorf("core: tenant %q quota %v must be non-negative", name, quota)
	}
	if cfg.MaxPending < 0 {
		return nil, fmt.Errorf("core: tenant %q MaxPending %d must be non-negative", name, cfg.MaxPending)
	}
	t := &Tenant{
		c:          c,
		name:       name,
		ar:         arena{base, bytes},
		meter:      cost.NewMeter(),
		weight:     weight,
		quota:      quota,
		maxPending: cfg.MaxPending,
		shed:       cfg.Shed,
		sq:         &subQueue{weight: weight},
	}
	c.tenantMu.Lock()
	for _, o := range c.tenants {
		if overlap(base, bytes, o.ar.base, o.ar.size) {
			c.tenantMu.Unlock()
			return nil, fmt.Errorf("core: tenant %q arena [%d,%d) overlaps tenant %q arena [%d,%d)",
				name, base, base+bytes, o.name, o.ar.base, o.ar.base+o.ar.size)
		}
	}
	c.tenants = append(c.tenants, t)
	c.tenantMu.Unlock()
	c.asyncMu.Lock()
	c.queues = append(c.queues, t.sq)
	c.asyncMu.Unlock()
	return t, nil
}

// Tenants returns the live (unclosed) tenants in creation order.
func (c *Comm) Tenants() []*Tenant {
	c.tenantMu.Lock()
	defer c.tenantMu.Unlock()
	out := make([]*Tenant, len(c.tenants))
	copy(out, c.tenants)
	return out
}

// RetiredTenants returns the closed tenants in closing order. Their
// meters are retained so machine-total accounting (summing live +
// retired tenant meters) stays bit-identical across churn.
func (c *Comm) RetiredTenants() []*Tenant {
	c.tenantMu.Lock()
	defer c.tenantMu.Unlock()
	out := make([]*Tenant, len(c.retired))
	copy(out, c.retired)
	return out
}

// Close retires the tenant: it drains the machine, rejects every later
// admission with ErrTenantClosed, removes the tenant's scheduler bucket
// and evicts its owned plans from the plan caches, the Comm's and those
// of the clusters it is a host of — plan keys carry absolute offsets, so
// a successor tenant reusing the arena would otherwise collide with the
// retiree's cached plans. The tenant's meter
// survives on the Comm's retired list (RetiredTenants); the arena
// window itself is the caller's to reclaim (pidcomm.Machine.CloseTenant
// returns it to the dram free-list allocator). Returns ErrTenantClosed
// on a double close.
func (t *Tenant) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("%w: tenant %q closed twice", ErrTenantClosed, t.name)
	}
	t.closed = true
	t.mu.Unlock()
	c := t.c
	c.Flush()
	c.asyncMu.Lock()
	for i, q := range c.queues {
		if q == t.sq {
			c.queues = append(c.queues[:i], c.queues[i+1:]...)
			break
		}
	}
	// Sweep stragglers: a Submit that passed admission before the closed
	// flag was set may have enqueued after the Flush drained. Nothing
	// will ever pick them from the detached bucket, so complete them
	// here with ErrTenantClosed.
	for _, f := range t.sq.q {
		c.completeDroppedLocked(f, fmt.Errorf("%w: tenant %q", ErrTenantClosed, t.name))
	}
	t.sq.q = nil
	c.asyncMu.Unlock()
	c.tenantMu.Lock()
	for i, o := range c.tenants {
		if o == t {
			c.tenants = append(c.tenants[:i], c.tenants[i+1:]...)
			break
		}
	}
	c.retired = append(c.retired, t)
	clusters := c.clusters
	c.tenantMu.Unlock()
	c.evictOwnedPlans(t)
	for _, cl := range clusters {
		cl.evictOwned(t)
	}
	return nil
}

// Closed reports whether the tenant has been closed.
func (t *Tenant) Closed() bool { return t.isClosed() }

func (t *Tenant) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// evictOwnedPlans drops every cached plan owned by t. Charge traces are
// keyed by call shape only and stay — a successor tenant at the same
// base offsets re-compiles the plan but reuses the trace.
func (c *Comm) evictOwnedPlans(t *Tenant) {
	c.compMu.Lock()
	defer c.compMu.Unlock()
	for k, cp := range c.compiled {
		if cp.owned && cp.owner == t {
			delete(c.compiled, k)
		}
	}
	for k, cp := range c.seqPlans {
		if cp.owned && cp.owner == t {
			delete(c.seqPlans, k)
		}
	}
}

// Compile compiles d against the tenant's arena: every region must lie
// within [0, ArenaBytes). The returned plan is owned by the tenant —
// each Run/Submit is admitted against the quota and attributed to the
// tenant's meter.
func (t *Tenant) Compile(d Collective) (*CompiledPlan, error) {
	return t.c.compileIn(t.ar, t, d)
}

// CompileSequence compiles ds as one fused multi-collective plan
// against the tenant's arena (see Comm.CompileSequence). The plan is
// owned by the tenant: runs are admitted against its quota as a unit
// and attributed to its meter.
func (t *Tenant) CompileSequence(ds ...Collective) (*CompiledPlan, error) {
	return t.c.compileSequenceIn(t.ar, t, ds)
}

// Run compiles (or fetches) the plan for d and executes one replay.
func (t *Tenant) Run(d Collective) (cost.Breakdown, error) {
	cp, err := t.Compile(d)
	if err != nil {
		return cost.Breakdown{}, err
	}
	return cp.Run()
}

// Submit compiles (or fetches) the plan for d and enqueues one
// asynchronous execution on the tenant's weighted-fair bucket.
func (t *Tenant) Submit(d Collective) (*Future, error) {
	cp, err := t.Compile(d)
	if err != nil {
		return nil, err
	}
	return cp.Submit(), nil
}

// Resolve returns the (algorithm, level) pair Compile(d) would pick.
func (t *Tenant) Resolve(d Collective) (Algorithm, Level, error) { return t.c.Resolve(d) }

// SetPEBuffer writes raw bytes into the tenant's arena of a PE's MRAM
// (no cost), off arena-relative. Like Comm.SetPEBuffer it is a setup
// helper; call Flush first if submissions may be in flight.
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

// Meter returns the tenant's cost meter: exactly the charges of this
// tenant's plans, bit-identical to running the same workload alone.
func (t *Tenant) Meter() *cost.Meter { return t.meter }

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Weight returns the tenant's weighted-fair scheduler share.
func (t *Tenant) Weight() float64 { return t.weight }

// Quota returns the tenant's simulated-time budget (0 = unlimited).
func (t *Tenant) Quota() cost.Seconds { return t.quota }

// MaxPending returns the tenant's in-flight submission bound
// (0 = unlimited).
func (t *Tenant) MaxPending() int { return t.maxPending }

// Shed returns the tenant's overload shed policy.
func (t *Tenant) Shed() ShedPolicy { return t.shed }

// Pending returns the tenant's submitted-but-uncompleted plan count.
func (t *Tenant) Pending() int {
	t.c.asyncMu.Lock()
	defer t.c.asyncMu.Unlock()
	return t.inflight
}

// Admitted returns the predicted simulated time admitted so far — the
// quantity the quota is enforced against.
func (t *Tenant) Admitted() cost.Seconds {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.admitted
}

// Arena returns the tenant's per-PE MRAM window as (base, bytes).
func (t *Tenant) Arena() (base, bytes int) { return t.ar.base, t.ar.size }

// Flush blocks until every plan submitted on the shared machine has
// completed (the machine-wide barrier; see Comm.Flush).
func (t *Tenant) Flush() { t.c.Flush() }

// Elapsed returns the shared machine's overlap-aware elapsed time.
func (t *Tenant) Elapsed() cost.Seconds { return t.c.Elapsed() }

// admit charges the tenant's admission ledger with a plan's predicted
// cost, rejecting with ErrQuotaExceeded if the quota cannot cover it.
// A nil tenant (plain Comm plans) admits everything.
func (t *Tenant) admit(c cost.Seconds) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("%w: tenant %q", ErrTenantClosed, t.name)
	}
	if t.quota > 0 && t.admitted+c > t.quota {
		return fmt.Errorf("%w: tenant %q admitted %.6gs + requested %.6gs exceeds quota %.6gs",
			ErrQuotaExceeded, t.name, float64(t.admitted), float64(c), float64(t.quota))
	}
	t.admitted += c
	return nil
}

// refund reverses an admit for a plan that was admitted but never ran
// (shed under overload, swept by a racing Close).
func (t *Tenant) refund(c cost.Seconds) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.admitted -= c
	t.mu.Unlock()
}

// ownerName labels a plan owner in diagnostics.
func ownerName(t *Tenant) string {
	if t == nil {
		return "the machine"
	}
	return fmt.Sprintf("tenant %q", t.name)
}

// adopt binds the plan to its owner on first compile and verifies the
// binding on cache hits. Tenants can never collide on a plan key (their
// arenas are disjoint, and keys carry absolute offsets), so a conflict
// means a plain-Comm caller and a tenant named the same MRAM — which
// the tenancy contract forbids.
func (cp *CompiledPlan) adopt(t *Tenant) error {
	c := cp.c
	c.compMu.Lock()
	defer c.compMu.Unlock()
	if !cp.owned {
		cp.owned, cp.owner = true, t
		return nil
	}
	if cp.owner != t {
		return fmt.Errorf("core: plan %s is owned by %s, not %s",
			cp.sched.Name, ownerName(cp.owner), ownerName(t))
	}
	return nil
}
