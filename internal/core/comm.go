package core

import (
	"bytes"
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

// Comm is one simulated machine on a hypercube: a host model (whose meter
// accumulates all costs), a DPU engine, the shape table, the submission
// queue and the elapsed-time timeline. It runs no collective itself: a
// session (Tenant, from NewTenant or Session) compiles each into a
// Schedule (schedule.go) and a CompiledPlan (plan.go), run by the single
// executor (exec.go) against the comm's Backend.
//
// Comm is safe for concurrent use (doc.go, Concurrency). Executions
// serialize on execMu, as a driver-level lock would on real hardware, so
// collectives interleave at call granularity. Callers remain responsible
// for data disjointness within a session: two concurrent collectives (or
// app kernels) touching overlapping MRAM regions race semantically even
// though each executes atomically.
//
// Asynchronous execution (async.go): a submission enqueues a compiled
// plan on its session's bucket of the machine's submission queue and
// returns a Future; independent plans overlap on the elapsed-time
// timeline (Elapsed), hazardous plans are ordered by their MRAM
// footprints, and Flush is the barrier. Serial runs and direct MRAM
// access (SetPEBuffer/GetPEBuffer) should only happen with no submissions
// in flight — serial Run flushes implicitly.
type Comm struct {
	hc      *Hypercube
	h       *host.Host
	eng     *dpu.Engine
	backend Backend

	// The rest of the Config, resolved by New and immutable afterwards,
	// so every path reads it without a lock: the fusion level, the
	// worker-shard count (never 0) and the candidate window depth of the
	// window-scanning policies.
	fuse      FuseLevel
	workers   int
	lookahead int

	// execMu serializes schedule execution and all direct access to the
	// host model (its meter epoch state and transfer statistics).
	execMu sync.Mutex

	// The shape table: the comm's own (New), or its cluster's (NewCluster).
	*shapeTable

	// tl is the overlap-aware elapsed-time timeline; asyncBase is the
	// barrier behind which new submissions may not start; front holds the
	// placements still visible for hazard checks, made by the first
	// submission (nil on a comm that never submits); extSegs is
	// ExtendElapsed's buffer. All four are guarded by execMu (async.go).
	tl        cost.Timeline
	asyncBase cost.Seconds
	front     *frontier
	extSegs   []cost.Segment

	// asyncMu guards every submission and session-lifecycle state of the
	// machine: the registry of live tenants (in creation order; each one's
	// bucket is its sq), tenantSeq, the count of tenants ever registered
	// that default names are drawn from, the retired list of closed
	// tenants, kept so machine-total accounting still sees their meters,
	// each tenant's admission ledger and in-flight count (tenant.go), the
	// weighted-fair virtual clock, the pending count, which is also the
	// queue slot: a submission drains the queue while MaxPendingPlans are
	// pending, and executing, set while a goroutine runs a picked plan
	// (runLocked). asyncCond is the queue's one wait (waitLocked), broadcast
	// by every completion; parked counts the waiters blocked on it. sched is
	// the policy's Scheduler instance, whose Pick calls asyncMu serializes;
	// cands is pickLocked's reusable candidate scratch (async.go, sched.go);
	// futs is what is left of the chunk submissions carve their Futures
	// from, dropped when the last session closes (tenant.go).
	asyncMu      sync.Mutex
	asyncCond    *sync.Cond
	tenants      []*Tenant
	tenantSeq    int
	retired      []*Tenant
	vclock       float64
	seqCounter   uint64
	asyncPending int
	executing    bool
	parked       int
	sched        Scheduler
	cands        []Candidate
	futs         []Future

	// Parallel-execution state, all guarded by execMu (the per-shard
	// contexts are only touched while an execution holds the lock). cur
	// is the running plan (runScheduleLocked): the steps read its base and
	// host buffers.
	cur     *CompiledPlan
	streams []*streamCtx // per-shard streaming contexts (engine.go)
	slabs   [][]byte     // per-shard scratch (stage, rotate)
	image   []byte       // a single-group AllGather's image, read to broadcast
	brun    bulkRunner
	rrun    rotateRunner
	srun    segRunner
}

// shapeTable is what a comm compiles that depends only on its
// configuration and the call shape. A lone machine (New) has its own; the
// hosts of a Cluster, built from one Config, share one (NewCluster).
// compMu, the one lock of compilation (doc.go, Concurrency), guards it
// all: group plans per dims string, Auto decisions and objective
// (auto.go), shape rows (a cluster's role rows too), counters, fusion
// statistics, tracer.
type shapeTable struct {
	compMu    sync.Mutex
	plans     map[string]*plan
	autoCache map[autoKey]autoDecision
	autoObj   AutoObjective
	rows      map[seqKey]*planEntry
	cacheSt   PlanCacheStats
	fuseSt    FusionStats
	tracer    *tracer
}

func newShapeTable() *shapeTable {
	return &shapeTable{plans: make(map[string]*plan), autoCache: make(map[autoKey]autoDecision), rows: make(map[seqKey]*planEntry)}
}

// Config is everything about a Comm a caller can choose. New applies it
// once; nothing in it can change afterwards (the Auto objective,
// SetAutoObjective, is the one runtime setting).
type Config struct {
	// Params is the timing model; the zero value means
	// cost.DefaultParams().
	Params cost.Params
	// Backend is what runs move besides booking their charge traces; nil
	// means the byte-accurate functional backend. A non-functional backend
	// gets a phantom (no-MRAM) system: collectives charge the meter
	// exactly as on the functional backend but move no bytes, rooted
	// primitives return nil result buffers, and Scatter accepts nil host
	// buffers (sizes are implied by the call).
	Backend Backend
	// Fuse is the schedule-fusion level every plan of the comm is
	// compiled at (fuse.go); the zero value is FuseFull.
	Fuse FuseLevel
	// ExecWorkers is the number of worker shards the functional backend
	// splits schedule-step work across (bulk transfers, streaming epochs,
	// rotations); <= 0 means GOMAXPROCS. Purely a simulator-
	// throughput setting: results, meter charges, bus statistics and MRAM
	// contents are byte-identical at any worker count.
	ExecWorkers int
	// Sched is the submission scheduling policy, a row of the schedulers
	// table (sched.go). The zero value is SchedWFQ.
	Sched SchedPolicy
	// Lookahead is the candidate window: how deep into each bucket the
	// window-scanning policies (SchedEDF, SchedLookahead) consider
	// hazard-free plans at each pick. 0 means DefaultLookahead; otherwise
	// it must be in [1, MaxPendingPlans].
	Lookahead int
}

// New builds the simulated system for geo — phantom when cfg.Backend is
// not functional — the virtual hypercube of the given shape over its PEs,
// and the communication context configured by cfg, on a shape table of its
// own. It and NewCluster are the only constructors: newComm validates cfg
// and resolves the scheduler instance, once per comm.
func New(geo dram.Geometry, shape []int, cfg Config) (*Comm, error) {
	return newComm(geo, shape, cfg, newShapeTable())
}

// newComm is New on the shape table tab.
func newComm(geo dram.Geometry, shape []int, cfg Config, tab *shapeTable) (*Comm, error) {
	if cfg.Params == (cost.Params{}) {
		cfg.Params = cost.DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backend == nil {
		cfg.Backend = functionalBackend{}
	}
	if cfg.Lookahead == 0 {
		cfg.Lookahead = DefaultLookahead
	}
	if cfg.Lookahead < 1 || cfg.Lookahead > MaxPendingPlans {
		return nil, fmt.Errorf("core: lookahead window %d out of range [1, %d]", cfg.Lookahead, MaxPendingPlans)
	}
	if cfg.Sched < 0 || int(cfg.Sched) >= len(schedulers) {
		return nil, fmt.Errorf("core: unknown scheduling policy %v", cfg.Sched)
	}
	if cfg.Fuse < FuseFull || cfg.Fuse > FuseOff {
		return nil, fmt.Errorf("core: unknown fusion level %v", cfg.Fuse)
	}
	newSystem := dram.NewSystem
	if !cfg.Backend.Functional() {
		newSystem = dram.NewPhantomSystem
	}
	sys, err := newSystem(geo)
	if err != nil {
		return nil, err
	}
	hc, err := NewHypercube(sys, shape)
	if err != nil {
		return nil, err
	}
	c := &Comm{
		hc:         hc,
		h:          host.New(hc.sys, cfg.Params),
		eng:        dpu.NewEngine(hc.sys, cfg.Params),
		backend:    cfg.Backend,
		fuse:       cfg.Fuse,
		workers:    cfg.ExecWorkers,
		sched:      schedulers[cfg.Sched].New(),
		lookahead:  cfg.Lookahead,
		shapeTable: tab,
	}
	if c.workers <= 0 {
		c.workers = runtime.GOMAXPROCS(0)
	}
	c.h.SetWorkers(c.workers)
	c.asyncCond = sync.NewCond(&c.asyncMu)
	return c, nil
}

// ExecWorkers returns the worker-shard count (Config.ExecWorkers).
func (c *Comm) ExecWorkers() int { return c.workers }

// bulkRunner is the comm's one par.Runner of a staged step's functional
// pass (stage). With g < 0 its shards own contiguous ranges of st's
// groups and stage each in the shard's own slab; with g >= 0 they copy
// ranges of group g's members into slab 0, or out of it when write is
// set.
type bulkRunner struct {
	c     *Comm
	st    *StepBulk
	g     int
	write bool
}

func (br *bulkRunner) RunShard(shard, lo, hi int) {
	c, st := br.c, br.st
	if br.g >= 0 {
		in, out := c.staging(st, 0)
		c.moveMembers(st, br.g, lo, hi, in, out, br.write)
		return
	}
	in, out := c.staging(st, shard)
	for g := lo; g < hi; g++ {
		c.moveMembers(st, g, 0, st.p.n, in, out, false)
		st.Modulate(c, g, in, out)
		c.moveMembers(st, g, 0, st.p.n, in, out, true)
	}
}

// stage is a staged step's functional pass: each communication group of
// st.p in turn has its members' bytes read into scratch of
// n·(ReadPerPE+WritePerPE) bytes, modulated, and written back. The
// groups shard across the workers, each shard staging its groups in a
// slab of its own; a plan with fewer groups than workers stages one group
// at a time in slab 0 and shards the group's member copies instead, so a
// single-group pass stays parallel. Callers hold execMu.
func (c *Comm) stage(st *StepBulk) {
	p := st.p
	c.growSlabs(min(c.workers, len(p.groups)), p.n*(st.ReadPerPE+st.WritePerPE))
	br := &c.brun
	br.c, br.st, br.g = c, st, -1
	if len(p.groups) >= c.workers {
		par.Do(c.workers, len(p.groups), br)
	} else {
		in, out := c.staging(st, 0)
		for g := range p.groups {
			br.g, br.write = g, false
			par.Do(c.workers, p.n, br)
			st.Modulate(c, g, in, out)
			br.write = true
			par.Do(c.workers, p.n, br)
		}
	}
	br.st = nil
}

// growSlabs makes the comm's first k per-shard slabs hold need bytes
// each. Callers hold execMu.
func (c *Comm) growSlabs(k, need int) {
	for len(c.slabs) < k {
		c.slabs = append(c.slabs, nil)
	}
	for i := range k {
		if cap(c.slabs[i]) < need {
			c.slabs[i] = make([]byte, need)
		}
	}
}

// staging splits shard's slab into st's in and out scratch.
func (c *Comm) staging(st *StepBulk, shard int) (in, out []byte) {
	r, w := st.p.n*st.ReadPerPE, st.p.n*st.WritePerPE
	return c.slabs[shard][:r], c.slabs[shard][r : r+w]
}

// moveMembers reads members [lo, hi) of st's group g — ReadPerPE
// bytes each at ReadOff of the running plan's arena — into in, in rank
// order, or, when write is set, writes their WritePerPE bytes from out to
// WriteOff: one copy per PE.
func (c *Comm) moveMembers(st *StepBulk, g, lo, hi int, in, out []byte, write bool) {
	grp, r, w := st.p.groups[g], st.ReadPerPE, st.WritePerPE
	for i := lo; i < hi; i++ {
		bank := c.hc.sys.BankBytes(grp[i])
		if write {
			off := c.cur.base + st.WriteOff
			copy(bank[off:off+w], out[i*w:(i+1)*w])
		} else {
			off := c.cur.base + st.ReadOff
			copy(in[i*r:(i+1)*r], bank[off:off+r])
		}
	}
}

// segRunner is the par.Runner of a streaming seg's body: it runs on the
// comm's per-shard streaming contexts at the running plan's arena base.
type segRunner struct {
	c    *Comm
	body func(sc *streamCtx, lo, hi int)
}

func (sr *segRunner) RunShard(shard, lo, hi int) {
	sc := sr.c.streams[shard]
	sc.base = sr.c.cur.base
	sr.body(sc, lo, hi)
}

// Backend returns the comm's execution backend.
func (c *Comm) Backend() Backend { return c.backend }

// Hypercube returns the comm's hypercube manager.
func (c *Comm) Hypercube() *Hypercube { return c.hc }

// Meter returns the meter accumulating all communication costs.
func (c *Comm) Meter() *cost.Meter { return c.h.Meter() }

// Host returns the underlying host model (shared with applications that
// also issue their own transfers).
func (c *Comm) Host() *host.Host { return c.h }

// Engine returns the DPU engine (shared with application kernels).
func (c *Comm) Engine() *dpu.Engine { return c.eng }

// planLocked returns the cached group plan of dims, building it on a
// miss. Callers hold compMu.
func (c *Comm) planLocked(dims string) (*plan, error) {
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
func (c *Comm) SetPEBuffer(pe, off int, data []byte) { copy(c.peWindow(pe, off, len(data)), data) }

// GetPEBuffer reads raw bytes directly from a PE's MRAM (no cost).
func (c *Comm) GetPEBuffer(pe, off, n int) []byte { return bytes.Clone(c.peWindow(pe, off, n)) }

// peWindow returns PE pe's MRAM bytes [off, off+n) or panics out of range.
func (c *Comm) peWindow(pe, off, n int) []byte {
	m := c.hc.sys.BankBytes(pe)
	if off < 0 || off+n > len(m) {
		panic(fmt.Sprintf("core: PE %d buffer [%d,%d) out of MRAM range %d", pe, off, off+n, len(m)))
	}
	return m[off : off+n]
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
