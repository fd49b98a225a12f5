package core

// This file implements the first-class cluster layer (§ IX-A, Figure
// 23(b)): H hosts, each driving its own PIM subsystem through a *Comm,
// cooperate over an MPI-like network. A hierarchical cluster collective
// lowers — per host — into ONE schedule-IR plan: the intra-host leg(s)
// (ordinary PID-Comm lowerings), the inter-host network leg (a
// StepNetTransfer priced by cost.NetParams and, on the functional
// backend, a rendezvous with the peer hosts' executors around the
// shared staging), and the redistribution leg. Because the whole
// hierarchy is one sequence through the plan builder (plan.go), it fuses
// (the interior per-leg syncs collapse — a cross-leg rewrite on every
// hierarchical plan) and replays through the same engine as a
// single-host collective; it is cached once, in its session's cache under
// its clusterKey (the per-host plans are built past the shape table's
// rows).
//
// One configuration, one shape table, one plan per role: NewCluster builds
// every host from one Config on one shape table (comm.go), so a local
// collective compiled on every shard lowers and traces once. A lowered
// schedule holds no comm — its steps run on the comm that executes them —
// so compile builds one row for the hosts the lowering does not single
// out, and one for each host it does: the root where a rooted wire or Flat
// reads it, each host of an AlltoAll, whose pack/unpack volumes follow h.
// Every other host binds its role's row to its own shard and buffers of
// the staging (clusterBuild.payloads), lowering and tracing nothing, and
// the H executors of a functional cluster run one schedule at once.
//
// The leg table (the cluster field of each shapes row, then clusterFlat;
// H hosts, P PEs per host, m the reduced or per-PE payload):
//
//	              local leg   wire (rounds × bytes per round)            redistribution
//	ReduceScatter Reduce      all-pairs: (H-1) × m/H                     Scatter
//	AllReduce     Reduce      ring 2(H-1) × m/H | tree 2⌈log2 H⌉ × m     Broadcast
//	AllGather     Gather      all-pairs: (H-1) × P·m                     Broadcast
//	Scatter       —           rooted: (root H-1 | else 1) × P·m          Scatter
//	Gather        Gather      rooted: (root H-1 | else 1) × P·m          — (Results)
//	Reduce        Reduce      rooted: (root H-1 | else 1) × m            — (Results)
//	Broadcast     —           fan-out: ⌈log2 H⌉ × m                      Broadcast
//	Flat          Gather      rooted × P·m, root reduce, fan-out × m     Broadcast
//
// AlltoAll is the one lowering outside the table — its remote portions
// are a prefix and a suffix around the host's own, which no (local, wire,
// redistribution) triple expresses: a local AlltoAll of the host's own
// portion, then pack → exchange ((H-1) × P·P·s) → unpack.
//
// Global shape: a cluster collective treats the H×P PEs (P per host) as
// one flat communicator. Global rank g = h*P + j, where j is the PE's
// rank within its host's group for the descriptor's Dims — which must
// select every dimension of the per-host hypercube, so each host is a
// single group. Functional results are byte-identical to running the
// same descriptor on one flat comm of H*P PEs (cluster_test.go pins
// this per primitive, including non-power-of-two H).
//
// A cluster collective compiles on a ClusterTenant: the same arena
// carved on every host (Cluster.NewTenant, Cluster.Session), whose
// regions are relative to it, whose runs are admitted against every
// shard and metered on each, and whose plan cache holds them. That cache
// needs no eviction: it serves only its own session, and Run and Submit
// admit on every shard first, which a closed shard refuses, so a plan
// outliving a shard never runs.
//
// Concurrency: Compile holds the hosts' one compMu from entry to return,
// the session's plan cache included. The functional backend executes a
// cluster plan with one goroutine per host; the hosts meet at
// generation-counting barriers inside the network legs. Serial Runs are
// serialized on the cluster's execMu; Submit admits on every host, then
// enqueues on every host atomically under it, so the per-host queues see
// cluster plans in one global order and the rendezvous always pair up.
// A shard's Close holds it too, so no shard closes between a run's or a
// submission's admission and its last host.
// Cluster plans should be submitted from one goroutine at a time per
// session; the cost-only backend has no barriers and no such constraint.

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/internal/host"
)

// ClusterCollective describes one collective over every PE of a
// cluster. The embedded Collective is interpreted on the global
// communicator: Dims must select every dimension of the per-host
// hypercube, per-PE region sizes are the global call's (e.g. an
// AlltoAll buffer holds H*P blocks), and Hosts carries at most one
// global payload (Scatter/Broadcast; a Gather's or Reduce's result is the
// plan's: ClusterPlan.Results). Root selects the root host of the
// rooted primitives (Broadcast, Scatter, Gather, Reduce). Flat requests
// the naive flat emulation instead of the hierarchical lowering — every
// PE's raw data crosses the wire to the root — and is implemented for
// AllReduce as the benchmark baseline.
//
// On a cost-only cluster Hosts may be nil even for Broadcast; the
// payload size is then taken from Dst.Bytes.
type ClusterCollective struct {
	Collective
	Root int
	Flat bool
}

// clusterKey identifies a descriptor in the cluster cache. Hosts buffers
// are identified by presence only — plans that capture caller payloads
// are not cached (mirroring the single-host host-input rule).
type clusterKey struct {
	prim     Primitive
	dims     string
	src, dst Region
	elem     elem.Type
	op       elem.Op
	level    Level
	algo     Algorithm
	root     int
	flat     bool
	hosts    bool
}

// barrier is a reusable generation-counting rendezvous for the H host
// executor goroutines of a functional cluster. The LAST arriver runs
// the exchange action (merging partials, assembling the global buffer)
// before releasing the others, so the action observes every host's
// published data and every host observes the action's result.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all n parties have arrived; the last arriver runs
// action (if non-nil) before releasing the generation.
func (b *barrier) await(action func()) {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		if action != nil {
			action()
		}
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// clusterState is one cluster-cache entry: the per-descriptor shared
// staging — what the network legs move between the hosts — and, when
// cacheable, the plan. The staging is allocated once per descriptor and
// bound into the role rows' network legs and the host plans' payloads at
// compile time, so cached replays reuse it; the trailing fence barrier of
// every plan keeps run N+1 from overwriting it while run N still streams.
// Buffers and barrier exist only on the functional backend — cost-only
// sweeps to thousands of hosts allocate no O(data) staging.
type clusterState struct {
	// plan is the compiled plan, nil while uncompiled and for plans that
	// capture a caller payload.
	plan *ClusterPlan
	// global is the assembled / merged cluster-wide buffer the
	// redistribution legs read (and rooted Results return).
	global []byte
	// parts is what the local legs write, host h the h-th of H windows:
	// global itself, or a buffer of its own where the wire reduces them.
	parts []byte
	// xfer[src][dst] is the AlltoAll exchange slab: P*P blocks of s
	// bytes, block (j,k) at (j*P+k)*s — source rank j to dest rank k.
	xfer [][][]byte
	bar  *barrier
}

// Cluster is a set of H identically configured hosts executing
// hierarchical collectives, built by NewCluster; the pidcomm package wraps
// it in the user-facing session API.
type Cluster struct {
	comms      []*Comm
	p          int // PEs per host
	functional bool

	// execMu serializes serial cluster runs and makes Submit's multi-host
	// enqueue atomic (a single global order of cluster plans); a cluster
	// session's shard closes under it.
	execMu sync.Mutex
}

// NewCluster builds hosts machines, each New(geo, shape, cfg), on one
// shape table, and joins them into a cluster. A functional cluster cannot
// be stepped, which it reports before building anything.
func NewCluster(hosts int, geo dram.Geometry, shape []int, cfg Config) (*Cluster, error) {
	if hosts <= 0 {
		return nil, fmt.Errorf("core: cluster needs at least one host, got %d", hosts)
	}
	functional := cfg.Backend == nil || cfg.Backend.Functional()
	if functional && cfg.Stepped {
		return nil, fmt.Errorf("core: a functional cluster cannot be stepped: its hosts rendezvous inside network legs and need one executor each (use a cost-only cluster, which has no barriers)")
	}
	cl := &Cluster{comms: make([]*Comm, hosts), p: geo.NumPEs(), functional: functional}
	tab := newShapeTable()
	for h := range cl.comms {
		var err error
		if cl.comms[h], err = newComm(geo, shape, cfg, tab); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// NumHosts returns the number of hosts.
func (cl *Cluster) NumHosts() int { return len(cl.comms) }

// PEsPerHost returns the PE count of each host.
func (cl *Cluster) PEsPerHost() int { return cl.p }

// Host returns host h's communication context.
func (cl *Cluster) Host(h int) *Comm { return cl.comms[h] }

// Flush blocks until every submitted cluster plan has completed on
// every host.
func (cl *Cluster) Flush() {
	for _, c := range cl.comms {
		c.Flush()
	}
}

// NewTenant carves the same per-PE MRAM arena on every host and returns
// the session bound to the shards: one Tenant per host, each with cfg's
// weight and quota, all under one name (cfg.Name, else the default name
// host 0 picks). When a host cannot fit the arena, or fits it at another
// base, the shards already made are closed again: a failed call leaves
// every host as it found it.
func (cl *Cluster) NewTenant(cfg TenantConfig) (*ClusterTenant, error) {
	return cl.join(func(c *Comm) (*Tenant, error) {
		t, err := c.NewTenant(cfg)
		if err == nil {
			cfg.Name = t.name // host 0 resolves a default name for every host
		}
		return t, err
	})
}

// Session returns a whole-cluster session: every host's Comm.Session —
// the largest free window, offset 0 on fresh hosts — joined like
// NewTenant's shards.
func (cl *Cluster) Session() (*ClusterTenant, error) { return cl.join((*Comm).Session) }

// join carves one shard per host and joins them into a session.
func (cl *Cluster) join(carve func(*Comm) (*Tenant, error)) (*ClusterTenant, error) {
	shards := make([]*Tenant, 0, len(cl.comms))
	for h, c := range cl.comms {
		t, err := carve(c)
		if err == nil {
			t.cl = cl
			shards = append(shards, t)
			if a0 := shards[0].ar; t.ar != a0 {
				err = fmt.Errorf("tenant %q arena diverges across hosts ([%d,+%d) on host 0, [%d,+%d) here)",
					t.name, a0.base, a0.size, t.ar.base, t.ar.size)
			}
		}
		if err != nil {
			for _, s := range shards {
				err = errors.Join(err, s.Close())
			}
			return nil, fmt.Errorf("core: cluster host %d: %w", h, err)
		}
	}
	return &ClusterTenant{cl: cl, shards: shards, cache: make(map[clusterKey]*clusterState)}, nil
}

// ClusterTenant is one sharded session on a Cluster: the same arena on
// every host. Cluster collectives go through Compile/Run/Submit with
// arena-relative regions; per-host data placement and local collectives
// go through the shards (Host), which are full single-machine sessions.
// Its plan cache is guarded by the hosts' one compMu, like their rows.
type ClusterTenant struct {
	cl     *Cluster
	shards []*Tenant
	cache  map[clusterKey]*clusterState
}

// Host returns the session's shard on host h.
func (s *ClusterTenant) Host(h int) *Tenant { return s.shards[h] }

// Name returns the session's name, shared by every shard.
func (s *ClusterTenant) Name() string { return s.shards[0].name }

// Arena returns the session's per-PE MRAM window, identical on every
// host, as (base, bytes).
func (s *ClusterTenant) Arena() (base, bytes int) { return s.shards[0].Arena() }

// Compile lowers d against the session's arena into one compiled plan
// per role, bound per host (the header has the rule; see ClusterPlan),
// and caches the result: recompiling an equal descriptor returns the
// same plan. Runs are admitted against every shard up front and charges
// are attributed per shard. Plans that capture a caller payload
// (functional Broadcast/Scatter) recompile fresh, like their single-host
// counterparts. A closed shard fails with ErrTenantClosed and caches
// nothing.
func (s *ClusterTenant) Compile(d ClusterCollective) (*ClusterPlan, error) {
	cl := s.cl
	key := clusterKey{prim: d.Prim, dims: d.Dims, src: d.Src, dst: d.Dst, elem: d.Elem, op: d.Op,
		level: d.Level, algo: d.Algorithm, root: d.Root, flat: d.Flat, hosts: d.Hosts != nil}
	c := cl.comms[0] // the hosts' one shape table
	c.compMu.Lock()
	defer c.compMu.Unlock()
	for h, t := range s.shards {
		if err := t.errIfClosed(); err != nil {
			return nil, fmt.Errorf("cluster host %d: %w", h, err)
		}
	}
	st, ok := s.cache[key]
	if ok && st.plan != nil {
		return st.plan, nil
	}
	if !ok {
		st = &clusterState{}
		if cl.functional {
			st.bar = newBarrier(len(cl.comms))
		}
	}
	cp := &ClusterPlan{cl: cl, d: d, st: st, plans: make([]*CompiledPlan, len(cl.comms))}
	var sym *clusterBuild // the row of the hosts the lowering does not single out
	// rooted: the root's wire rounds (and Flat's reduce) are its alone.
	rooted := d.Flat || d.Prim.known() && shapes[d.Prim].cluster.wire == wireRooted
	for h := range cl.comms {
		owner := s.shards[h]
		own := d.Prim == AlltoAll || rooted && h == d.Root // the lowering reads h
		b := sym
		if own || b == nil {
			// Validated, lowered, fused and traced past the shape table's
			// rows — this entry is the cache — by the role's first host only.
			var err error
			if b, err = cl.hostSpecs(h, owner.ar, st, d); err != nil {
				return nil, fmt.Errorf("cluster host %d: %s: %w", h, d.Prim.LongName(), err)
			}
			b.row = b.c.buildLocked(b.specs)
			if !own {
				sym = b
			}
		} else {
			c.cacheSt.TraceHits++ // host h shares its role's row
		}
		cp.plans[h] = owner.planOn(b.row, b.payloads(h))
	}
	// Cached only now: a descriptor rejected at any host leaves no entry.
	s.cache[key] = st
	if !(cl.functional && d.Hosts != nil) {
		st.plan = cp
	}
	return cp, nil
}

// Run compiles (or fetches the cached plan for) d and executes it once
// across every host, returning the cluster-critical-path breakdown.
func (s *ClusterTenant) Run(d ClusterCollective) (cost.Breakdown, error) {
	cp, err := s.Compile(d)
	if err != nil {
		return cost.Breakdown{}, err
	}
	return cp.Run()
}

// Submit compiles d and enqueues one asynchronous execution on every
// host's scheduler, returning a ClusterFuture.
func (s *ClusterTenant) Submit(d ClusterCollective) (*ClusterFuture, error) {
	cp, err := s.Compile(d)
	if err != nil {
		return nil, err
	}
	return cp.Submit(), nil
}

// Flush blocks until every plan submitted on any host has completed.
func (s *ClusterTenant) Flush() { s.cl.Flush() }

// Close closes every shard (Tenant.Close), returning their arenas; a
// double close reports ErrTenantClosed per shard.
func (s *ClusterTenant) Close() error {
	var err error
	for _, t := range s.shards {
		err = errors.Join(err, t.Close())
	}
	return err
}

// ---------------------------------------------------------------------
// Per-host lowering: one []planSpec per row, fed to buildLocked.
// ---------------------------------------------------------------------

// ceilLog2 returns ceil(log2(h)) for h >= 1 — the rounds of a binomial
// fan-out.
func ceilLog2(h int) int { return bits.Len(uint(h - 1)) }

// wireLeg is the shape of a lowering's one trip over the network (the
// header's leg table gives each shape's rounds × bytes).
type wireLeg uint8

const (
	wireAllPairs wireLeg = iota // every host's 1/H portion of the global buffer to every other host
	wireRooted                  // one host's part per round: the root serves every other host
	wireFanOut                  // a binomial fan-out of the whole buffer from the root
	// wireAllReduce is the host-level algorithm d.Algorithm selects: a row
	// of the algorithm table that has a wire shape (algorithm.go; ring or
	// tree). AlgoAuto prices every such row on the wire model and keeps the
	// cheapest; an explicit choice pins the leg.
	wireAllReduce
)

// hostAlgorithms returns the algorithm-table rows a cluster descriptor's
// algorithm selects for the wire: every row with a wire shape for
// AlgoAuto, the ring for the reference, else the row itself if it has one.
func hostAlgorithms(alg Algorithm) []Algorithm {
	if alg == AlgoReference {
		alg = AlgoRing
	}
	var out []Algorithm
	for a, row := range algorithms {
		if row.wire != nil && (alg == AlgoAuto || alg == Algorithm(a)) {
			out = append(out, Algorithm(a))
		}
	}
	return out
}

// noLeg marks a leg a lowering does not have.
const noLeg Primitive = -1

// clusterShape is one row of the leg table (a shapes row's cluster): a
// hierarchical lowering the way § IX-A states it — a local leg, one trip
// over the wire (data are sent after being reduced and before being
// duplicated), a redistribution leg. Both outer legs are rows of shapes.
type clusterShape struct {
	// local is the collective whose rooted result the host puts on the
	// wire: Reduce (the wire merges the hosts' parts with (Elem, Op)) or
	// Gather (it concatenates them in host order). noLeg: the root's
	// caller payload enters the wire.
	local Primitive
	wire  wireLeg
	name  string // the wire leg's schedule name
	// redist hands the global buffer to the PEs: a Broadcast of all of it
	// or a Scatter of the host's 1/H portion. noLeg: a rooted result,
	// read from the staging by Results.
	redist Primitive
}

// clusterFlat is the ninth row, the naive AllReduce of a cluster that
// does NOT reduce locally before the wire: every PE's raw buffer is
// gathered to the root host (P×m per host crosses the network instead of
// m/H), the root CPU reduces all H*P buffers, and the result fans back
// out (the d.Flat block of legs). It exists as the benchmark baseline
// the hierarchical lowering is gated against (pidbench -exp cluster).
var clusterFlat = clusterShape{Gather, wireRooted, "flat:gather", Broadcast}

// clusterBuild accumulates one host's member specs: a role's, whose row
// every host of the role binds.
type clusterBuild struct {
	cl *Cluster
	c  *Comm
	h  int // host index
	p  *plan
	ar arena
	st *clusterState
	d  ClusterCollective
	// m and s are the global call's per-PE payload and block size, as
	// validated against the shape table.
	m, s int
	// specs are the members and row their shape row (Compile builds it).
	// Host h's redistribution leg reads win bytes of the staging at
	// h*stride (payloads); win is 0 without one.
	specs       []planSpec
	row         *planEntry
	win, stride int
}

// payloads returns the two host buffers host h's plan binds: its part, which
// a local leg writes, and the window of the staging its redistribution
// leg reads — all of it (Broadcast), its 1/H portion (Scatter) or none.
// Nil without a staging (cost-only).
func (b *clusterBuild) payloads(h int) [][]byte {
	if b.st.global == nil {
		return nil
	}
	n := len(b.st.parts) / len(b.cl.comms)
	return [][]byte{b.st.parts[h*n:][:n], b.st.global[h*b.stride:][:b.win]}
}

// hostSpecs validates d for host h and lowers its members, arena-relative,
// with the host payloads they read. Callers hold compMu.
func (cl *Cluster) hostSpecs(h int, ar arena, st *clusterState, d ClusterCollective) (*clusterBuild, error) {
	sh, err := shapeOf(d.Prim)
	if err != nil {
		return nil, err
	}
	c := cl.comms[h]
	p, err := c.planLocked(d.Dims)
	if err != nil {
		return nil, err
	}
	if p.n != cl.p {
		return nil, fmt.Errorf("cluster collectives span the whole host: dims %q groups %d of %d PEs", d.Dims, len(p.groups), p.n)
	}
	if d.Root < 0 || d.Root >= len(cl.comms) {
		return nil, fmt.Errorf("root host %d out of range [0,%d)", d.Root, len(cl.comms))
	}
	if d.Flat && d.Prim != AllReduce {
		return nil, fmt.Errorf("the flat (non-hierarchical) lowering is only implemented for AllReduce")
	}
	if d.Algorithm != AlgoAuto {
		// The algorithm axis at cluster level selects the host-level wire
		// algorithm, which only the hierarchical AllReduce diversifies so
		// far. Local legs always resolve their own machine-level
		// algorithm; an explicit constraint elsewhere would be silently
		// dropped, so reject it instead.
		if d.Prim != AllReduce || d.Flat {
			return nil, fmt.Errorf("cluster algorithm %v not supported (only hierarchical AllReduce selects a host algorithm)", d.Algorithm)
		}
		if len(hostAlgorithms(d.Algorithm)) == 0 {
			return nil, fmt.Errorf("unsupported host algorithm %v (want Auto, ref or one of %v)", d.Algorithm, hostAlgorithms(AlgoAuto))
		}
	}
	// The global descriptor is one row of the shape table on a single
	// group of H×P ranks: block g of a ReduceScatter, AlltoAll or Scatter
	// belongs to global rank g. AllReduce and Reduce index no rank with
	// their result, so only their local leg — P ranks — is blocked.
	n := len(cl.comms) * cl.p
	if d.Prim == AllReduce || d.Prim == Reduce {
		n = cl.p
	}
	if d.Hosts != nil && sh.rooted() {
		return nil, fmt.Errorf("core: output is the plan's staging (ClusterPlan.Results), not Hosts")
	}
	b := &clusterBuild{cl: cl, c: c, h: h, p: p, ar: ar, st: st, d: d}
	if b.m, b.s, err = sh.check(ar, d.Collective, n, 1, !cl.functional); err != nil {
		return nil, err
	}
	switch {
	case d.Prim == AlltoAll:
		err = b.alltoAll()
	case d.Flat:
		err = b.legs(&clusterFlat, sh)
	default:
		err = b.legs(&sh.cluster, sh)
	}
	if err != nil {
		return nil, err
	}
	// The trailing fence: a zero-round network step whose only job
	// (functional) is to keep any host from starting the plan's next run —
	// overwriting the shared staging — while another host still streams
	// this run's data. It charges nothing on either backend.
	b.net("fence", 0, 0, st.await)
	return b, nil
}

// local appends an ordinary single-host collective as a member.
func (b *clusterBuild) local(d Collective) error {
	sp, err := b.c.specIn(b.ar, d, false)
	if err != nil {
		return err
	}
	b.specs = append(b.specs, sp)
	return nil
}

// net appends an inter-host network leg: rounds exchange rounds of
// bytesPerRound each, charged through cost.NetParams onto the host's
// network lane, plus (functional) the rendezvous run.
func (b *clusterBuild) net(name string, rounds int, bytesPerRound int64, run func(*Comm)) {
	st := &StepNetTransfer{Rounds: rounds, Bytes: bytesPerRound}
	// The cost-only twin gets an empty closure where the functional
	// cluster has a rendezvous: the step must survive (or be elided by)
	// fusion identically on both backends, or epoch coalescing around a
	// dropped step would regroup the bus-time float additions and break
	// the bit-exact functional/cost breakdown equality.
	if st.Run = run; run != nil && !b.cl.functional {
		st.Run = func(*Comm) {}
	}
	b.step("NetTransfer/"+name, span{}, span{}, st)
}

// await is the net-leg run of a pure rendezvous.
func (st *clusterState) await(*Comm) { st.bar.await(nil) }

// member appends a hand-built member that reads src and writes dst of the
// arena (an empty span: neither).
func (b *clusterBuild) member(src, dst span, sched *Schedule) {
	key := planKey{prim: b.d.Prim, dims: b.d.Dims}
	b.specs = append(b.specs, planSpec{env: algoEnv{planKey: key}, src: src, dst: dst, sched: sched})
}

// step appends what every member but the redistribution is: one step and
// its sync.
func (b *clusterBuild) step(name string, src, dst span, st Step) {
	b.member(src, dst, &Schedule{Name: name, Steps: []Step{st, &StepSync{}}})
}

// legs lowers one row of the leg table: local leg → wire → (Flat: root
// reduce and fan-out) → redistribution leg.
func (b *clusterBuild) legs(row *clusterShape, sh *shape) error {
	d, H, P, h, m, st := b.d, len(b.cl.comms), b.cl.p, b.h, b.m, b.st
	root := h == d.Root
	// part is what one host puts on (or takes off) the wire, global the
	// cluster-wide buffer the wire assembles in the staging: one payload
	// where the parts merge by reduction, H parts where they concatenate.
	part, global := m, m
	if row.local == noLeg {
		// The caller's payload is the global buffer, sized by the shape
		// table's host rule on the H×P ranks.
		if global = sh.host.of(m, H*P); global <= 0 {
			return fmt.Errorf("core: cluster collective needs a non-empty payload (cost-only without Hosts: its size in Dst.Bytes)")
		}
		part = global / H
	} else {
		if row.local == Gather {
			if part = P * m; !sh.reducing {
				global = H * part
			}
		}
		if err := b.local(Collective{Prim: row.local, Dims: d.Dims,
			Src: Span(d.Src.Off, m), Elem: d.Elem, Op: d.Op, Level: d.Level}); err != nil {
			return err
		}
	}
	// The staging exists on the functional backend only: cost-only
	// clusters keep everything nil so sweeps allocate no O(data) state.
	if b.cl.functional && len(st.global) != global {
		st.global = make([]byte, global)
		if st.parts = st.global; sh.reducing {
			st.parts = make([]byte, H*part)
		}
	}
	// The wire's rendezvous: the last host to arrive fills the global
	// buffer, from the caller's payload where there is no local leg (the
	// closure runs on the functional backend only, where check has required
	// it), else by reducing the hosts' parts, which the barrier's mutex
	// publishes (a Flat part is P raw buffers), unless they are the global
	// buffer.
	// No host brings anything of its own, so every host runs the same
	// step. The closures get copies of the fields they read, not the
	// 128-byte descriptor each.
	c, elemT, op, hosts := b.c, d.Elem, d.Op, d.Hosts
	merge := func() {
		if row.local == noLeg {
			copy(st.global, hosts[0])
			return
		}
		if sh.reducing {
			elem.Fill(elemT, st.global, op.Identity(elemT))
			for o := 0; o < len(st.parts); o += global {
				elem.ReduceInto(elemT, op, st.global, st.parts[o:o+global])
			}
		}
	}
	run := func(*Comm) { st.bar.await(merge) }

	name, rounds, bytes := row.name, H-1, global/H // wireAllPairs
	switch row.wire {
	case wireRooted:
		if bytes = part; !root {
			rounds = 1
		}
	case wireFanOut:
		rounds, bytes = ceilLog2(H), global
	case wireAllReduce:
		// AlgoAuto keeps the row cheapest on the wire model, the earlier on
		// a tie; an explicit choice (hostSpecs has checked it) pins the leg.
		net := c.h.Params().Net
		for _, a := range hostAlgorithms(d.Algorithm) {
			rr, rb := algorithms[a].wire(H, global)
			if name == "" || cost.Seconds(rr)*net.RoundTime(int64(rb)) < cost.Seconds(rounds)*net.RoundTime(int64(bytes)) {
				name, rounds, bytes = a.String(), rr, rb
			}
		}
	}
	b.net(name, rounds, int64(bytes), run)

	if d.Flat {
		if root {
			// The root CPU reduces H*P raw buffers serially.
			b.step("FlatReduce", span{}, span{}, &StepHostCompute{Charges: []Charge{{host.ScalarReduce, int64(H) * int64(P) * int64(m)}}})
		}
		b.net("flat:bcast", ceilLog2(H), int64(global), nil)
	}

	// The redistribution leg: the single-host lowering of row.redist, whose
	// payload — host buffer 1 — is a window of the staging: all of it
	// (Broadcast, n bytes per PE) or this host's 1/H portion (Scatter, one
	// block per PE).
	if row.redist == noLeg {
		return nil
	}
	n := global
	if b.win = global; row.redist == Scatter {
		n, b.win, b.stride = b.s, global/H, global/H
	}
	_, eff, err := c.resolveLocked(Collective{Prim: row.redist, Dims: d.Dims, Dst: Span(d.Dst.Off, n), Level: d.Level})
	if err != nil {
		return err
	}
	b.member(span{}, span{d.Dst.Off, n}, lowerings[row.redist][AlgoReference].lower(&algoEnv{
		planKey: planKey{prim: row.redist, dstOff: d.Dst.Off, bytes: n, lvl: eff}, p: b.p, s: n, hosts: 1}))
	return nil
}

// --- AlltoAll: local own-part AlltoAll ∥ pack → exchange → unpack -----

func (b *clusterBuild) alltoAll() error {
	d, H, P, h, s := b.d, len(b.cl.comms), b.cl.p, b.h, b.s
	PS := P * s // one host's portion per PE
	// Intra-host leg: an ordinary local AlltoAll on the region of blocks
	// destined to this host (global block h*P+k ≡ local block k there).
	if err := b.local(Collective{Prim: AlltoAll, Dims: d.Dims,
		Src: Span(d.Src.Off+h*PS, PS), Dst: At(d.Dst.Off + h*PS), Level: d.Level}); err != nil {
		return err
	}
	st := b.st
	if b.cl.functional && st.xfer == nil {
		st.xfer = make([][][]byte, H)
		for i := range st.xfer {
			st.xfer[i] = make([][]byte, H)
			for j := range st.xfer[i] {
				if i != j {
					st.xfer[i][j] = make([]byte, P*PS)
				}
			}
		}
	}
	// Pack the remote portions (a prefix of hosts below h and a suffix
	// above) into the per-pair exchange slabs, then rendezvous — the
	// (H-1)/H traffic of § IX-A, one P*PS portion per host per round —
	// and unpack the incoming slabs transposed into destination order.
	b.pack(d.Src.Off, 0, h, PS, s)
	b.pack(d.Src.Off+(h+1)*PS, h+1, H, PS, s)
	b.net("exchange", H-1, int64(P*PS), st.await)
	b.unpack(d.Dst.Off, 0, h, PS, s)
	b.unpack(d.Dst.Off+(h+1)*PS, h+1, H, PS, s)
	return nil
}

// pack reads the per-PE region [readOff, readOff+(dstHi-dstLo)*PS) of
// the arena — the blocks destined to hosts [dstLo, dstHi) — and stores
// them into this host's outgoing exchange slabs in (source rank, dest
// rank) order.
func (b *clusterBuild) pack(readOff, dstLo, dstHi, PS, s int) {
	if dstHi <= dstLo {
		return
	}
	per := (dstHi - dstLo) * PS
	p, st, h, P := b.p, b.st, b.h, b.cl.p
	b.step("ClusterPack", span{readOff, per}, span{}, &StepBulk{
		Read: true, ReadOff: readOff, ReadPerPE: per,
		Charges: []Charge{{host.HostMem, p.numPEBytes(per)}}, // slab store
		Modulate: func(_ *Comm, stag []byte) []byte {
			grp := p.groups[0]
			for j, pe := range grp {
				src := stag[pe*per : (pe+1)*per]
				for dh := dstLo; dh < dstHi; dh++ {
					slab := st.xfer[h][dh]
					for k := 0; k < P; k++ {
						copy(slab[(j*P+k)*s:(j*P+k+1)*s], src[(dh-dstLo)*PS+k*s:(dh-dstLo)*PS+(k+1)*s])
					}
				}
			}
			return nil
		},
	})
}

// unpack assembles the incoming slabs of hosts [srcLo, srcHi) —
// transposing (source rank, dest rank) into destination block order —
// and bulk-writes them to the per-PE region at writeOff of the arena.
func (b *clusterBuild) unpack(writeOff, srcLo, srcHi, PS, s int) {
	if srcHi <= srcLo {
		return
	}
	per := (srcHi - srcLo) * PS
	p, st, h, P := b.p, b.st, b.h, b.cl.p
	b.step("ClusterUnpack", span{}, span{writeOff, per}, &StepBulk{
		Write: true, WriteOff: writeOff, WritePerPE: per,
		Charges: []Charge{
			{host.LocalMod, p.numPEBytes(per)}, // receive-side transpose
			{host.HostMem, p.numPEBytes(per)},  // staging assembly
		},
		Modulate: func(c *Comm, _ []byte) []byte {
			out := c.bulkOut(len(p.rankOf) * per)
			grp := p.groups[0]
			for k, pe := range grp {
				dst := out[pe*per : (pe+1)*per]
				for sh := srcLo; sh < srcHi; sh++ {
					slab := st.xfer[sh][h]
					for j := 0; j < P; j++ {
						copy(dst[(sh-srcLo)*PS+j*s:(sh-srcLo)*PS+(j+1)*s], slab[(j*P+k)*s:(j*P+k+1)*s])
					}
				}
			}
			return out
		},
	})
}

// ---------------------------------------------------------------------
// ClusterPlan / ClusterFuture
// ---------------------------------------------------------------------

// ClusterPlan is one cluster collective compiled into one schedule-IR
// plan per host, ready for repeated Run/Submit while every shard of its
// session is open; equal descriptors share the session's cached plan.
type ClusterPlan struct {
	cl    *Cluster
	d     ClusterCollective
	st    *clusterState
	plans []*CompiledPlan
}

// HostPlan returns host h's compiled plan (schedule, cost, fusion
// report) — the per-host view of the cluster collective.
func (cp *ClusterPlan) HostPlan(h int) *CompiledPlan { return cp.plans[h] }

// Cost returns the plan's predicted per-run cluster charge: the
// per-category maximum across the hosts' precomputed costs.
func (cp *ClusterPlan) Cost() cost.Breakdown {
	var bd cost.Breakdown
	for _, hp := range cp.plans {
		bd = bd.Max(hp.Cost())
	}
	return bd
}

// FusionReports returns every host's fusion report. A hierarchical
// plan's legs always fuse across member boundaries (at minimum, the
// interior syncs between the local and network legs collapse).
func (cp *ClusterPlan) FusionReports() []FusionReport {
	out := make([]FusionReport, len(cp.plans))
	for h, hp := range cp.plans {
		out[h] = hp.FusionReport()
	}
	return out
}

// admitAll reserves quota on every shard up front, so a
// rejection can never strand part of the cluster at a rendezvous
// barrier. A mid-scan rejection refunds the hosts admitted before it:
// the call runs nothing, so it charges nothing.
func (cp *ClusterPlan) admitAll() error {
	for h, hp := range cp.plans {
		if err := hp.owner.admit(hp.tr.total.Total()); err != nil {
			for _, prev := range cp.plans[:h] {
				prev.owner.refund(prev.tr.total.Total())
			}
			return fmt.Errorf("cluster host %d: %w", h, err)
		}
	}
	return nil
}

// Run executes one replay on every host — concurrently on the
// functional backend (the hosts rendezvous inside the network legs),
// serially on the cost-only backend — and returns the per-category
// maximum of the hosts' charges: the cluster critical path of this
// call. Serial cluster runs are serialized with each other, with
// Submit and with a shard's Close.
func (cp *ClusterPlan) Run() (cost.Breakdown, error) {
	cp.cl.execMu.Lock()
	defer cp.cl.execMu.Unlock()
	if err := cp.admitAll(); err != nil {
		return cost.Breakdown{}, err
	}
	var wg sync.WaitGroup
	for _, hp := range cp.plans {
		if !cp.cl.functional {
			hp.run()
			continue
		}
		wg.Add(1)
		go func(hp *CompiledPlan) {
			defer wg.Done()
			hp.run()
		}(hp)
	}
	wg.Wait()
	// A run charges its plan's trace total on either backend.
	return cp.Cost(), nil
}

// Results returns a copy of the rooted result of the plan's most recent
// completed Run — the gathered global buffer (Gather) or the reduced
// buffer (Reduce) — in global-rank order. Nil on a cost-only cluster
// and for non-rooted primitives. Call only after Run returns or the
// submitted future completes.
func (cp *ClusterPlan) Results() []byte {
	if cp.st.global == nil || !shapes[cp.d.Prim].rooted() {
		return nil
	}
	return append([]byte(nil), cp.st.global...)
}

// Submit enqueues one asynchronous execution on every host and returns
// a ClusterFuture. Admission is all or nothing: every host's session is
// checked against its overload bound (a cluster submission sheds
// nothing) and its quota before any host enqueues, and a queued host plan
// is never shed by a later local submission. The multi-host enqueue is
// atomic (serialized against other cluster Submits and Runs), so every
// host's queue sees cluster plans in one global order.
func (cp *ClusterPlan) Submit() *ClusterFuture {
	cf := &ClusterFuture{cp: cp}
	cp.cl.execMu.Lock()
	defer cp.cl.execMu.Unlock()
	for h, hp := range cp.plans {
		hp.owner.c.asyncMu.Lock()
		err := hp.owner.overloadedLocked()
		hp.owner.c.asyncMu.Unlock()
		if err != nil {
			cf.err = fmt.Errorf("cluster host %d: %w", h, err)
			return cf
		}
	}
	if cf.err = cp.admitAll(); cf.err != nil {
		return cf
	}
	cf.fs = make([]*Future, len(cp.plans))
	for h, hp := range cp.plans {
		cf.fs[h] = hp.owner.c.submit(hp, true, SubmitOptions{})
	}
	return cf
}

// ClusterFuture is the handle of one submitted cluster execution: one
// Future per host, completing when all hosts have run.
type ClusterFuture struct {
	cp  *ClusterPlan
	fs  []*Future
	err error
}

// Done reports without blocking whether every host has completed.
func (cf *ClusterFuture) Done() bool {
	for _, f := range cf.fs {
		if !f.Done() {
			return false
		}
	}
	return true
}

// Wait blocks until every host completes and returns the per-category
// maximum of the hosts' charges and the first error (an admission
// rejection completes immediately with no host ever enqueued).
func (cf *ClusterFuture) Wait() (cost.Breakdown, error) {
	if cf.err != nil {
		return cost.Breakdown{}, cf.err
	}
	var bd cost.Breakdown
	var err error
	for _, f := range cf.fs {
		b, e := f.Wait()
		bd = bd.Max(b)
		if err == nil {
			err = e
		}
	}
	return bd, err
}

// Err blocks until every host completes and returns the first error.
func (cf *ClusterFuture) Err() error {
	_, err := cf.Wait()
	return err
}

// Results blocks until every host completes and returns the plan's
// rooted result (see ClusterPlan.Results).
func (cf *ClusterFuture) Results() []byte {
	if cf.err != nil {
		return nil
	}
	for _, f := range cf.fs {
		f.Wait()
	}
	return cf.cp.Results()
}
