package core

// This file implements the first-class cluster layer (§ IX-A, Figure
// 23(b)): H hosts, each driving its own PIM subsystem through a *Comm,
// cooperate over an MPI-like network. A hierarchical cluster collective
// lowers — per host — into ONE schedule-IR plan: the intra-host leg(s)
// (ordinary PID-Comm lowerings), the inter-host network leg (a
// StepNetTransfer priced by cost.NetParams and, on the functional
// backend, a rendezvous with the peer hosts' executors around the
// shared staging), and the redistribution leg. Because the whole
// hierarchy is one compiled sequence, it caches (repeat descriptors are
// plan-cache hits), fuses (the interior per-leg syncs collapse — a
// cross-leg rewrite on every hierarchical plan) and replays through the
// same engine as a single-host collective.
//
// Global shape: a cluster collective treats the H×P PEs (P per host) as
// one flat communicator. Global rank g = h*P + j, where j is the PE's
// rank within its host's group for the descriptor's Dims — which must
// select every dimension of the per-host hypercube, so each host is a
// single group. Functional results are byte-identical to running the
// same descriptor on one flat comm of H*P PEs (cluster_test.go pins
// this per primitive, including non-power-of-two H).
//
// Concurrency: the functional backend executes a cluster plan with one
// goroutine per host; the hosts meet at generation-counting barriers
// inside the network legs. Serial Runs are serialized on the cluster;
// Submit enqueues on every host atomically, so the per-host queues see
// cluster plans in one global order and the rendezvous always pair up.
// Cluster plans should be submitted from one goroutine at a time per
// tenant set; the cost-only backend has no barriers and no such
// constraint.

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cost"
)

// ClusterCollective describes one collective over every PE of a
// cluster. The embedded Collective is interpreted on the global
// communicator: Dims must select every dimension of the per-host
// hypercube, per-PE region sizes are the global call's (e.g. an
// AlltoAll buffer holds H*P blocks), and Hosts carries at most one
// global payload (Scatter/Broadcast). Root selects the root host of the
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

// keyString identifies the descriptor for the cluster's plan and state
// caches. Hosts buffers are identified by presence only — plans that
// capture caller payloads are not cached (mirroring the single-host
// host-input rule).
func (d ClusterCollective) keyString() string {
	return fmt.Sprintf("%v|%s|src=%+v|dst=%+v|%v|%v|%v|algo=%v|root=%d|flat=%v|hosts=%t",
		d.Prim, d.Dims, d.Src, d.Dst, d.Elem, d.Op, d.Level, d.Algorithm, d.Root, d.Flat, d.Hosts != nil)
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

// clusterState is the per-descriptor shared staging of one cluster
// plan: what the network legs move between the hosts. It is allocated
// once per descriptor and bound into the per-host schedules at compile
// time, so cached replays reuse it; the trailing fence barrier of every
// plan keeps run N+1 from overwriting it while run N still streams.
// Buffers and barrier exist only on the functional backend — cost-only
// sweeps to thousands of hosts allocate no O(data) staging.
type clusterState struct {
	id int
	// parts[h] is host h's published rooted-leg result for this run.
	parts [][]byte
	// global is the assembled / merged cluster-wide buffer the
	// redistribution legs read (and rooted Results return).
	global []byte
	// gbufs aliases global as the one-group Hosts slice the broadcast
	// and scatter legs bind ([][]byte{global}).
	gbufs [][]byte
	// xfer[src][dst] is the AlltoAll exchange slab: P*P blocks of s
	// bytes, block (j,k) at (j*P+k)*s — source rank j to dest rank k.
	xfer [][][]byte
	bar  *barrier
}

// Cluster is a set of H identically-shaped hosts executing hierarchical
// collectives. Build one with NewCluster over comms that share geometry,
// hypercube shape and backend; the pidcomm package wraps it in the
// user-facing session API.
type Cluster struct {
	comms      []*Comm
	p          int // PEs per host
	functional bool

	// mu guards the plan/state caches and the id counter; execMu
	// serializes serial cluster runs and makes Submit's multi-host
	// enqueue atomic (a single global order of cluster plans).
	mu     sync.Mutex
	states map[string]*clusterState
	plans  map[string]*ClusterPlan
	nextID int
	execMu sync.Mutex
}

// NewCluster builds a cluster over the given per-host comms. The hosts
// must be distinct, non-empty, and homogeneous: same PE count, same
// hypercube shape, same backend kind. (Use pidcomm.NewCluster to
// provision hosts and cluster in one call.)
func NewCluster(comms []*Comm) (*Cluster, error) {
	if len(comms) == 0 {
		return nil, fmt.Errorf("core: cluster needs at least one host")
	}
	p := comms[0].hc.sys.Geometry().NumPEs()
	shape := comms[0].hc.Shape()
	functional := comms[0].backend.Functional()
	for h, c := range comms {
		for h2 := 0; h2 < h; h2++ {
			if comms[h2] == c {
				return nil, fmt.Errorf("core: host %d and %d are the same comm", h2, h)
			}
		}
		if got := c.hc.sys.Geometry().NumPEs(); got != p {
			return nil, fmt.Errorf("core: host %d has %d PEs, host 0 has %d (cluster hosts must be homogeneous)", h, got, p)
		}
		if gs := c.hc.Shape(); len(gs) != len(shape) {
			return nil, fmt.Errorf("core: host %d hypercube rank %d != host 0 rank %d", h, len(gs), len(shape))
		} else {
			for i := range gs {
				if gs[i] != shape[i] {
					return nil, fmt.Errorf("core: host %d hypercube shape %v != host 0 shape %v", h, gs, shape)
				}
			}
		}
		if c.backend.Functional() != functional {
			return nil, fmt.Errorf("core: host %d backend %q differs from host 0 (mixed functional/cost clusters are not supported)", h, c.backend.Name())
		}
	}
	return &Cluster{
		comms:      comms,
		p:          p,
		functional: functional,
		states:     make(map[string]*clusterState),
		plans:      make(map[string]*ClusterPlan),
	}, nil
}

// NumHosts returns the number of hosts.
func (cl *Cluster) NumHosts() int { return len(cl.comms) }

// PEsPerHost returns the PE count of each host.
func (cl *Cluster) PEsPerHost() int { return cl.p }

// NumPEs returns the cluster-wide PE count (hosts × PEs/host).
func (cl *Cluster) NumPEs() int { return len(cl.comms) * cl.p }

// Host returns host h's communication context.
func (cl *Cluster) Host(h int) *Comm { return cl.comms[h] }

// Functional reports whether the cluster moves real bytes.
func (cl *Cluster) Functional() bool { return cl.functional }

// Breakdown returns the cluster's cumulative cost snapshot: the
// per-category maximum across the host meters (hosts run concurrently;
// each host's meter includes its own network-leg time).
func (cl *Cluster) Breakdown() cost.Breakdown {
	var bd cost.Breakdown
	for _, c := range cl.comms {
		bd = bd.Max(c.Meter().Snapshot())
	}
	return bd
}

// Elapsed returns the cluster's overlap-aware simulated makespan: the
// slowest host's elapsed-time timeline.
func (cl *Cluster) Elapsed() cost.Seconds {
	var e cost.Seconds
	for _, c := range cl.comms {
		if he := c.Elapsed(); he > e {
			e = he
		}
	}
	return e
}

// Flush blocks until every submitted cluster plan has completed on
// every host.
func (cl *Cluster) Flush() {
	for _, c := range cl.comms {
		c.Flush()
	}
}

// Compile lowers d into one compiled plan per host (see ClusterPlan)
// and caches the result: recompiling an equal descriptor is a per-host
// plan-cache hit. Plans that capture a caller payload (functional
// Broadcast/Scatter) recompile fresh, like their single-host
// counterparts.
func (cl *Cluster) Compile(d ClusterCollective) (*ClusterPlan, error) {
	return cl.compile(nil, d)
}

// CompileOn is Compile resolved against one tenant per host: regions
// are arena-relative, runs are admitted against every host's tenant
// quota up front, and charges are attributed per host tenant. The
// pidcomm layer uses it to shard a serving tenant across a cluster.
func (cl *Cluster) CompileOn(owners []*Tenant, d ClusterCollective) (*ClusterPlan, error) {
	if len(owners) != len(cl.comms) {
		return nil, fmt.Errorf("core: %d tenants for %d hosts", len(owners), len(cl.comms))
	}
	for h, t := range owners {
		if t == nil || t.c != cl.comms[h] {
			return nil, fmt.Errorf("core: tenant %d does not belong to host %d's comm", h, h)
		}
	}
	return cl.compile(owners, d)
}

// Run compiles (or fetches the cached plan for) d and executes it once
// on every host, returning the per-category maximum of the hosts' cost
// breakdowns — the cluster-critical-path charge of this call.
func (cl *Cluster) Run(d ClusterCollective) (cost.Breakdown, error) {
	cp, err := cl.Compile(d)
	if err != nil {
		return cost.Breakdown{}, err
	}
	return cp.Run()
}

// Submit compiles d and enqueues one asynchronous execution on every
// host, returning a ClusterFuture.
func (cl *Cluster) Submit(d ClusterCollective) (*ClusterFuture, error) {
	cp, err := cl.Compile(d)
	if err != nil {
		return nil, err
	}
	return cp.Submit(), nil
}

func (cl *Cluster) compile(owners []*Tenant, d ClusterCollective) (*ClusterPlan, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	key := d.keyString()
	for _, t := range owners {
		key += "|tenant=" + t.name
	}
	cacheable := !(cl.functional && d.Hosts != nil)
	if cp, ok := cl.plans[key]; ok && cacheable {
		return cp, nil
	}
	st, ok := cl.states[key]
	if !ok {
		st = &clusterState{id: cl.nextID}
		cl.nextID++
		if cl.functional {
			st.bar = newBarrier(len(cl.comms))
		}
		cl.states[key] = st
	}
	cp := &ClusterPlan{cl: cl, d: d, st: st, plans: make([]*CompiledPlan, len(cl.comms))}
	for h := range cl.comms {
		ar := cl.comms[h].fullArena()
		var owner *Tenant
		if owners != nil {
			owner = owners[h]
			ar = owner.ar
		}
		specs, err := cl.hostSpecs(h, ar, st, d)
		if err != nil {
			return nil, fmt.Errorf("cluster host %d: %w", h, err)
		}
		hp := cl.comms[h].compiledSequence(specs)
		if err := hp.adopt(owner); err != nil {
			return nil, fmt.Errorf("cluster host %d: %w", h, err)
		}
		cp.plans[h] = hp
	}
	if cacheable {
		cl.plans[key] = cp
	}
	return cp, nil
}

// ---------------------------------------------------------------------
// Per-host lowering: one []planSpec per host, fed to compiledSequence.
// ---------------------------------------------------------------------

// ceilLog2 returns ceil(log2(h)) — the rounds of a binomial fan-out.
func ceilLog2(h int) int {
	if h <= 1 {
		return 0
	}
	return bits.Len(uint(h - 1))
}

// clusterBuild accumulates one host's member specs.
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
	m, s  int
	specs []planSpec
}

func (cl *Cluster) hostSpecs(h int, ar arena, st *clusterState, d ClusterCollective) (specs []planSpec, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s: %w", d.Prim.LongName(), err)
		}
	}()
	sh, err := shapeOf(d.Prim)
	if err != nil {
		return nil, err
	}
	c := cl.comms[h]
	p, err := c.plan(d.Dims)
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
	if d.Algorithm != AlgoAuto && !(d.Prim == AllReduce && !d.Flat) {
		// The algorithm axis at cluster level selects the host-level wire
		// algorithm, which only the hierarchical AllReduce diversifies so
		// far. Local legs always resolve their own machine-level
		// algorithm; an explicit constraint elsewhere would be silently
		// dropped, so reject it instead.
		return nil, fmt.Errorf("cluster algorithm %v not supported (only hierarchical AllReduce selects a host algorithm)", d.Algorithm)
	}
	// The global descriptor is one row of the shape table on a single
	// group of H×P ranks: block g of a ReduceScatter, AlltoAll or Scatter
	// belongs to global rank g. AllReduce and Reduce index no rank with
	// their result, so only their local leg — P ranks — is blocked.
	n := cl.NumPEs()
	if d.Prim == AllReduce || d.Prim == Reduce {
		n = cl.p
	}
	b := &clusterBuild{cl: cl, c: c, h: h, p: p, ar: ar, st: st, d: d}
	if b.m, b.s, err = sh.check(ar, d.Collective, n, 1, !cl.functional); err != nil {
		return nil, err
	}
	switch {
	case d.Flat:
		err = b.flatAllReduce()
	case d.Prim == AllReduce:
		err = b.allReduce()
	case d.Prim == ReduceScatter:
		err = b.reduceScatter()
	case d.Prim == AllGather:
		err = b.allGather()
	case d.Prim == AlltoAll:
		err = b.alltoAll()
	case d.Prim == Broadcast:
		err = b.broadcast()
	case d.Prim == Scatter:
		err = b.scatter()
	case d.Prim == Gather:
		err = b.gather()
	case d.Prim == Reduce:
		err = b.reduce()
	}
	if err != nil {
		return nil, err
	}
	b.fence()
	return b.specs, nil
}

// local appends an ordinary single-host collective as a member.
func (b *clusterBuild) local(d Collective) error {
	sp, err := b.c.specIn(b.ar, d)
	if err != nil {
		return err
	}
	b.specs = append(b.specs, sp)
	return nil
}

// tag returns a member cache tag unique to this cluster state and host.
func (b *clusterBuild) tag(name string) string {
	return fmt.Sprintf("clu%d:h%d:%s", b.st.id, b.h, name)
}

// net appends the inter-host network leg: rounds exchange rounds of
// bytesPerRound each, charged through cost.NetParams onto the host's
// network lane, plus (functional) the rendezvous closure run. hostBufs
// marks a run closure that captures a caller payload.
func (b *clusterBuild) net(name string, rounds int, bytesPerRound int64, run func(cp *CompiledPlan) func(), hostBufs bool) {
	key := planKey{prim: b.d.Prim, dims: b.d.Dims, bytes: int(bytesPerRound),
		tag: b.tag(fmt.Sprintf("%s:r%d", name, rounds))}
	b.specs = append(b.specs, planSpec{key: key, hostBufs: hostBufs,
		lower: func(cp *CompiledPlan) *Schedule {
			st := &StepNetTransfer{Rounds: rounds, Bytes: bytesPerRound}
			// The cost-only twin gets an empty closure where the
			// functional cluster has a rendezvous: the step must survive
			// (or be elided by) fusion identically on both backends, or
			// epoch coalescing around a dropped step would regroup the
			// bus-time float additions and break the bit-exact
			// functional/cost breakdown equality.
			if run != nil {
				if b.cl.functional {
					st.Run = run(cp)
				} else {
					st.Run = func() {}
				}
			}
			sched := &Schedule{Name: "NetTransfer/" + name}
			sched.add(st)
			sched.add(&StepSync{})
			return sched
		}})
}

// fence appends the trailing rendezvous member: a zero-round network
// step whose only job (functional) is to keep any host from starting
// the plan's next run — overwriting the shared staging — while another
// host still streams this run's data. It charges nothing on either
// backend.
func (b *clusterBuild) fence() {
	bar := b.st.bar
	key := planKey{prim: b.d.Prim, dims: b.d.Dims, tag: b.tag("fence")}
	b.specs = append(b.specs, planSpec{key: key,
		lower: func(*CompiledPlan) *Schedule {
			st := &StepNetTransfer{}
			if b.cl.functional {
				st.Run = func() { bar.await(nil) }
			} else {
				st.Run = func() {} // keep fusion symmetric with functional
			}
			sched := &Schedule{Name: "NetTransfer/fence"}
			sched.add(st)
			sched.add(&StepSync{})
			return sched
		}})
}

// member appends a hand-built redistribution member.
func (b *clusterBuild) member(name string, regs planRegions, hostBufs bool, lower func(cp *CompiledPlan) *Schedule) {
	key := planKey{prim: b.d.Prim, dims: b.d.Dims, tag: b.tag(name)}
	b.specs = append(b.specs, planSpec{key: key, regs: regs, hostBufs: hostBufs, lower: lower})
}

// ensure sizes the shared staging (functional only; cost-only clusters
// keep everything nil so sweeps allocate no O(data) state).
func (st *clusterState) ensure(functional bool, globalBytes int, parts bool, hosts int) {
	if !functional {
		return
	}
	if globalBytes > 0 && len(st.global) != globalBytes {
		st.global = make([]byte, globalBytes)
		st.gbufs = [][]byte{st.global}
	}
	if parts && len(st.parts) != hosts {
		st.parts = make([][]byte, hosts)
	}
}

// publishMerge returns a net-leg run closure: publish this host's
// rooted-leg result, rendezvous, and have the last arriver merge every
// host's part into st.global.
func (b *clusterBuild) publishMerge(merge func()) func(cp *CompiledPlan) func() {
	st, h := b.st, b.h
	return func(cp *CompiledPlan) func() {
		return func() {
			st.parts[h] = cp.rooted[0]
			st.bar.await(merge)
		}
	}
}

// --- AllReduce: Reduce → ring AllReduce on the wire → Broadcast -------

func (b *clusterBuild) allReduce() error {
	d, H, m := b.d, len(b.cl.comms), b.m
	if err := b.local(Collective{Prim: Reduce, Dims: d.Dims,
		Src: Span(d.Src.Off, m), Elem: d.Elem, Op: d.Op, Level: d.Level}); err != nil {
		return err
	}
	st := b.st
	st.ensure(b.cl.functional, m, true, H)
	merge := func() { copy(st.global, RefReduce(d.Elem, d.Op, st.parts)) }
	// Host-level wire algorithm. Ring: 2(H-1) overlapped rounds of one
	// reduced 1/H portion each (§ IX-A: data are sent after reduction).
	// Tree: the reduced payload climbs and re-descends a binary host tree
	// in 2*ceil(log2 H) rounds of the full m bytes — fewer, fatter rounds,
	// so it wins when the per-round latency dominates (small payloads,
	// many hosts). AlgoAuto prices both legs on the wire model and keeps
	// the cheaper; an explicit choice pins the leg.
	alg := d.Algorithm
	if alg == AlgoAuto {
		net := b.c.h.Params().Net
		ringT := cost.Seconds(2*(H-1)) * net.RoundTime(int64(m/H))
		treeT := cost.Seconds(2*ceilLog2(H)) * net.RoundTime(int64(m))
		if treeT < ringT {
			alg = AlgoTree
		} else {
			alg = AlgoRing
		}
	}
	switch alg {
	case AlgoReference, AlgoRing:
		b.net("ring", 2*(H-1), int64(m/H), b.publishMerge(merge), false)
	case AlgoTree:
		b.net("tree", 2*ceilLog2(H), int64(m), b.publishMerge(merge), false)
	default:
		return fmt.Errorf("core: cluster AllReduce: unsupported host algorithm %v (want Auto, ref, ring, or tree)", alg)
	}
	b.bcastGlobal(d.Dst.Off, m)
	return nil
}

// bcastGlobal appends the local redistribution leg that broadcasts
// st.global to every PE at dstOff.
func (b *clusterBuild) bcastGlobal(dstOff, n int) {
	absDst := b.ar.base + dstOff
	var regs planRegions
	regs.write(absDst, n)
	c, p, st := b.c, b.p, b.st
	b.member("bcast", regs, false, func(*CompiledPlan) *Schedule {
		bufs := st.gbufs
		if bufs == nil {
			bufs = [][]byte{nil} // cost-only: never dereferenced
		}
		return lowerBroadcast(&AlgoEnv{c: c, p: p, prim: Broadcast, eff: Baseline, dstOff: absDst, m: n, s: n, hosts: bufs}, nil)
	})
}

// --- ReduceScatter: Reduce → ring on the wire → Scatter ---------------

func (b *clusterBuild) reduceScatter() error {
	d, H, P, m, s := b.d, len(b.cl.comms), b.cl.p, b.m, b.s
	if err := b.local(Collective{Prim: Reduce, Dims: d.Dims,
		Src: Span(d.Src.Off, m), Elem: d.Elem, Op: d.Op, Level: d.Level}); err != nil {
		return err
	}
	st := b.st
	st.ensure(b.cl.functional, m, true, H)
	merge := func() { copy(st.global, RefReduce(d.Elem, d.Op, st.parts)) }
	b.net("ring", H-1, int64(P*s), b.publishMerge(merge), false)
	return b.scatterGlobal(d.Dst.Off, s, b.h*P*s)
}

// scatterGlobal appends the local leg that scatters this host's portion
// of st.global (P blocks of s starting at part) to its PEs.
func (b *clusterBuild) scatterGlobal(dstOff, s, part int) error {
	_, eff, err := b.c.Resolve(Collective{Prim: Scatter, Dims: b.d.Dims, Dst: Span(dstOff, s), Level: b.d.Level})
	if err != nil {
		return err
	}
	absDst := b.ar.base + dstOff
	var regs planRegions
	regs.write(absDst, s)
	c, p, st := b.c, b.p, b.st
	P := b.cl.p
	b.member("scatter", regs, false, func(*CompiledPlan) *Schedule {
		bufs := [][]byte{nil} // cost-only: never dereferenced
		if st.global != nil {
			bufs = [][]byte{st.global[part : part+P*s]}
		}
		return lowerScatter(&AlgoEnv{c: c, p: p, prim: Scatter, eff: eff, dstOff: absDst, m: s, s: s, hosts: bufs}, nil)
	})
	return nil
}

// --- AllGather: Gather → all-gather on the wire → Broadcast -----------

func (b *clusterBuild) allGather() error {
	d, H, P, s := b.d, len(b.cl.comms), b.cl.p, b.s
	if err := b.local(Collective{Prim: Gather, Dims: d.Dims,
		Src: Span(d.Src.Off, s), Level: d.Level}); err != nil {
		return err
	}
	st := b.st
	st.ensure(b.cl.functional, H*P*s, true, H)
	merge := func() {
		for hh, part := range st.parts {
			copy(st.global[hh*P*s:(hh+1)*P*s], part)
		}
	}
	// § IX-A: data are sent before duplication — one P*s portion per
	// host per round crosses the wire; the H-fold fan-out to the PEs
	// happens after it.
	b.net("allgather", H-1, int64(P*s), b.publishMerge(merge), false)
	b.bcastGlobal(d.Dst.Off, H*P*s)
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
	absSrc, absDst := b.ar.base+d.Src.Off, b.ar.base+d.Dst.Off
	// Pack the remote portions (a prefix of hosts below h and a suffix
	// above) into the per-pair exchange slabs, then rendezvous — the
	// (H-1)/H traffic of § IX-A, one P*PS portion per host per round —
	// and unpack the incoming slabs transposed into destination order.
	b.pack("pack:lo", absSrc, 0, h, PS, s)
	b.pack("pack:hi", absSrc+(h+1)*PS, h+1, H, PS, s)
	b.net("exchange", H-1, int64(P*PS), func(*CompiledPlan) func() {
		return func() { st.bar.await(nil) }
	}, false)
	b.unpack("unpack:lo", absDst, 0, h, PS, s)
	b.unpack("unpack:hi", absDst+(h+1)*PS, h+1, H, PS, s)
	return nil
}

// pack reads the per-PE region [readOff, readOff+(dstHi-dstLo)*PS) —
// the blocks destined to hosts [dstLo, dstHi) — and stores them into
// this host's outgoing exchange slabs in (source rank, dest rank) order.
func (b *clusterBuild) pack(name string, readOff, dstLo, dstHi, PS, s int) {
	if dstHi <= dstLo {
		return
	}
	per := (dstHi - dstLo) * PS
	var regs planRegions
	regs.read(readOff, per)
	c, p, st, h, P := b.c, b.p, b.st, b.h, b.cl.p
	b.member(name, regs, false, func(*CompiledPlan) *Schedule {
		sched := &Schedule{Name: "ClusterPack"}
		sched.add(&StepBulk{
			Read: true, ReadOff: readOff, ReadPerPE: per,
			Charges: []Charge{{ChargeHostMem, c.numPEBytes(per)}}, // slab store
			Modulate: func(stag []byte) []byte {
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
		sched.add(&StepSync{})
		return sched
	})
}

// unpack assembles the incoming slabs of hosts [srcLo, srcHi) —
// transposing (source rank, dest rank) into destination block order —
// and bulk-writes them to the per-PE region at writeOff.
func (b *clusterBuild) unpack(name string, writeOff, srcLo, srcHi, PS, s int) {
	if srcHi <= srcLo {
		return
	}
	per := (srcHi - srcLo) * PS
	var regs planRegions
	regs.write(writeOff, per)
	c, p, st, h, P := b.c, b.p, b.st, b.h, b.cl.p
	b.member(name, regs, false, func(*CompiledPlan) *Schedule {
		sched := &Schedule{Name: "ClusterUnpack"}
		sched.add(&StepBulk{
			Write: true, WriteOff: writeOff, WritePerPE: per,
			Charges: []Charge{
				{ChargeLocalMod, c.numPEBytes(per)}, // receive-side transpose
				{ChargeHostMem, c.numPEBytes(per)},  // staging assembly
			},
			Modulate: func([]byte) []byte {
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
		sched.add(&StepSync{})
		return sched
	})
}

// --- Rooted primitives ------------------------------------------------

func (b *clusterBuild) broadcast() error {
	d, H, n := b.d, len(b.cl.comms), b.m
	if n <= 0 {
		return fmt.Errorf("core: cluster Broadcast needs a non-empty payload (cost-only without Hosts: its size in Dst.Bytes)")
	}
	var payload []byte
	if d.Hosts != nil {
		payload = d.Hosts[0]
	}
	st, root := b.st, b.h == d.Root
	st.ensure(b.cl.functional, n, false, H)
	run := func(*CompiledPlan) func() {
		if root {
			return func() {
				copy(st.global, payload)
				st.bar.await(nil)
			}
		}
		return func() { st.bar.await(nil) }
	}
	// Binomial fan-out from the root: ceil(log2 H) overlapped rounds of
	// the full payload.
	b.net("fanout", ceilLog2(H), int64(n), run, root && payload != nil)
	b.bcastGlobal(d.Dst.Off, n)
	return nil
}

func (b *clusterBuild) scatter() error {
	d, H, P, s := b.d, len(b.cl.comms), b.cl.p, b.s
	if s <= 0 {
		return fmt.Errorf("core: cluster Scatter needs Dst.Bytes (the per-PE block size)")
	}
	var payload []byte
	if d.Hosts != nil {
		payload = d.Hosts[0]
	}
	st, root := b.st, b.h == d.Root
	st.ensure(b.cl.functional, H*P*s, false, H)
	rounds := 1 // non-root hosts receive their one portion
	if root {
		rounds = H - 1 // the root ships every other host its portion
	}
	run := func(*CompiledPlan) func() {
		if root {
			return func() {
				copy(st.global, payload)
				st.bar.await(nil)
			}
		}
		return func() { st.bar.await(nil) }
	}
	b.net("scatter", rounds, int64(P*s), run, root && payload != nil)
	return b.scatterGlobal(d.Dst.Off, s, b.h*P*s)
}

func (b *clusterBuild) gather() error {
	d, H, P, s := b.d, len(b.cl.comms), b.cl.p, b.s
	if err := b.local(Collective{Prim: Gather, Dims: d.Dims,
		Src: Span(d.Src.Off, s), Level: d.Level}); err != nil {
		return err
	}
	st, root := b.st, b.h == d.Root
	st.ensure(b.cl.functional, H*P*s, true, H)
	merge := func() {
		for hh, part := range st.parts {
			copy(st.global[hh*P*s:(hh+1)*P*s], part)
		}
	}
	rounds := 1 // non-root hosts send their one portion
	if root {
		rounds = H - 1 // the root receives every other host's portion
	}
	b.net("gather", rounds, int64(P*s), b.publishMerge(merge), false)
	return nil
}

func (b *clusterBuild) reduce() error {
	d, H, m := b.d, len(b.cl.comms), b.m
	if err := b.local(Collective{Prim: Reduce, Dims: d.Dims,
		Src: Span(d.Src.Off, m), Elem: d.Elem, Op: d.Op, Level: d.Level}); err != nil {
		return err
	}
	st, root := b.st, b.h == d.Root
	st.ensure(b.cl.functional, m, true, H)
	merge := func() { copy(st.global, RefReduce(d.Elem, d.Op, st.parts)) }
	rounds := 1
	if root {
		rounds = H - 1
	}
	// § IX-A: data are sent after being reduced — one reduced m-byte
	// copy per non-root host crosses the wire.
	b.net("reduce", rounds, int64(m), b.publishMerge(merge), false)
	return nil
}

// --- Flat AllReduce: the naive non-hierarchical baseline --------------

// flatAllReduce emulates a cluster that does NOT reduce locally before
// the wire: every PE's raw buffer is gathered to the root host (P×m per
// host crosses the network instead of m/H), the root CPU reduces all
// H*P buffers, and the result fans back out. It exists as the
// benchmark baseline the hierarchical lowering is gated against
// (pidbench -exp cluster).
func (b *clusterBuild) flatAllReduce() error {
	d, H, P, m := b.d, len(b.cl.comms), b.cl.p, b.m
	if err := b.local(Collective{Prim: Gather, Dims: d.Dims,
		Src: Span(d.Src.Off, m), Level: d.Level}); err != nil {
		return err
	}
	st, root := b.st, b.h == d.Root
	st.ensure(b.cl.functional, m, true, H)
	merge := func() {
		bufs := make([][]byte, 0, H*P)
		for _, part := range st.parts {
			for j := 0; j < P; j++ {
				bufs = append(bufs, part[j*m:(j+1)*m])
			}
		}
		copy(st.global, RefReduce(d.Elem, d.Op, bufs))
	}
	rounds := 1
	if root {
		rounds = H - 1
	}
	b.net("flat:gather", rounds, int64(P*m), b.publishMerge(merge), false)
	if root {
		// The root CPU reduces H*P raw buffers serially.
		b.member("flat:reduce", planRegions{}, false, func(*CompiledPlan) *Schedule {
			sched := &Schedule{Name: "FlatReduce"}
			sched.add(&StepHostCompute{Charges: []Charge{
				{ChargeScalarReduce, int64(H) * int64(P) * int64(m)},
			}})
			sched.add(&StepSync{})
			return sched
		})
	}
	b.net("flat:bcast", ceilLog2(H), int64(m), nil, false)
	b.bcastGlobal(d.Dst.Off, m)
	return nil
}

// ---------------------------------------------------------------------
// ClusterPlan / ClusterFuture
// ---------------------------------------------------------------------

// ClusterPlan is one cluster collective compiled into one schedule-IR
// plan per host, ready for repeated Run/Submit. Like a CompiledPlan it
// stays valid for the cluster's lifetime; equal descriptors share the
// cached plan (per-host plan-cache hits).
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

// admitAll reserves quota on every owning tenant up front, so a
// rejection can never strand part of the cluster at a rendezvous
// barrier. Hosts admitted before a mid-scan rejection keep their
// reservation (the simulator does not refund); the call itself runs
// nothing.
func (cp *ClusterPlan) admitAll() error {
	for h, hp := range cp.plans {
		if err := hp.owner.admit(hp.tr.total.Total()); err != nil {
			return fmt.Errorf("cluster host %d: %w", h, err)
		}
	}
	return nil
}

// Run executes one replay on every host — concurrently on the
// functional backend (the hosts rendezvous inside the network legs),
// serially on the cost-only backend — and returns the per-category
// maximum of the hosts' charges: the cluster critical path of this
// call. Serial cluster runs are serialized with each other and with
// Submit.
func (cp *ClusterPlan) Run() (cost.Breakdown, error) {
	if err := cp.admitAll(); err != nil {
		return cost.Breakdown{}, err
	}
	cp.cl.execMu.Lock()
	defer cp.cl.execMu.Unlock()
	var bd cost.Breakdown
	if !cp.cl.functional {
		for _, hp := range cp.plans {
			_, b := hp.run()
			bd = bd.Max(b)
		}
		return bd, nil
	}
	bds := make([]cost.Breakdown, len(cp.plans))
	var wg sync.WaitGroup
	for h, hp := range cp.plans {
		wg.Add(1)
		go func(h int, hp *CompiledPlan) {
			defer wg.Done()
			_, bds[h] = hp.run()
		}(h, hp)
	}
	wg.Wait()
	for _, b := range bds {
		bd = bd.Max(b)
	}
	return bd, nil
}

// Results returns a copy of the rooted result of the plan's most recent
// completed Run — the gathered global buffer (Gather) or the reduced
// buffer (Reduce) — in global-rank order. Nil on a cost-only cluster
// and for non-rooted primitives. Call only after Run returns or the
// submitted future completes.
func (cp *ClusterPlan) Results() []byte {
	if cp.st.global == nil {
		return nil
	}
	if cp.d.Prim != Gather && cp.d.Prim != Reduce {
		return nil
	}
	return append([]byte(nil), cp.st.global...)
}

// Submit enqueues one asynchronous execution on every host and returns
// a ClusterFuture. The multi-host enqueue is atomic (serialized against
// other cluster Submits and Runs), so every host's queue sees cluster
// plans in the same global order and the rendezvous barriers pair up.
func (cp *ClusterPlan) Submit() *ClusterFuture {
	cf := &ClusterFuture{cp: cp}
	if err := cp.admitAll(); err != nil {
		cf.err = err
		return cf
	}
	cp.cl.execMu.Lock()
	defer cp.cl.execMu.Unlock()
	cf.fs = make([]*Future, len(cp.plans))
	for h, hp := range cp.plans {
		cf.fs[h] = hp.c.submit(hp, false, SubmitOptions{})
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
