package core

// This file implements the first-class cluster layer (§ IX-A, Figure
// 23(b)): H hosts, each driving its own PIM subsystem through a *Comm,
// cooperate over an MPI-like network. A hierarchical cluster collective
// lowers — per host — into ONE schedule-IR plan: the intra-host leg(s)
// (ordinary PID-Comm lowerings), the inter-host network leg (a
// StepNetTransfer priced by cost.NetParams, the plan's one phase
// boundary), and the redistribution leg. Because the whole
// hierarchy is one sequence through the plan builder (plan.go), it fuses
// (the interior per-leg syncs collapse — a cross-leg rewrite on every
// hierarchical plan) and replays through the same engine as a
// single-host collective.
//
// One configuration, one shape table, one row per role: NewCluster builds
// every host from one Config on one shape table (comm.go). A lowered
// schedule holds no comm and no staging — its steps run on the comm that
// executes them and read the running plan's staging (Comm.cur) — so a role
// row is a row of that table, keyed by the arena-relative descriptor and
// the role (roleKey): the hosts the lowering does not single out, or the
// host it does — the root where a rooted wire or Flat reads it, each host
// of an AlltoAll, whose pack/unpack volumes follow h. Compile validates
// once and binds every host to its role's row, its own shard and its
// windows of a staging made for the plan, so the H hosts of a functional
// cluster run one schedule at once and a second session, root or payload
// traces nothing.
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
// regions are relative to it and whose runs are admitted against every
// shard and metered on each. It keeps no plans: a run (Run, or Submit,
// which is Run) admits on every shard first, which a closed shard refuses,
// so a plan outliving a shard never runs.
//
// Concurrency: Compile holds the hosts' one compMu from entry to return.
// Runs hold the cluster's execMu, and so does a shard's Close, so no shard
// closes between a run's admission and its last host. The functional
// backend runs a plan as one driver loop over its two phases, split at the
// wire: every host (through the par pool) up to and through its wire step,
// the wire's merge once, every host's rest; the cost-only one replays each
// host's trace in turn. Submit is Run with a completed future, on either
// backend: no host queue ever holds a cluster plan.

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/internal/host"
	"repro/internal/par"
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

// roleKey, small since every row's key holds one, completes a cluster
// role row's key: host is 1 + the host index the lowering reads (the root,
// each AlltoAll host) or -1 for the others — never a session row's 0 — and
// obj the AutoObjective an Auto level's legs resolve under.
type roleKey struct {
	host int32
	flat bool
	obj  uint8
}

// clusterState is a functional cluster plan's staging — what the wire
// moves between its hosts, whose steps read it as the running plan's
// (CompiledPlan.st). Cost-only clusters have none.
type clusterState struct {
	// global is the cluster-wide buffer the redistribution legs read (and
	// rooted Results return): the caller's payload where there is no local
	// leg, else what the wire assembles or merges.
	global []byte
	// parts is what the local legs write, host h the h-th of H windows:
	// global itself, or a buffer of its own where the wire reduces them.
	parts []byte
	// xfer is the AlltoAll exchange, a slab per ordered pair of hosts:
	// block (j,k) at (j*P+k)*s, source rank j to dest rank k.
	xfer []byte
	// merge is the reducing wire's exchange, which the driver runs once
	// between the phases: every part reduced into global. Nil elsewhere:
	// the wire only moves bytes.
	merge func()
}

// slab returns the exchange slab host src fills for host dst (src !=
// dst): the H·(H-1) ordered pairs lie back to back, n bytes each.
func (st *clusterState) slab(src, dst, H, n int) []byte {
	i := src*(H-1) + dst
	if dst > src {
		i--
	}
	return st.xfer[i*n:][:n]
}

// payloads returns the two host buffers host h's plan binds: its part,
// which a local leg writes, and the window of the global buffer its
// redistribution leg reads — all of it (Broadcast), its 1/H portion
// (Scatter) or none. Nil without a global buffer (AlltoAll, cost-only).
func (st *clusterState) payloads(v *clusterBuild, h, H int) [][]byte {
	if st == nil || st.global == nil {
		return nil
	}
	n, win := len(st.parts)/H, st.global[:0]
	switch v.row.redist {
	case Broadcast:
		win = st.global
	case Scatter:
		win = st.global[h*len(st.global)/H:][:len(st.global)/H]
	}
	return [][]byte{st.parts[h*n:][:n], win}
}

// Cluster is a set of H identically configured hosts executing
// hierarchical collectives, built by NewCluster; the pidcomm package wraps
// it in the user-facing session API.
type Cluster struct {
	comms      []*Comm
	p          int // PEs per host
	functional bool

	// execMu serializes cluster runs (a single global order of cluster
	// plans); a cluster session's shard closes under it.
	execMu sync.Mutex
}

// NewCluster builds hosts machines, each New(geo, shape, cfg), on one
// shape table, and joins them into a cluster.
func NewCluster(hosts int, geo dram.Geometry, shape []int, cfg Config) (*Cluster, error) {
	if hosts <= 0 {
		return nil, fmt.Errorf("core: cluster needs at least one host, got %d", hosts)
	}
	cl := &Cluster{comms: make([]*Comm, hosts), p: geo.NumPEs(), functional: cfg.Backend == nil || cfg.Backend.Functional()}
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

// Flush blocks until every plan submitted on any host has completed. A
// cluster plan's Submit completes at submission, so Flush drains local
// plans only.
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
	return &ClusterTenant{cl: cl, shards: shards}, nil
}

// ClusterTenant is one sharded session on a Cluster: the same arena on
// every host. Cluster collectives go through Compile/Run/Submit with
// arena-relative regions; per-host data placement and local collectives
// go through the shards (Host), which are full single-machine sessions.
type ClusterTenant struct {
	cl     *Cluster
	shards []*Tenant
}

// Host returns the session's shard on host h.
func (s *ClusterTenant) Host(h int) *Tenant { return s.shards[h] }

// Name returns the session's name, shared by every shard.
func (s *ClusterTenant) Name() string { return s.shards[0].name }

// Arena returns the session's per-PE MRAM window, identical on every
// host, as (base, bytes).
func (s *ClusterTenant) Arena() (base, bytes int) { return s.shards[0].Arena() }

// Compile validates d against the session's arena and returns a new plan
// binding every host to its role's row, lowered on a miss (the header has
// the rule), and to its windows of a staging of the plan's own. Runs admit
// against every shard; a closed shard fails with ErrTenantClosed.
func (s *ClusterTenant) Compile(d ClusterCollective) (*ClusterPlan, error) {
	cl := s.cl
	c := cl.comms[0] // the hosts' one shape table
	c.compMu.Lock()
	defer c.compMu.Unlock()
	for h, t := range s.shards {
		if err := t.errIfClosed(); err != nil {
			return nil, fmt.Errorf("cluster host %d: %w", h, err)
		}
	}
	v, err := cl.check(s.shards[0].ar, d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Prim.LongName(), err)
	}
	H := len(cl.comms)
	cp := &ClusterPlan{cl: cl, prim: d.Prim, plans: make([]*CompiledPlan, H), errs: make([]error, H)}
	if cl.functional {
		cp.st = v.staging(H)
	}
	key := seqKey{head: planKey{prim: d.Prim, dims: d.Dims, srcOff: d.Src.Off, dstOff: d.Dst.Off, bytes: v.m,
		elemType: d.Elem, op: d.Op, lvl: d.Level, algo: d.Algorithm}, role: roleKey{flat: d.Flat}}
	if d.Level == Auto {
		key.role.obj = uint8(c.autoObj)
	}
	// rooted: the root's wire rounds (and Flat's reduce) are its alone.
	rooted := d.Flat || v.sh.cluster.wire == wireRooted
	for h := range cl.comms {
		if key.role.host = -1; d.Prim == AlltoAll || rooted && h == d.Root { // the lowering reads h
			key.role.host = int32(1 + h)
		}
		row := c.rows[key]
		if row != nil {
			c.cacheSt.TraceHits++
		} else {
			specs, err := v.roleSpecs(h)
			if err != nil {
				return nil, fmt.Errorf("cluster host %d: %s: %w", h, d.Prim.LongName(), err)
			}
			row = cl.comms[h].buildLocked(specs)
			c.rows[key] = row
		}
		cp.plans[h] = s.shards[h].planOn(row, cp.st.payloads(v, h, H))
		cp.plans[h].st = cp.st
	}
	return cp, nil
}

// Run compiles d and executes it once across every host, returning the
// cluster-critical-path breakdown.
func (s *ClusterTenant) Run(d ClusterCollective) (cost.Breakdown, error) {
	cp, err := s.Compile(d)
	if err != nil {
		return cost.Breakdown{}, err
	}
	return cp.Run()
}

// Submit compiles d and runs it once on every host (ClusterPlan.Submit),
// returning the completed ClusterFuture.
func (s *ClusterTenant) Submit(d ClusterCollective) (*ClusterFuture, error) {
	cp, err := s.Compile(d)
	if err != nil {
		return nil, err
	}
	return cp.Submit(), nil
}

// Flush is Cluster.Flush: it drains every host's local plans.
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

// clusterBuild is a cluster descriptor validated against a session's
// arena, with the sizes every role's lowering and the plan's staging
// derive from it, and, in roleSpecs, the member specs of host h's role.
type clusterBuild struct {
	cl *Cluster
	ar arena
	d  ClusterCollective
	sh *shape
	p  *plan
	// row is the leg table's row the call lowers through (nil: AlltoAll),
	// m and s the global call's per-PE payload and block size.
	row  *clusterShape
	m, s int
	// part is what one host puts on (or takes off) the wire, global the
	// cluster-wide buffer the wire assembles in the staging: one payload
	// where the parts merge by reduction, H parts where they concatenate.
	part, global int
	c            *Comm // host h's
	h            int
	specs        []planSpec
}

// check validates d for the cluster against ar once, for every host: the
// hosts share one shape table, hence one group plan. Callers hold compMu.
func (cl *Cluster) check(ar arena, d ClusterCollective) (*clusterBuild, error) {
	sh, err := shapeOf(d.Prim)
	if err != nil {
		return nil, err
	}
	p, err := cl.comms[0].planLocked(d.Dims)
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
	H, P := len(cl.comms), cl.p
	n := H * P
	if d.Prim == AllReduce || d.Prim == Reduce {
		n = P
	}
	if d.Hosts != nil && sh.rooted() {
		return nil, fmt.Errorf("core: output is the plan's staging (ClusterPlan.Results), not Hosts")
	}
	v := &clusterBuild{cl: cl, ar: ar, d: d, sh: sh, p: p}
	if v.m, v.s, err = sh.check(ar, d.Collective, n, 1, !cl.functional); err != nil {
		return nil, err
	}
	switch {
	case d.Prim == AlltoAll:
		return v, nil
	case d.Flat:
		v.row = &clusterFlat
	default:
		v.row = &sh.cluster
	}
	v.part, v.global = v.m, v.m
	switch {
	case v.row.local == noLeg:
		// The caller's payload is the global buffer, sized by the shape
		// table's host rule on the H×P ranks.
		if v.global = sh.host.of(v.m, H*P); v.global <= 0 {
			return nil, fmt.Errorf("core: cluster collective needs a non-empty payload (cost-only without Hosts: its size in Dst.Bytes)")
		}
		v.part = v.global / H
	case v.row.local == Gather:
		if v.part = P * v.m; !sh.reducing {
			v.global = H * v.part
		}
	}
	return v, nil
}

// staging makes a functional plan's staging: the global buffer — the
// caller's payload, or the wire's — and the parts, or the AlltoAll
// exchange. Where the parts merge by reduction (a Flat part is P raw
// buffers), merge reduces them into the global buffer.
func (v *clusterBuild) staging(H int) *clusterState {
	st := &clusterState{}
	switch {
	case v.row == nil:
		st.xfer = make([]byte, H*(H-1)*v.p.n*v.p.n*v.s)
	case v.row.local == noLeg:
		st.global, st.parts = v.d.Hosts[0], v.d.Hosts[0]
	default:
		st.global = make([]byte, v.global)
		if st.parts = st.global; v.sh.reducing {
			st.parts = make([]byte, H*v.part)
			t, op := v.d.Elem, v.d.Op
			st.merge = func() {
				elem.Fill(t, st.global, op.Identity(t))
				for o := 0; o < len(st.parts); o += len(st.global) {
					elem.ReduceInto(t, op, st.global, st.parts[o:][:len(st.global)])
				}
			}
		}
	}
	return st
}

// roleSpecs lowers v's members for host h, arena-relative: the specs of
// the row of h's role. Callers hold compMu.
func (v *clusterBuild) roleSpecs(h int) ([]planSpec, error) {
	b := *v
	b.c, b.h = v.cl.comms[h], h
	var err error
	if v.row == nil {
		err = b.alltoAll()
	} else {
		err = b.legs()
	}
	return b.specs, err
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
// network lane. wire marks the plan's wire, on both backends alike.
func (b *clusterBuild) net(name string, rounds int, bytesPerRound int64, wire bool) {
	b.step("NetTransfer/"+name, span{}, span{}, &StepNetTransfer{Rounds: rounds, Bytes: bytesPerRound, wire: wire})
}

// member appends a hand-built member that reads src and writes dst of the
// arena (an empty span: neither).
func (b *clusterBuild) member(src, dst span, sched Schedule) {
	key := planKey{prim: b.d.Prim, dims: b.d.Dims}
	b.specs = append(b.specs, planSpec{env: algoEnv{planKey: key}, src: src, dst: dst, sched: &sched})
}

// step appends what every member but the redistribution is: one step and
// its sync.
func (b *clusterBuild) step(name string, src, dst span, st Step) {
	b.member(src, dst, Schedule{Name: name, Steps: []Step{st, &StepSync{}}})
}

// legs lowers one row of the leg table: local leg → wire → (Flat: root
// reduce and fan-out) → redistribution leg.
func (b *clusterBuild) legs() error {
	d, row, H, P, m := b.d, b.row, len(b.cl.comms), b.cl.p, b.m
	part, global := b.part, b.global
	root := b.h == d.Root
	if row.local != noLeg {
		if err := b.local(Collective{Prim: row.local, Dims: d.Dims,
			Src: Span(d.Src.Off, m), Elem: d.Elem, Op: d.Op, Level: d.Level}); err != nil {
			return err
		}
	}
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
		// a tie; an explicit choice (check has vetted it) pins the leg.
		net := b.c.h.Params().Net
		for _, a := range hostAlgorithms(d.Algorithm) {
			rr, rb := algorithms[a].wire(H, global)
			if name == "" || cost.Seconds(rr)*net.RoundTime(int64(rb)) < cost.Seconds(rounds)*net.RoundTime(int64(bytes)) {
				name, rounds, bytes = a.String(), rr, rb
			}
		}
	}
	b.net(name, rounds, int64(bytes), true)

	if d.Flat {
		if root {
			// The root CPU reduces H*P raw buffers serially.
			b.step("FlatReduce", span{}, span{}, &StepHostCompute{Rounds: 1, Charges: []Charge{{host.ScalarReduce, int64(H) * int64(P) * int64(m)}}})
		}
		b.net("flat:bcast", ceilLog2(H), int64(global), false)
	}

	// The redistribution leg: the single-host lowering of row.redist, whose
	// payload — host buffer 1 — is a window of the global buffer: all of it
	// (Broadcast, n bytes per PE) or this host's 1/H portion (Scatter, one
	// block per PE).
	if row.redist == noLeg {
		return nil
	}
	n := global
	if row.redist == Scatter {
		n = b.s
	}
	_, eff, err := b.c.resolveLocked(Collective{Prim: row.redist, Dims: d.Dims, Dst: Span(d.Dst.Off, n), Level: d.Level})
	if err != nil {
		return err
	}
	b.member(span{}, span{d.Dst.Off, n}, lowerings[row.redist][AlgoReference].lower(algoEnv{
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
	// Pack the remote portions (a prefix of hosts below h and a suffix
	// above) into the per-pair exchange slabs, then the wire — the
	// (H-1)/H traffic of § IX-A, one P*PS portion per host per round —
	// and unpack the incoming slabs transposed into destination order.
	b.pack(d.Src.Off, 0, h, PS, s)
	b.pack(d.Src.Off+(h+1)*PS, h+1, H, PS, s)
	b.net("exchange", H-1, int64(P*PS), true)
	b.unpack(d.Dst.Off, 0, h, PS, s)
	b.unpack(d.Dst.Off+(h+1)*PS, h+1, H, PS, s)
	return nil
}

// pack reads the per-PE region [readOff, readOff+(dstHi-dstLo)*PS) of
// the arena — the blocks destined to hosts [dstLo, dstHi) — and stores
// them into this host's outgoing exchange slabs of the running plan's
// staging in (source rank, dest rank) order.
func (b *clusterBuild) pack(readOff, dstLo, dstHi, PS, s int) {
	if dstHi <= dstLo {
		return
	}
	per := (dstHi - dstLo) * PS
	p, h, H, P := b.p, b.h, len(b.cl.comms), b.cl.p
	b.step("ClusterPack", span{readOff, per}, span{}, &StepBulk{p: p,
		Read: true, ReadOff: readOff, ReadPerPE: per,
		Charges: []Charge{{host.HostMem, p.numPEBytes(per)}}, // slab store
		Modulate: func(c *Comm, _ int, in, _ []byte) {
			st := c.cur.st
			for j := range P {
				src := in[j*per : (j+1)*per]
				for dh := dstLo; dh < dstHi; dh++ {
					slab := st.slab(h, dh, H, P*PS)
					for k := 0; k < P; k++ {
						copy(slab[(j*P+k)*s:(j*P+k+1)*s], src[(dh-dstLo)*PS+k*s:(dh-dstLo)*PS+(k+1)*s])
					}
				}
			}
		},
	})
}

// unpack assembles the incoming slabs of hosts [srcLo, srcHi) from the
// running plan's staging — transposing (source rank, dest rank) into
// destination block order — and bulk-writes them to the per-PE region at
// writeOff of the arena.
func (b *clusterBuild) unpack(writeOff, srcLo, srcHi, PS, s int) {
	if srcHi <= srcLo {
		return
	}
	per := (srcHi - srcLo) * PS
	p, h, H, P := b.p, b.h, len(b.cl.comms), b.cl.p
	b.step("ClusterUnpack", span{}, span{writeOff, per}, &StepBulk{p: p,
		Write: true, WriteOff: writeOff, WritePerPE: per,
		Charges: []Charge{
			{host.LocalMod, p.numPEBytes(per)}, // receive-side transpose
			{host.HostMem, p.numPEBytes(per)},  // staging assembly
		},
		Modulate: func(c *Comm, _ int, _, out []byte) {
			st := c.cur.st
			for k := range P {
				dst := out[k*per : (k+1)*per]
				for sh := srcLo; sh < srcHi; sh++ {
					slab := st.slab(sh, h, H, P*PS)
					for j := 0; j < P; j++ {
						copy(dst[(sh-srcLo)*PS+j*s:(sh-srcLo)*PS+(j+1)*s], slab[(j*P+k)*s:(j*P+k+1)*s])
					}
				}
			}
		},
	})
}

// ---------------------------------------------------------------------
// ClusterPlan / ClusterFuture
// ---------------------------------------------------------------------

// ClusterPlan is one cluster collective compiled into one schedule-IR
// plan per host, ready for repeated Run/Submit while every shard of its
// session is open. Its host plans share their role rows with every plan
// of an equal shape, and its staging with nothing.
type ClusterPlan struct {
	cl    *Cluster
	prim  Primitive
	st    *clusterState // nil on a cost-only cluster
	plans []*CompiledPlan
	errs  []error // each host's error of the last run (runs hold execMu)
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

// admitAll reserves quota on every shard up front, so a rejection can
// never run part of the cluster. A mid-scan rejection refunds the hosts
// admitted before it: the call runs nothing, so it charges nothing.
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

// Run executes one replay on every host and returns the per-category
// maximum of the hosts' charges: the cluster critical path of this call,
// or the first host's error if a host failed mid-schedule: the staging is
// then undefined and the next run correct. Like a machine's Run, it is a
// barrier on every host's timeline. Cluster runs are serialized with each
// other and with a shard's Close. A run is admitted on every shard, then
// executed host by host on the cost-only backend, phase by phase on the
// functional one (runPhases).
func (cp *ClusterPlan) Run() (cost.Breakdown, error) {
	cp.cl.execMu.Lock()
	defer cp.cl.execMu.Unlock()
	if err := cp.admitAll(); err != nil {
		return cost.Breakdown{}, err
	}
	if cp.st != nil {
		cp.runPhases()
	} else {
		for h, hp := range cp.plans {
			cp.errs[h] = hp.try(hp.run)
		}
	}
	for _, err := range cp.errs {
		if err != nil {
			return cost.Breakdown{}, err
		}
	}
	// A run charges its plan's trace total on either backend.
	return cp.Cost(), nil
}

// runPhases is the functional driver loop. Every host is flushed, locked,
// booked and bound to its host plan as a serial run books and binds it;
// then every host moves its steps up to and through its wire step and,
// unless one failed, the wire's merge runs once and every host moves the
// rest. The hosts of a phase run through the par pool, each recovering
// its failure into its error, so a failure skips the phases after it.
// Callers hold cl.execMu.
func (cp *ClusterPlan) runPhases() {
	for _, hp := range cp.plans {
		c := hp.owner.c
		c.Flush()
		c.execMu.Lock()
		c.placeSerialLocked(hp.tr.segs)
		c.book(hp)
		c.cur = hp
	}
	defer func() {
		for _, hp := range cp.plans {
			hp.owner.c.cur = nil
			hp.owner.c.execMu.Unlock()
		}
	}()
	H := len(cp.plans)
	phase := func(afterWire bool) {
		par.Do(H, H, &hostRunner{fn: func(h int) {
			hp := cp.plans[h]
			c, steps := hp.owner.c, hp.sched.Steps
			w := 1 + slices.IndexFunc(steps, func(st Step) bool { n, ok := st.(*StepNetTransfer); return ok && n.wire })
			if steps = steps[:w]; afterWire {
				steps = hp.sched.Steps[w:]
			}
			cp.errs[h] = hp.try(func() { c.moveSteps(steps) })
		}})
	}
	phase(false)
	for _, err := range cp.errs {
		if err != nil {
			return
		}
	}
	if cp.st.merge != nil {
		cp.st.merge()
	}
	phase(true)
}

// hostRunner adapts a per-host closure to par.Runner.
type hostRunner struct{ fn func(h int) }

func (hr *hostRunner) RunShard(_, lo, hi int) {
	for h := lo; h < hi; h++ {
		hr.fn(h)
	}
}

// Results returns the rooted result of the plan's most recent completed
// Run — the gathered global buffer (Gather) or the reduced buffer
// (Reduce) — in global-rank order: the plan's own staging, not a copy,
// with CompiledPlan.Results' rule (the next run overwrites it; undefined
// after a failed run). Nil on a cost-only cluster and for non-rooted
// primitives. Call only after Run returns or the submitted future
// completes.
func (cp *ClusterPlan) Results() []byte {
	if cp.st == nil || !shapes[cp.prim].rooted() {
		return nil
	}
	return cp.st.global
}

// Submit executes the plan once on every host, as Run does, and returns
// its outcome as a completed ClusterFuture. Like Run, it is a barrier on
// every host's timeline: a cluster plan never waits in a host's queue, so
// it is never shed, never refused for a host's queue depth and needs no
// stepping to complete it.
func (cp *ClusterPlan) Submit() *ClusterFuture {
	bd, err := cp.Run()
	return &ClusterFuture{cp: cp, bd: bd, err: err}
}

// ClusterFuture is the handle of one submitted cluster execution,
// completed at submission with its breakdown and error.
type ClusterFuture struct {
	cp  *ClusterPlan
	bd  cost.Breakdown
	err error
}

// Done reports whether the execution has completed: always true.
func (cf *ClusterFuture) Done() bool { return true }

// Wait returns the per-category maximum of the hosts' charges and the
// run's error (see ClusterPlan.Run).
func (cf *ClusterFuture) Wait() (cost.Breakdown, error) { return cf.bd, cf.err }

// Err returns the run's error.
func (cf *ClusterFuture) Err() error { return cf.err }

// Results returns the plan's rooted result (see ClusterPlan.Results), nil
// after a failed run.
func (cf *ClusterFuture) Results() []byte {
	if cf.err != nil {
		return nil
	}
	return cf.cp.Results()
}
