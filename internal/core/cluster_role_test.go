package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dram"
	"repro/internal/elem"
)

// perHostBuild is the oracle of the role rule: host h's plan the way
// compile built every host before it knew roles — the host's own specs,
// on a staging of their own, lowered, fused and traced from nothing, past
// the shape table's rows — and that staging's global buffer.
func perHostBuild(s *ClusterTenant, d ClusterCollective, h int) (*CompiledPlan, []byte, error) {
	cl := s.cl
	c, owner := cl.comms[h], s.shards[h]
	c.compMu.Lock()
	defer c.compMu.Unlock()
	v, err := cl.check(owner.ar, d)
	if err != nil {
		return nil, nil, err
	}
	specs, err := v.roleSpecs(h)
	if err != nil {
		return nil, nil, err
	}
	var st *clusterState
	if cl.functional {
		st = v.staging(len(cl.comms))
	}
	cp := owner.planOn(c.buildLocked(specs), st.payloads(v, h, len(cl.comms)))
	cp.st = st
	if st == nil {
		return cp, nil, nil
	}
	return cp, st.global, nil
}

// window locates a host payload in a staging's global buffer: its offset
// (-1 if it is not a window of it) and its length.
func window(b, global []byte) [2]int {
	off := cap(global) - cap(b)
	if len(b) == 0 || off < 0 || off+len(b) > len(global) || &global[off] != &b[0] {
		off = -1
	}
	return [2]int{off, len(b)}
}

// stepNames renders a schedule's name and its steps' kinds in order.
func stepNames(s *Schedule) string {
	names := make([]string, len(s.Steps))
	for i, st := range s.Steps {
		names[i] = st.stepName()
	}
	return s.Name + ": " + strings.Join(names, ",")
}

// diffPlans names the first field in which got — a host plan out of
// compile, on a staging whose global buffer is gotGlobal — is not what
// the per-host build of the same host produces on wantGlobal, or returns
// "". A host payload must be the same window of each staging.
func diffPlans(got, want *CompiledPlan, gotGlobal, wantGlobal []byte) string {
	switch {
	case got.owner != want.owner || got.base != want.base:
		return "bound to another host's tenant or base"
	case got.key != want.key:
		return fmt.Sprintf("key %+v, want %+v", got.key, want.key)
	case diffRows(got, want) != "":
		return diffRows(got, want)
	case !slices.Equal(got.members, want.members):
		return "members"
	case !slices.Equal(got.regs.all, want.regs.all):
		return fmt.Sprintf("regs %+v, want %+v", got.regs, want.regs)
	case (got.sched == nil) != (want.sched == nil):
		return fmt.Sprintf("schedule %v, want %v", got.sched, want.sched)
	case got.sched != nil && stepNames(got.sched) != stepNames(want.sched):
		return fmt.Sprintf("steps %q, want %q", stepNames(got.sched), stepNames(want.sched))
	case len(got.hosts) != len(want.hosts):
		return fmt.Sprintf("%d host payloads, want %d", len(got.hosts), len(want.hosts))
	}
	for i := range got.hosts {
		if g, w := window(got.hosts[i], gotGlobal), window(want.hosts[i], wantGlobal); g != w {
			return fmt.Sprintf("host payload %d is the staging's window (offset, bytes) %v, want %v", i, g, w)
		}
	}
	return ""
}

// diffRows names the first part of got's shape row — charge trace,
// fusion report, member costs — that is not bit for bit want's, or
// returns "".
func diffRows(got, want *CompiledPlan) string {
	switch {
	case !slices.Equal(got.tr.adds, want.tr.adds):
		return "tr.adds"
	case got.tr.stats.Bursts != want.tr.stats.Bursts || !slices.Equal(got.tr.stats.BytesPerChannel, want.tr.stats.BytesPerChannel):
		return "tr.stats"
	case got.tr.total != want.tr.total:
		return "tr.total"
	case !slices.Equal(got.tr.segs, want.tr.segs):
		return "tr.segs"
	case got.fusion != want.fusion:
		return fmt.Sprintf("fusion %+v, want %+v", got.fusion, want.fusion)
	case !slices.Equal(got.memberCosts, want.memberCosts):
		return "memberCosts"
	}
	return ""
}

// roleArena is the tenant arena of the role tests: it holds every
// descriptor of roleDescs at H = 8.
const roleArena = 4096

// roleDescs is the leg table as descriptors on H hosts of 16 PEs: every
// primitive, the pinned wire legs, Flat, and one Auto level (its local
// and redistribution legs resolve on the building host). payloads gives
// the host-input primitives the buffers a functional cluster requires.
func roleDescs(H int, payloads bool) []ClusterCollective {
	const P, s = 16, 8
	m := H * P * s
	reduce := func(p Primitive, alg Algorithm, flat bool) ClusterCollective {
		d := Collective{Prim: p, Dims: "1", Src: Span(0, m), Elem: elem.I32, Op: elem.Sum, Level: IM, Algorithm: alg}
		if p != Reduce {
			d.Dst = At(2048)
		}
		return ClusterCollective{Collective: d, Flat: flat}
	}
	hostInput := func(p Primitive, dst, payload int) ClusterCollective {
		d := Collective{Prim: p, Dims: "1", Dst: Span(0, dst), Level: IM}
		if payloads {
			d.Hosts = [][]byte{make([]byte, payload)}
		}
		return ClusterCollective{Collective: d}
	}
	return []ClusterCollective{
		{Collective: Collective{Prim: AlltoAll, Dims: "1", Src: Span(0, m), Dst: At(2048), Level: IM}},
		reduce(ReduceScatter, AlgoAuto, false),
		reduce(AllReduce, AlgoAuto, false),
		reduce(AllReduce, AlgoRing, false),
		reduce(AllReduce, AlgoTree, false),
		reduce(AllReduce, AlgoAuto, true),
		{Collective: Collective{Prim: AllGather, Dims: "1", Src: Span(0, s), Dst: At(2048), Level: IM}},
		{Collective: Collective{Prim: AllGather, Dims: "1", Src: Span(0, s), Dst: At(2048)}},
		hostInput(Scatter, s, m),
		{Collective: Collective{Prim: Gather, Dims: "1", Src: Span(0, s), Level: IM}},
		reduce(Reduce, AlgoAuto, false),
		hostInput(Broadcast, 256, 256),
	}
}

// rolePad is the pad session between the two role sessions.
const rolePad = 1 << 10

// roleSessions returns the two sessions of the oracle test on a fresh cl:
// one at base 0 and one carved behind it and a pad.
func roleSessions(t *testing.T, cl *Cluster) map[string]*ClusterTenant {
	carve := func(bytes int) *ClusterTenant {
		s, err := cl.NewTenant(TenantConfig{ArenaBytes: bytes})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sets := map[string]*ClusterTenant{"base-0": carve(roleArena)}
	carve(rolePad)
	sets["behind-pad"] = carve(roleArena)
	if base, _ := sets["behind-pad"].Arena(); base != roleArena+rolePad {
		t.Fatalf("padded session at base %d, want %d", base, roleArena+rolePad)
	}
	return sets
}

// TestClusterRolePlansMatchPerHostBuild proves the role rule is not too
// coarse: whatever compile shares between the hosts of a role, every
// host's plan is field for field the plan a build of that host alone
// produces — for every row of the leg table, every root, sessions at
// base 0 and behind a pad, on both backends.
func TestClusterRolePlansMatchPerHostBuild(t *testing.T) {
	for _, costOnly := range []bool{true, false} {
		for _, H := range []int{2, 3, 8} {
			cl := testCluster(t, H, geoHost, []int{16}, costOnly)
			for name, s := range roleSessions(t, cl) {
				for _, d := range roleDescs(H, !costOnly) {
					for d.Root = 0; d.Root < H; d.Root++ {
						cp, err := s.Compile(d)
						if err != nil {
							t.Fatalf("cost-only=%v H=%d %s %v root %d: %v", costOnly, H, name, d.Prim, d.Root, err)
						}
						for h := 0; h < H; h++ {
							want, global, err := perHostBuild(s, d, h)
							if err != nil {
								t.Fatal(err)
							}
							if cp.HostPlan(h).st != cp.st {
								t.Fatalf("host %d does not bind its cluster plan's staging", h)
							}
							if diff := diffPlans(cp.HostPlan(h), want, globalOf(cp), global); diff != "" {
								t.Errorf("cost-only=%v H=%d %s %v/%v flat=%v root %d host %d: %s",
									costOnly, H, name, d.Prim, d.Algorithm, d.Flat, d.Root, h, diff)
							}
						}
					}
				}
			}
		}
	}
}

// A compile rejected at host k > 0 books nothing on the hosts before it:
// the session's third shard is closed, the call returns no plan, and no
// host counts a trace lookup or a fused plan.
func TestRejectedClusterCompileBooksNoHost(t *testing.T) {
	for _, costOnly := range []bool{true, false} {
		cl := testCluster(t, 3, geoHost, []int{16}, costOnly)
		s, err := cl.NewTenant(TenantConfig{ArenaBytes: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Host(2).Close(); err != nil {
			t.Fatal(err)
		}
		cp, err := s.Compile(ClusterCollective{Collective: Collective{Prim: AllReduce, Dims: "1",
			Src: Span(0, 3*16*8), Dst: At(8192), Elem: elem.I32, Op: elem.Sum, Level: IM}})
		if cp != nil || !errors.Is(err, ErrTenantClosed) || !strings.Contains(err.Error(), "cluster host 2") {
			t.Fatalf("cost-only=%v: Compile = %v, %v; want no plan and a closed-tenant rejection at host 2", costOnly, cp, err)
		}
		for h := 0; h < 3; h++ {
			if s := cl.Host(h).Snapshot(); s.PlanCache != (PlanCacheStats{}) || s.Fusion != (FusionStats{}) {
				t.Errorf("cost-only=%v: rejected compile booked host %d: %+v, %+v", costOnly, h, s.PlanCache, s.Fusion)
			}
		}
	}
}

// The role's first host pays for a plan; every other symmetric host of a
// cold AllReduce costs a bounded handful of objects — its bound copy of
// the role's plan — where a build of its own cost thousands, on either
// backend.
func TestClusterCompileAllocsPerHost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const m = 64 * 16 * 8
	d := ClusterCollective{Collective: Collective{Prim: AllReduce, Dims: "1",
		Src: Span(0, m), Dst: At(m), Elem: elem.I32, Op: elem.Sum, Level: IM}}
	for _, costOnly := range []bool{true, false} {
		cold := func(H int) float64 {
			// AllocsPerRun calls once to warm up and once to count: a cluster each.
			cls := []*sessionCluster{sessionTestCluster(t, H, geoHost, []int{16}, costOnly), sessionTestCluster(t, H, geoHost, []int{16}, costOnly)}
			return testing.AllocsPerRun(1, func() {
				if _, err := cls[0].Compile(d); err != nil {
					t.Fatal(err)
				}
				cls = cls[1:]
			})
		}
		a8, a64 := cold(8), cold(64)
		if perHost := (a64 - a8) / 56; perHost > 8 {
			t.Errorf("cost-only=%v cold compile: %v allocs on 8 hosts, %v on 64: %v per extra symmetric host, want <= 8", costOnly, a8, a64, perHost)
		}
	}
}

// Only a role's first host traces: compiling every row of the leg table
// on a functional cluster, at the first and the last root, books on the
// hosts' one shape table a trace miss per role row not built yet — every
// host of an AlltoAll, the root where the wire or Flat singles it out, the
// rest — and a trace hit for every other host. At the second root only a
// rooted lowering's root row is new.
func TestFunctionalClusterHostsShareRoleRows(t *testing.T) {
	const H = 4
	s := sessionTestCluster(t, H, geoHost, []int{16}, false).s
	for _, d := range roleDescs(H, true) {
		for i, root := range []int{0, H - 1} {
			d.Root = root
			before := s.cl.Host(0).Snapshot().PlanCache
			if _, err := s.Compile(d); err != nil {
				t.Fatal(err)
			}
			rooted := d.Prim != AlltoAll && (d.Flat || shapes[d.Prim].cluster.wire == wireRooted)
			roles := uint64(1)
			switch {
			case i == 1 && rooted:
				roles = 1
			case i == 1:
				roles = 0
			case d.Prim == AlltoAll:
				roles = H
			case rooted:
				roles = 2
			}
			st := s.cl.Host(0).Snapshot().PlanCache
			// Each new role row is a miss, and an Auto leg's first dry builds besides.
			if hits, misses := st.TraceHits-before.TraceHits, st.TraceMisses-before.TraceMisses; hits != H-roles || misses < roles || i == 1 && misses != roles {
				t.Errorf("%v/%v flat=%v root %d: the table booked %d trace hits, %d misses; want %d hits, >= %d misses",
					d.Prim, d.Algorithm, d.Flat, d.Root, hits, misses, H-roles, roles)
			}
			for h := 1; h < H; h++ {
				if got := s.cl.Host(h).Snapshot().PlanCache; got != st {
					t.Errorf("host %d reports %+v, host 0 %+v: want the one table's", h, got, st)
				}
			}
		}
	}
}

// The shards of a cluster session share the hosts' one shape table: a
// local collective compiled on every shard at once — one goroutine per
// host — lowers and traces once, every host reports that one row, and,
// functionally, each host's run moves exactly what a lone machine's does.
func TestClusterShardsShareShapeRows(t *testing.T) {
	const H, P, m = 4, 16, 16 * 8
	d := Collective{Prim: ReduceScatter, Dims: "1", Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: IM}
	for _, costOnly := range []bool{true, false} {
		cl := sessionTestCluster(t, H, geoHost, []int{P}, costOnly)
		var lone *testComm
		if !costOnly {
			lone = newTestComm(t, geoHost, []int{P}, Config{})
			in := fillSrc(lone, 0, m, 5)
			for h := 0; h < H; h++ {
				for pe, b := range in {
					cl.s.Host(h).SetPEBuffer(pe, 0, b)
				}
			}
			if _, err := lone.s.Run(d); err != nil {
				t.Fatal(err)
			}
		}
		errs := make([]error, H)
		var wg sync.WaitGroup
		for h := 0; h < H; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				_, errs[h] = cl.s.Host(h).Run(d)
			}(h)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		if st := cl.Host(0).Snapshot().PlanCache; st.TraceMisses != 1 || st.TraceHits != H-1 {
			t.Errorf("cost-only=%v: %d shards booked %d trace misses, %d hits; want 1 and %d", costOnly, H, st.TraceMisses, st.TraceHits, H-1)
		}
		for h := 0; h < H; h++ {
			if n := cl.Host(h).Snapshot().PlanCache.CachedTraces; n != 1 {
				t.Errorf("cost-only=%v: host %d reports %d shape rows, want the table's 1", costOnly, h, n)
			}
			for pe := 0; lone != nil && pe < P; pe++ {
				if !bytes.Equal(cl.s.Host(h).GetPEBuffer(pe, 0, 3*m), lone.GetPEBuffer(pe, 0, 3*m)) {
					t.Fatalf("host %d PE %d differs from a lone machine's", h, pe)
				}
			}
		}
	}
}

// The hosts share what a machine of its own allocates for its shape
// table: a cost-only cluster costs a bounded handful of objects per host.
func TestNewClusterAllocsPerHost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const H = 256
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewCluster(H, geoHost, []int{16}, Config{Backend: CostBackend()}); err != nil {
			t.Fatal(err)
		}
	})
	if perHost := allocs / H; perHost > 14 {
		t.Errorf("a cost-only cluster of %d hosts allocates %v objects: %v per host, want <= 14", H, allocs, perHost)
	}
}

// A compiled cost-only cluster plan replays without allocating: the
// hosts run serially and each host's run is a meter charge.
func TestCostOnlyClusterRunDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const m = 64 * 16 * 8
	for _, H := range []int{2, 4} {
		cl := sessionTestCluster(t, H, geoHost, []int{16}, true)
		for _, d := range []ClusterCollective{
			{Collective: Collective{Prim: AllReduce, Dims: "1", Src: Span(0, m), Dst: At(m), Elem: elem.I32, Op: elem.Sum, Level: CM}},
			{Collective: Collective{Prim: AlltoAll, Dims: "1", Src: Span(0, m), Dst: At(m), Level: IM}},
		} {
			cp, err := cl.Compile(d)
			if err != nil {
				t.Fatal(err)
			}
			if a := testing.AllocsPerRun(20, func() {
				if _, err := cp.Run(); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Errorf("H=%d %v: a cost-only ClusterPlan.Run allocates %v objects, want 0", H, d.Prim, a)
			}
		}
	}
}

// geo1024 is the paper's 1024-PE machine with a token MRAM.
var geo1024 = dram.Geometry{Channels: 4, RanksPerChannel: 4, BanksPerChip: 8, MramPerBank: 1 << 14}

// A staged shape's hops are two slabs: lowering the ring AllReduce of a
// 1024-rank group (2046 hops) allocates what a 16-rank group's does, not
// two objects per hop.
func TestStagedRoundsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	lower := func(geo dram.Geometry) (float64, int) {
		c := newTestComm(t, geo, []int{geo.NumPEs()}, Config{Backend: CostBackend()})
		p, err := c.plan("1")
		if err != nil {
			t.Fatal(err)
		}
		e := algoEnv{planKey: planKey{prim: AllReduce, lvl: Baseline, dstOff: 8 * p.n, bytes: 8 * p.n, elemType: elem.I32, op: elem.Sum}, p: p, s: 8}
		var steps int
		allocs := testing.AllocsPerRun(10, func() { steps = len(lowerRingAllReduce(e).Steps) })
		return allocs, steps
	}
	small, _ := lower(geoHost)
	big, steps := lower(geo1024)
	if steps != 2*1023+3 {
		t.Fatalf("ring over 1024 ranks has %d steps, want %d", steps, 2*1023+3)
	}
	if big != small || big > 16 {
		t.Errorf("AllReduce/ring allocates %v objects on 1024 ranks, %v on 16: want equal and <= 16", big, small)
	}
}

// A cold group plan allocates a constant number of objects — the plan,
// its index arrays, one backing array for all groups — at any PE count.
func TestBuildPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	hc := newTestComm(t, geo1024, []int{32, 32}, Config{Backend: CostBackend()}).Hypercube()
	for _, dims := range []string{"10", "01", "11"} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := hc.buildPlan(dims); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("buildPlan(%q) on 1024 PEs allocates %v objects, want <= 8", dims, allocs)
		}
	}
}

// globalOf returns a cluster plan's global staging buffer, nil on a
// cost-only cluster.
func globalOf(cp *ClusterPlan) []byte {
	if cp.st == nil {
		return nil
	}
	return cp.st.global
}

// A second session compiling a cluster shape another session already
// compiled traces nothing: every host of it binds the first session's role
// rows, for every row of the leg table at every root, on both backends.
func TestSecondClusterSessionTracesNothing(t *testing.T) {
	const H = 3
	for _, costOnly := range []bool{true, false} {
		cl := testCluster(t, H, geoHost, []int{16}, costOnly)
		sets := roleSessions(t, cl)
		for _, d := range roleDescs(H, !costOnly) {
			for d.Root = 0; d.Root < H; d.Root++ {
				first, err := sets["base-0"].Compile(d)
				if err != nil {
					t.Fatal(err)
				}
				before := cl.Host(0).Snapshot().PlanCache
				second, err := sets["behind-pad"].Compile(d)
				if err != nil {
					t.Fatal(err)
				}
				if got := cl.Host(0).Snapshot().PlanCache; got.TraceMisses != before.TraceMisses || got.TraceHits != before.TraceHits+H {
					t.Errorf("cost-only=%v %v/%v flat=%v root %d: the second session booked %+v after %+v; want %d hits and no miss",
						costOnly, d.Prim, d.Algorithm, d.Flat, d.Root, got, before, H)
				}
				for h := 0; h < H; h++ {
					if first.HostPlan(h).planEntry != second.HostPlan(h).planEntry {
						t.Errorf("cost-only=%v %v root %d host %d: the second session bound a row of its own", costOnly, d.Prim, d.Root, h)
					}
				}
			}
		}
	}
}

// Two plans of one functional descriptor share their role rows but not
// their staging: a rooted plan's Results — its own staging, not a copy —
// survive the other plan's Run, and a plan whose rows another plan built
// reduces, gathers and exchanges through its own staging, moving what the
// builder moves.
func TestClusterPlansKeepTheirStaging(t *testing.T) {
	const H, P, s = 3, 16, 8
	const m = H * P * s
	cl := sessionTestCluster(t, H, geoHost, []int{P}, false)
	ranks := clusterRanks(t, cl, "1")
	fill := func(seed int64) {
		for g, b := range randGlobal(H*P, m, seed) {
			cl.Host(g/P).SetPEBuffer(ranks[g/P][g%P], 0, b)
		}
	}
	// out is what a run left: the rooted result, or every PE's Dst region.
	out := func(cp *ClusterPlan, dst int) []byte {
		if dst < 0 {
			return slices.Clone(cp.Results())
		}
		var b []byte
		for h := 0; h < H; h++ {
			for pe := 0; pe < P; pe++ {
				b = append(b, cl.Host(h).GetPEBuffer(pe, dst, m)...)
			}
		}
		return b
	}
	run := func(cp *ClusterPlan) {
		if _, err := cp.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		d   ClusterCollective
		dst int // -1: a rooted result
	}{
		{ClusterCollective{Collective: Collective{Prim: Gather, Dims: "1", Src: Span(0, s), Level: IM}, Root: 1}, -1},
		{ClusterCollective{Collective: Collective{Prim: Reduce, Dims: "1", Src: Span(0, m), Elem: elem.I32, Op: elem.Sum, Level: IM}, Root: 2}, -1},
		{ClusterCollective{Collective: Collective{Prim: AllReduce, Dims: "1", Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: IM}}, 2 * m},
		{ClusterCollective{Collective: Collective{Prim: AlltoAll, Dims: "1", Src: Span(0, m), Dst: At(2 * m), Level: IM}}, 2 * m},
	} {
		builder, err := cl.Compile(c.d)
		if err != nil {
			t.Fatal(err)
		}
		other, err := cl.Compile(c.d)
		if err != nil {
			t.Fatal(err)
		}
		fill(1)
		run(builder)
		first := out(builder, c.dst)
		fill(2)
		run(other)
		got := out(other, c.dst)
		if r := builder.Results(); c.dst < 0 && (!bytes.Equal(r, first) || &r[0] != &builder.Results()[0]) {
			t.Errorf("%v: the first plan's Results are a copy, or the other plan's Run overwrote them", c.d.Prim)
		}
		fill(2) // the reducing levels consume Src
		run(builder)
		if want := out(builder, c.dst); !bytes.Equal(got, want) {
			t.Errorf("%v: the plan on another plan's rows moved other bytes than the builder", c.d.Prim)
		}
		if bytes.Equal(got, first) {
			t.Errorf("%v: two inputs gave one output", c.d.Prim)
		}
	}
}

// A cluster row names the Auto objective its legs resolved under: after
// SetAutoObjective(AutoMakespan), a cluster AllReduce at Level Auto binds
// the rows a fresh cluster with that objective builds, not the rows the
// meter objective built. On these 128-PE hosts the two objectives resolve
// the local Reduce leg of 1024 bytes per PE to different levels.
func TestClusterRowsFollowAutoObjective(t *testing.T) {
	const H = 2
	geo := dram.Geometry{Channels: 2, RanksPerChannel: 1, BanksPerChip: 8, MramPerBank: 1 << 16}
	d := ClusterCollective{Collective: Collective{Prim: AllReduce, Dims: "1", Src: Span(0, 1024), Dst: At(2048),
		Elem: elem.I32, Op: elem.Sum, Level: Auto}}
	for _, costOnly := range []bool{true, false} {
		compile := func(cl *sessionCluster) *ClusterPlan {
			cp, err := cl.Compile(d)
			if err != nil {
				t.Fatal(err)
			}
			return cp
		}
		cl := sessionTestCluster(t, H, geo, []int{geo.NumPEs()}, costOnly)
		meter := compile(cl)
		cl.Host(0).SetAutoObjective(AutoMakespan)
		got := compile(cl)
		fresh := sessionTestCluster(t, H, geo, []int{geo.NumPEs()}, costOnly)
		fresh.Host(0).SetAutoObjective(AutoMakespan)
		want := compile(fresh)
		if diffRows(meter.HostPlan(0), want.HostPlan(0)) == "" {
			t.Fatal("the two objectives build one row: the test shape no longer tells them apart")
		}
		for h := 0; h < H; h++ {
			if diff := diffRows(got.HostPlan(h), want.HostPlan(h)); diff != "" {
				t.Errorf("cost-only=%v host %d: the makespan compile's row differs from a fresh makespan cluster's: %s", costOnly, h, diff)
			}
		}
	}
}
