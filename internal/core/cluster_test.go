package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
)

// geoHost is one cluster host's PIM subsystem: 16 PEs, small MRAM.
var geoHost = dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 14}

// flatGeo is a single-host geometry with the same per-PE MRAM but H
// hosts' worth of PEs, for differential runs against a flat communicator.
func flatGeo(hosts int) dram.Geometry {
	return dram.Geometry{Channels: hosts, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 14}
}

// testCluster builds a cluster of identical hosts over the given shape,
// with no session on any host yet.
func testCluster(t testing.TB, hosts int, geo dram.Geometry, shape []int, costOnly bool) *Cluster {
	t.Helper()
	var cfg Config
	if costOnly {
		cfg.Backend = CostBackend()
	}
	cl, err := NewCluster(hosts, geo, shape, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// sessionCluster is a test cluster paired with its whole-cluster session
// (Cluster.Session): Compile, Run and Submit compile on the session,
// whose arena starts at offset 0 on fresh hosts — the regions are
// absolute.
type sessionCluster struct {
	*Cluster
	s *ClusterTenant
}

func (cl *sessionCluster) Compile(d ClusterCollective) (*ClusterPlan, error) { return cl.s.Compile(d) }

func (cl *sessionCluster) Run(d ClusterCollective) (cost.Breakdown, error) { return cl.s.Run(d) }

func (cl *sessionCluster) Submit(d ClusterCollective) (*ClusterFuture, error) { return cl.s.Submit(d) }

// withSessions binds the whole-cluster session of cl.
func withSessions(t testing.TB, cl *Cluster) *sessionCluster {
	t.Helper()
	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	return &sessionCluster{Cluster: cl, s: s}
}

// sessionTestCluster is testCluster with every host's session bound.
func sessionTestCluster(t *testing.T, hosts int, geo dram.Geometry, shape []int, costOnly bool) *sessionCluster {
	t.Helper()
	return withSessions(t, testCluster(t, hosts, geo, shape, costOnly))
}

// clusterRanks returns, per host, the host's PEs in rank order for the
// whole-host communicator, so global rank g = h*P + j maps to PE
// ranks[h][j].
func clusterRanks(t *testing.T, cl *sessionCluster, dims string) [][]int {
	t.Helper()
	ranks := make([][]int, cl.NumHosts())
	for h := range ranks {
		p, err := cl.Host(h).plan(dims)
		if err != nil {
			t.Fatal(err)
		}
		ranks[h] = p.groups[0]
	}
	return ranks
}

// seedGlobal writes in[g] to global rank g's src region on the cluster
// and on the equivalent flat communicator.
func seedGlobal(cl *sessionCluster, ranks [][]int, flat *testComm, flatRank []int, off int, in [][]byte) {
	P := cl.PEsPerHost()
	for g, data := range in {
		cl.Host(g/P).SetPEBuffer(ranks[g/P][g%P], off, data)
		flat.SetPEBuffer(flatRank[g], off, data)
	}
}

// randGlobal builds deterministic per-global-rank input buffers.
func randGlobal(n, bytesPerPE int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	in := make([][]byte, n)
	for g := range in {
		in[g] = make([]byte, bytesPerPE)
		rng.Read(in[g])
	}
	return in
}

// TestClusterMatchesFlatComm is the differential acceptance test: a
// hierarchical cluster of H hosts × P PEs must produce byte-identical
// MRAM contents and rooted results to ONE flat communicator of H*P PEs
// running the same global collective, for every primitive, including a
// non-power-of-two host count.
func TestClusterMatchesFlatComm(t *testing.T) {
	const P = 16
	const s = 8 // block bytes
	for _, H := range []int{1, 2, 3, 4} {
		newPair := func(t *testing.T) (*sessionCluster, [][]int, *testComm, []int) {
			cl := sessionTestCluster(t, H, geoHost, []int{P}, false)
			flat := testSystem(t, flatGeo(H), []int{H * P})
			fp, err := flat.plan("1")
			if err != nil {
				t.Fatal(err)
			}
			return cl, clusterRanks(t, cl, "1"), flat, fp.groups[0]
		}
		// comparePEs checks n bytes at off on every global rank.
		comparePEs := func(t *testing.T, cl *sessionCluster, ranks [][]int, flat *testComm, flatRank []int, off, n int) {
			t.Helper()
			for g := 0; g < H*P; g++ {
				got := cl.Host(g/P).GetPEBuffer(ranks[g/P][g%P], off, n)
				want := flat.GetPEBuffer(flatRank[g], off, n)
				if !bytes.Equal(got, want) {
					t.Fatalf("global rank %d: cluster MRAM differs from flat communicator", g)
				}
			}
		}

		t.Run(fmt.Sprintf("H=%d/AllReduce", H), func(t *testing.T) {
			cl, ranks, flat, flatRank := newPair(t)
			m := 8 * H * P // both communicators block by rank: 8-byte-aligned blocks
			in := randGlobal(H*P, m, 101)
			seedGlobal(cl, ranks, flat, flatRank, 0, in)
			if _, err := cl.Run(ClusterCollective{Collective: Collective{
				Prim: AllReduce, Dims: "1", Src: Span(0, m), Dst: At(2 * m),
				Elem: elem.I32, Op: elem.Sum, Level: IM,
			}}); err != nil {
				t.Fatal(err)
			}
			if _, err := flat.Run(Collective{Prim: AllReduce, Dims: "1",
				Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: IM}); err != nil {
				t.Fatal(err)
			}
			comparePEs(t, cl, ranks, flat, flatRank, 2*m, m)
		})

		t.Run(fmt.Sprintf("H=%d/ReduceScatter", H), func(t *testing.T) {
			cl, ranks, flat, flatRank := newPair(t)
			m := H * P * s
			in := randGlobal(H*P, m, 102)
			seedGlobal(cl, ranks, flat, flatRank, 0, in)
			if _, err := cl.Run(ClusterCollective{Collective: Collective{
				Prim: ReduceScatter, Dims: "1", Src: Span(0, m), Dst: At(2 * m),
				Elem: elem.I32, Op: elem.Sum, Level: IM,
			}}); err != nil {
				t.Fatal(err)
			}
			if _, err := flat.Run(Collective{Prim: ReduceScatter, Dims: "1",
				Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: IM}); err != nil {
				t.Fatal(err)
			}
			comparePEs(t, cl, ranks, flat, flatRank, 2*m, s)
		})

		t.Run(fmt.Sprintf("H=%d/AllGather", H), func(t *testing.T) {
			cl, ranks, flat, flatRank := newPair(t)
			in := randGlobal(H*P, s, 103)
			seedGlobal(cl, ranks, flat, flatRank, 0, in)
			if _, err := cl.Run(ClusterCollective{Collective: Collective{
				Prim: AllGather, Dims: "1", Src: Span(0, s), Dst: At(1024), Level: IM,
			}}); err != nil {
				t.Fatal(err)
			}
			if _, err := flat.Run(Collective{Prim: AllGather, Dims: "1",
				Src: Span(0, s), Dst: At(1024), Level: IM}); err != nil {
				t.Fatal(err)
			}
			comparePEs(t, cl, ranks, flat, flatRank, 1024, H*P*s)
		})

		t.Run(fmt.Sprintf("H=%d/AlltoAll", H), func(t *testing.T) {
			cl, ranks, flat, flatRank := newPair(t)
			m := H * P * s
			in := randGlobal(H*P, m, 104)
			seedGlobal(cl, ranks, flat, flatRank, 0, in)
			if _, err := cl.Run(ClusterCollective{Collective: Collective{
				Prim: AlltoAll, Dims: "1", Src: Span(0, m), Dst: At(2 * m), Level: IM,
			}}); err != nil {
				t.Fatal(err)
			}
			if _, err := flat.Run(Collective{Prim: AlltoAll, Dims: "1",
				Src: Span(0, m), Dst: At(2 * m), Level: IM}); err != nil {
				t.Fatal(err)
			}
			comparePEs(t, cl, ranks, flat, flatRank, 2*m, m)
		})

		t.Run(fmt.Sprintf("H=%d/Broadcast", H), func(t *testing.T) {
			cl, ranks, flat, flatRank := newPair(t)
			payload := randGlobal(1, 48, 105)[0]
			if _, err := cl.Run(ClusterCollective{Collective: Collective{
				Prim: Broadcast, Dims: "1", Dst: Span(64, len(payload)), Level: IM,
				Hosts: [][]byte{payload},
			}, Root: H - 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := flat.Run(Collective{Prim: Broadcast, Dims: "1",
				Hosts: [][]byte{payload}, Dst: At(64), Level: IM}); err != nil {
				t.Fatal(err)
			}
			comparePEs(t, cl, ranks, flat, flatRank, 64, len(payload))
		})

		t.Run(fmt.Sprintf("H=%d/Scatter", H), func(t *testing.T) {
			cl, ranks, flat, flatRank := newPair(t)
			buf := randGlobal(1, H*P*s, 106)[0]
			if _, err := cl.Run(ClusterCollective{Collective: Collective{
				Prim: Scatter, Dims: "1", Dst: Span(256, s), Level: IM,
				Hosts: [][]byte{buf},
			}}); err != nil {
				t.Fatal(err)
			}
			if _, err := flat.Run(Collective{Prim: Scatter, Dims: "1",
				Hosts: [][]byte{buf}, Dst: Span(256, s), Level: IM}); err != nil {
				t.Fatal(err)
			}
			comparePEs(t, cl, ranks, flat, flatRank, 256, s)
		})

		t.Run(fmt.Sprintf("H=%d/Gather", H), func(t *testing.T) {
			cl, ranks, flat, flatRank := newPair(t)
			in := randGlobal(H*P, s, 107)
			seedGlobal(cl, ranks, flat, flatRank, 0, in)
			cp, err := cl.Compile(ClusterCollective{Collective: Collective{
				Prim: Gather, Dims: "1", Src: Span(0, s), Level: IM,
			}, Root: H / 2})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cp.Run(); err != nil {
				t.Fatal(err)
			}
			want, _, err := runRooted(flat, Collective{Prim: Gather, Dims: "1", Src: Span(0, s), Level: IM})
			if err != nil {
				t.Fatal(err)
			}
			if got := cp.Results(); !bytes.Equal(got, want[0]) {
				t.Fatal("cluster Gather result differs from flat communicator")
			}
			if got := cp.HostPlan(H / 2).Results(); got != nil {
				t.Errorf("the root's host plan returned %d result buffers, want none (the result is ClusterPlan.Results)", len(got))
			}
		})

		t.Run(fmt.Sprintf("H=%d/Reduce", H), func(t *testing.T) {
			cl, ranks, flat, flatRank := newPair(t)
			m := 8 * H * P
			in := randGlobal(H*P, m, 108)
			seedGlobal(cl, ranks, flat, flatRank, 0, in)
			cp, err := cl.Compile(ClusterCollective{Collective: Collective{
				Prim: Reduce, Dims: "1", Src: Span(0, m),
				Elem: elem.I16, Op: elem.Sum, Level: IM,
			}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cp.Run(); err != nil {
				t.Fatal(err)
			}
			want, _, err := runRooted(flat, Collective{Prim: Reduce, Dims: "1", Src: Span(0, m), Elem: elem.I16, Op: elem.Sum, Level: IM})
			if err != nil {
				t.Fatal(err)
			}
			if got := cp.Results(); !bytes.Equal(got, want[0]) {
				t.Fatal("cluster Reduce result differs from flat communicator")
			}
		})
	}
}

// A multi-dimensional per-host hypercube works as long as Dims selects
// the whole host.
func TestCluster2DHosts(t *testing.T) {
	const H, P = 3, 16
	cl := sessionTestCluster(t, H, geoHost, []int{4, 4}, false)
	ranks := clusterRanks(t, cl, "11")
	m := 8 * P
	in := randGlobal(H*P, m, 9)
	for g, data := range in {
		cl.Host(g/P).SetPEBuffer(ranks[g/P][g%P], 0, data)
	}
	if _, err := cl.Run(ClusterCollective{Collective: Collective{
		Prim: AllReduce, Dims: "11", Src: Span(0, m), Dst: At(2 * m),
		Elem: elem.I32, Op: elem.Sum, Level: IM,
	}}); err != nil {
		t.Fatal(err)
	}
	want := RefAllReduce(elem.I32, elem.Sum, in)
	for g := 0; g < H*P; g++ {
		if !bytes.Equal(cl.Host(g/P).GetPEBuffer(ranks[g/P][g%P], 2*m, m), want[g]) {
			t.Fatalf("global rank %d mismatch", g)
		}
	}
}

// The Flat baseline must still be correct — it exists so benchmarks can
// price the naive lowering — while paying strictly more network time
// than the hierarchical schedule.
func TestClusterFlatBaselineAllReduce(t *testing.T) {
	const H, P = 4, 16
	// Large enough that wire bytes, not per-round latency, dominate: the
	// flat baseline ships P*m per non-root host where the ring ships
	// 2(H-1)/H * m.
	m := 4096
	run := func(flat bool) (cost.Breakdown, []byte) {
		cl := sessionTestCluster(t, H, geoHost, []int{P}, false)
		ranks := clusterRanks(t, cl, "1")
		in := randGlobal(H*P, m, 17)
		for g, data := range in {
			cl.Host(g/P).SetPEBuffer(ranks[g/P][g%P], 0, data)
		}
		bd, err := cl.Run(ClusterCollective{Collective: Collective{
			Prim: AllReduce, Dims: "1", Src: Span(0, m), Dst: At(2 * m),
			Elem: elem.I32, Op: elem.Sum, Level: IM,
		}, Flat: flat})
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for g := 0; g < H*P; g++ {
			all = append(all, cl.Host(g/P).GetPEBuffer(ranks[g/P][g%P], 2*m, m)...)
		}
		return bd, all
	}
	hierBD, hierBytes := run(false)
	flatBD, flatBytes := run(true)
	if !bytes.Equal(hierBytes, flatBytes) {
		t.Fatal("flat and hierarchical AllReduce disagree on result bytes")
	}
	if flatBD.Get(cost.Network) <= hierBD.Get(cost.Network) {
		t.Errorf("flat network time %v not above hierarchical %v",
			flatBD.Get(cost.Network), hierBD.Get(cost.Network))
	}
}

// Recompiling an equal descriptor returns a new plan on the same role
// rows and traces nothing, and the fused per-host schedules must report
// at least one cross-leg rewrite: the interior syncs between the lowered
// legs of one cluster collective are elided.
func TestClusterPlanCacheAndFusion(t *testing.T) {
	const H, P = 2, 16
	m := 8 * P
	cl := sessionTestCluster(t, H, geoHost, []int{P}, false)
	d := ClusterCollective{Collective: Collective{
		Prim: AllReduce, Dims: "1", Src: Span(0, m), Dst: At(2 * m),
		Elem: elem.I32, Op: elem.Sum, Level: IM,
	}}
	cp1, err := cl.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	misses := cl.Host(0).Snapshot().PlanCache.TraceMisses
	cp2, err := cl.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	if cp1 == cp2 || cp1.st == cp2.st {
		t.Error("recompiling an equal descriptor returned the first plan or its staging")
	}
	for h := 0; h < H; h++ {
		if cp1.HostPlan(h).planEntry != cp2.HostPlan(h).planEntry {
			t.Errorf("host %d: the recompile bound a row of its own", h)
		}
	}
	if got := cl.Host(0).Snapshot().PlanCache.TraceMisses; got != misses {
		t.Errorf("the recompile traced: TraceMisses %d -> %d", misses, got)
	}
	elided := 0
	for _, r := range cp1.FusionReports() {
		elided += r.SyncsElided
	}
	if elided < 1 {
		t.Errorf("fused cluster plan elided %d interior syncs, want >= 1", elided)
	}
	// The compiled plan replays: two runs accumulate on the meters.
	for i := 0; i < 2; i++ {
		if _, err := cp1.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if before := cl.Host(0).Snapshot().PlanCache; before.TraceMisses == 0 {
		t.Error("cluster host builds were never booked on the host")
	}

	// A caller's payload is its plan's global buffer, not part of a row:
	// a Broadcast of another payload binds the first one's rows, and each
	// plan reads its own payload.
	bcast := func(payload []byte) *ClusterPlan {
		bp, err := cl.Compile(ClusterCollective{Collective: Collective{
			Prim: Broadcast, Dims: "1", Dst: Span(0, 64), Level: IM, Hosts: [][]byte{payload}}})
		if err != nil {
			t.Fatal(err)
		}
		return bp
	}
	p1, p2 := bytes.Repeat([]byte{1}, 64), bytes.Repeat([]byte{2}, 64)
	bp1 := bcast(p1)
	misses = cl.Host(0).Snapshot().PlanCache.TraceMisses
	bp2 := bcast(p2)
	if got := cl.Host(0).Snapshot().PlanCache.TraceMisses; got != misses {
		t.Errorf("a Broadcast of another payload traced: TraceMisses %d -> %d", misses, got)
	}
	for h := 0; h < H; h++ {
		if bp1.HostPlan(h).planEntry != bp2.HostPlan(h).planEntry {
			t.Errorf("host %d: a Broadcast of another payload bound a row of its own", h)
		}
	}
	for _, run := range []struct {
		bp   *ClusterPlan
		want byte
	}{{bp1, 1}, {bp2, 2}, {bp1, 1}} {
		if _, err := run.bp.Run(); err != nil {
			t.Fatal(err)
		}
		if got := cl.s.Host(H-1).GetPEBuffer(0, 0, 64); !bytes.Equal(got, bytes.Repeat([]byte{run.want}, 64)) {
			t.Fatalf("Broadcast of payload %d wrote %v", run.want, got[:8])
		}
	}

	// The shape table is the only cache of a host plan: it holds every
	// role row it built.
	for h := 0; h < H; h++ {
		if st := cl.Host(h).Snapshot().PlanCache; st.CachedTraces == 0 || uint64(st.CachedTraces) != st.TraceMisses {
			t.Errorf("host %d: the table holds %d rows of %d built", h, st.CachedTraces, st.TraceMisses)
		}
	}
}

// Sessions are isolated: two sessions of one name compile equal
// descriptors into distinct plans with their own staging on the same role
// rows, and the second session traces nothing. Closing one shard stops its
// whole session — Compile, its plan's Run and Submit fail with
// ErrTenantClosed and charge no host — while the other session still
// compiles onto the rows and runs.
func TestClusterSessionsIsolated(t *testing.T) {
	const H, P = 2, 16
	m := 8 * P
	cl := testCluster(t, H, geoHost, []int{P}, false)
	d := ClusterCollective{Collective: Collective{
		Prim: AllReduce, Dims: "1", Src: Span(0, m), Dst: At(2 * m),
		Elem: elem.I32, Op: elem.Sum, Level: IM,
	}}
	session := func() (*ClusterTenant, *ClusterPlan) {
		s, err := cl.NewTenant(TenantConfig{Name: "shard", ArenaBytes: 4 * m})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := s.Compile(d)
		if err != nil {
			t.Fatal(err)
		}
		return s, cp
	}
	a, ap := session()
	misses := cl.Host(0).Snapshot().PlanCache.TraceMisses
	b, bp := session()
	if got := cl.Host(0).Snapshot().PlanCache.TraceMisses; got != misses {
		t.Errorf("the second session traced: TraceMisses %d -> %d", misses, got)
	}
	if ap == bp || ap.st == bp.st {
		t.Error("two sessions of the same name share a cluster plan or its staging")
	}
	for h := 0; h < H; h++ {
		if ap.HostPlan(h).planEntry != bp.HostPlan(h).planEntry {
			t.Errorf("host %d: the sessions bind different rows", h)
		}
	}
	if err := a.Host(0).Close(); err != nil {
		t.Fatal(err)
	}
	before := cl.Snapshot()
	if _, err := a.Compile(d); !errors.Is(err, ErrTenantClosed) {
		t.Errorf("Compile on a session with a closed shard: %v, want ErrTenantClosed", err)
	}
	if _, err := ap.Run(); !errors.Is(err, ErrTenantClosed) {
		t.Errorf("Run of the compiled plan: %v, want ErrTenantClosed", err)
	}
	if _, err := a.Submit(d); !errors.Is(err, ErrTenantClosed) {
		t.Errorf("Submit: %v, want ErrTenantClosed", err)
	}
	if err := ap.Submit().Err(); !errors.Is(err, ErrTenantClosed) {
		t.Errorf("Submit of the compiled plan: %v, want ErrTenantClosed", err)
	}
	for h, hs := range cl.Snapshot().Hosts {
		if hs.Meter != before.Hosts[h].Meter {
			t.Errorf("host %d charged by the closed session: %v -> %v", h, before.Hosts[h].Meter, hs.Meter)
		}
	}
	cp, err := b.Compile(d)
	if err != nil || cp.HostPlan(0).planEntry != bp.HostPlan(0).planEntry {
		t.Fatalf("the other session's recompile after the close missed the rows (%v)", err)
	}
	if _, err := cp.Run(); err != nil {
		t.Errorf("the other session's plan after the close: %v", err)
	}
}

// Satellite regression: the legacy cost-only cluster satisfied payload
// validation with a shared zero-scratch buffer that aliased across call
// sites. The descriptor form drops the buffer entirely — Hosts stays
// nil, the size rides on Dst.Bytes — and interleaved calls of different
// sizes must each price exactly like their functional twins.
func TestClusterCostOnlyNilHostPayloads(t *testing.T) {
	const H, P = 3, 16
	costCl := sessionTestCluster(t, H, geoHost, []int{P}, true)
	funcCl := sessionTestCluster(t, H, geoHost, []int{P}, false)

	type call struct {
		name string
		d    ClusterCollective
		n    int // payload bytes the functional twin needs
	}
	calls := []call{
		{"bcast128", ClusterCollective{Collective: Collective{
			Prim: Broadcast, Dims: "1", Dst: Span(0, 128), Level: IM}, Root: 1}, 128},
		{"scatter32", ClusterCollective{Collective: Collective{
			Prim: Scatter, Dims: "1", Dst: Span(512, 32), Level: IM}}, H * P * 32},
		{"bcast256", ClusterCollective{Collective: Collective{
			Prim: Broadcast, Dims: "1", Dst: Span(1024, 256), Level: IM}, Root: 2}, 256},
	}
	for _, c := range calls {
		got, err := costCl.Run(c.d)
		if err != nil {
			t.Fatalf("%s cost-only: %v", c.name, err)
		}
		fd := c.d
		fd.Hosts = [][]byte{make([]byte, c.n)}
		want, err := funcCl.Run(fd)
		if err != nil {
			t.Fatalf("%s functional: %v", c.name, err)
		}
		if want != got {
			t.Errorf("%s: cost-only breakdown %+v != functional %+v", c.name, got, want)
		}
	}
	if costCl.functional {
		t.Error("cost-only cluster claims to be functional")
	}
}

func TestClusterSubmit(t *testing.T) {
	const H, P = 2, 16
	cl := sessionTestCluster(t, H, geoHost, []int{P}, false)
	ranks := clusterRanks(t, cl, "1")
	s := 8
	in := randGlobal(H*P, s, 21)
	for g, data := range in {
		cl.Host(g/P).SetPEBuffer(ranks[g/P][g%P], 0, data)
	}
	cp, err := cl.Compile(ClusterCollective{Collective: Collective{
		Prim: Gather, Dims: "1", Src: Span(0, s), Level: IM,
	}})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := cl.Submit(ClusterCollective{Collective: Collective{
		Prim: Gather, Dims: "1", Src: Span(0, s), Level: IM,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if bd, err := fut.Wait(); err != nil {
		t.Fatal(err)
	} else if bd.Get(cost.Network) <= 0 {
		t.Error("submitted cluster gather charged no network time")
	}
	var want []byte
	for g := 0; g < H*P; g++ {
		want = append(want, in[g]...)
	}
	if got := fut.Results(); !bytes.Equal(got, want) {
		t.Fatal("submitted cluster gather returned wrong bytes")
	}
	// A second submission through the cached plan, drained by Flush.
	fut2 := cp.Submit()
	cl.Flush()
	if !fut2.Done() {
		t.Error("Flush returned before the submitted cluster plan completed")
	}
	if err := fut2.Err(); err != nil {
		t.Fatal(err)
	}
}

// Two sessions' cluster submissions complete whatever order each host's
// scheduler would pick them in: four local plans advance session a's WFQ
// virtual time on host 0 alone, so host 0 ranks b's cluster plan before
// a's while host 1 ranks a's first.
func TestClusterSubmitsCompleteInAnyPickOrder(t *testing.T) {
	const H, P, m = 2, 16, 1024
	cl := testCluster(t, H, geoHost, []int{P}, false)
	var ss [2]*ClusterTenant
	want := make([][]byte, len(ss))
	for i, name := range []string{"a", "b"} {
		s, err := cl.NewTenant(TenantConfig{Name: name, ArenaBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		ss[i], want[i] = s, make([]byte, m)
		elem.Fill(elem.I32, want[i], 0)
		for g, data := range randGlobal(H*P, m, int64(31+i)) {
			s.Host(g/P).SetPEBuffer(g%P, 0, data)
			elem.ReduceInto(elem.I32, elem.Sum, want[i], data)
		}
	}
	// Every plan is compiled first, so the six submissions land while
	// host 0 still runs the first.
	lp, err := ss[0].Host(0).Compile(Collective{Prim: AlltoAll, Dims: "1", Src: Span(0, 2048), Dst: At(2048), Level: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	var cps []*ClusterPlan
	for _, s := range ss {
		cp, err := s.Compile(ClusterCollective{Collective: Collective{Prim: AllReduce, Dims: "1", Src: Span(0, m), Dst: At(m),
			Elem: elem.I32, Op: elem.Sum, Level: IM}})
		if err != nil {
			t.Fatal(err)
		}
		cps = append(cps, cp)
	}
	err = within(t, "two sessions' cluster submissions", func() error {
		var locals []*Future
		for i := 0; i < 4; i++ {
			locals = append(locals, lp.Submit())
		}
		var errs []error
		for _, f := range []*ClusterFuture{cps[0].Submit(), cps[1].Submit()} {
			errs = append(errs, f.Err())
		}
		for _, f := range locals {
			errs = append(errs, f.Err())
		}
		return errors.Join(errs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ss {
		for h := 0; h < H; h++ {
			for pe := 0; pe < P; pe++ {
				if got := s.Host(h).GetPEBuffer(pe, m, m); !bytes.Equal(got, want[i]) {
					t.Fatalf("session %s, host %d PE %d: wrong AllReduce result", s.Name(), h, pe)
				}
			}
		}
	}
}

// A cluster Submit runs at submission on either backend, as Run does: it
// steps each host's queued local plans, runs on every host and returns
// complete, and the local plans queued after it wait for Step or Flush.
// Every functional and cost-only run ends with the same host Elapsed and
// shard meters, bit for bit, and every functional run with the same bytes
// in every PE's arena. In the overload rows, a session that sheds its
// oldest plan beyond one in flight submits the cluster plan while a local
// one fills its queue: the Submit is not refused, and the local plan runs,
// not shed.
func TestClusterSubmitRunsAtSubmission(t *testing.T) {
	const P, m = 16, 512
	overload := TenantConfig{MaxPending: 1, Shed: ShedOldest}
	rows := []struct {
		costOnly bool
		tc       TenantConfig
	}{
		{false, TenantConfig{}}, {true, TenantConfig{}},
		{false, overload}, {true, overload},
	}
	type outcome struct {
		elapsed []cost.Seconds
		meters  []cost.Breakdown
		arena   []byte
	}
	for _, H := range []int{2, 3} {
		t.Run(fmt.Sprintf("H%d", H), func(t *testing.T) {
			var want outcome
			for k, r := range rows {
				var cfg Config
				if r.costOnly {
					cfg.Backend = CostBackend()
				}
				cl, err := NewCluster(H, geoHost, []int{P}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				tc := r.tc
				tc.Name, tc.ArenaBytes = "s", 4*m
				s, err := cl.NewTenant(tc)
				if err != nil {
					t.Fatal(err)
				}
				if !r.costOnly {
					for g, data := range randGlobal(H*P, 4*m, 41) {
						s.Host(g/P).SetPEBuffer(g%P, 0, data)
					}
				}
				var locals []*Future
				local := func(src, dst int) {
					t.Helper()
					for h := 0; h < H; h++ {
						f, err := s.Host(h).Submit(Collective{Prim: AlltoAll, Dims: "1", Src: Span(src, m), Dst: At(dst), Level: CM})
						if err != nil {
							t.Fatal(err)
						}
						locals = append(locals, f)
					}
					if got := cl.Host(H - 1).Pending(); got != 1 {
						t.Fatalf("row %d: host %d has %d pending plans, want the local one queued", k, H-1, got)
					}
				}
				local(0, m)
				cf, err := s.Submit(ClusterCollective{Collective: Collective{Prim: AllReduce, Dims: "1",
					Src: Span(m, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: IM}})
				if err != nil {
					t.Fatal(err)
				}
				if !cf.Done() {
					t.Fatalf("row %d: a cluster submission returned before it ran", k)
				}
				if err := cf.Err(); err != nil {
					t.Fatalf("row %d: %v", k, err)
				}
				local(2*m, 3*m)
				if cl.Host(0).Step() == nil {
					t.Fatalf("row %d: host 0 had no local plan to step", k)
				}
				cl.Flush()
				for _, f := range locals {
					if err := f.Err(); err != nil {
						t.Fatalf("row %d: local plan: %v", k, err)
					}
				}
				var got outcome
				for h := 0; h < H; h++ {
					got.elapsed = append(got.elapsed, cl.Host(h).Elapsed())
					got.meters = append(got.meters, s.Host(h).Meter())
					for pe := 0; pe < P && !r.costOnly; pe++ {
						got.arena = append(got.arena, s.Host(h).GetPEBuffer(pe, 0, 4*m)...)
					}
				}
				if k == 0 {
					want = got
					continue
				}
				if !slices.Equal(got.elapsed, want.elapsed) || !slices.Equal(got.meters, want.meters) {
					t.Errorf("row %d %+v: host elapsed %v, meters %v; want %v, %v", k, r, got.elapsed, got.meters, want.elapsed, want.meters)
				}
				if !r.costOnly && !bytes.Equal(got.arena, want.arena) {
					t.Errorf("row %d %+v: the arenas differ from the serial functional run's", k, r)
				}
			}
		})
	}
}

func TestClusterValidation(t *testing.T) {
	for _, hosts := range []int{0, -1} {
		if _, err := NewCluster(hosts, geoHost, []int{16}, Config{}); err == nil {
			t.Errorf("cluster of %d hosts accepted", hosts)
		}
	}
	cl := sessionTestCluster(t, 2, geoHost, []int{4, 4}, false)
	ar := ClusterCollective{Collective: Collective{
		Prim: AllReduce, Dims: "10", Src: Span(0, 16), Dst: At(64),
		Elem: elem.I32, Op: elem.Sum, Level: IM,
	}}
	if _, err := cl.Run(ar); err == nil {
		t.Error("partial-host Dims accepted for a cluster collective")
	}
	bad := ClusterCollective{Collective: Collective{
		Prim: Gather, Dims: "11", Src: Span(0, 16), Level: IM,
	}, Root: 2}
	if _, err := cl.Run(bad); err == nil {
		t.Error("out-of-range root accepted")
	}
	bad.Root = -1
	if _, err := cl.Run(bad); err == nil {
		t.Error("negative root accepted")
	}
	flatAA := ClusterCollective{Collective: Collective{
		Prim: AlltoAll, Dims: "11", Src: Span(0, 2*16*8), Dst: At(1024), Level: IM,
	}, Flat: true}
	if _, err := cl.Run(flatAA); err == nil {
		t.Error("Flat lowering accepted for a non-AllReduce primitive")
	}
	noPayload := ClusterCollective{Collective: Collective{
		Prim: Broadcast, Dims: "11", Dst: Span(0, 64), Level: IM,
	}}
	if _, err := cl.Run(noPayload); err == nil {
		t.Error("functional cluster Broadcast without a payload accepted")
	}
	shortScatter := ClusterCollective{Collective: Collective{
		Prim: Scatter, Dims: "11", Dst: Span(0, 8), Level: IM,
		Hosts: [][]byte{make([]byte, 3)},
	}}
	if _, err := cl.Run(shortScatter); err == nil {
		t.Error("undersized Scatter payload accepted")
	}
	gatherHosts := ClusterCollective{Collective: Collective{
		Prim: Gather, Dims: "11", Src: Span(0, 8), Level: IM,
		Hosts: [][]byte{make([]byte, 2*16*8)},
	}}
	if _, err := cl.Run(gatherHosts); err == nil {
		t.Error("a cluster Gather bound Hosts (its result is the plan's staging)")
	}
}

// TestFailedClusterCompileCachesNothing: a descriptor the cluster rejects
// returns no plan — and with it no staging — and builds no row,
// and the error names the primitive once.
func TestFailedClusterCompileCachesNothing(t *testing.T) {
	cl := sessionTestCluster(t, 3, geoHost, []int{16}, false)
	for i := 0; i < 4; i++ {
		cp, err := cl.Compile(ClusterCollective{Collective: Collective{Prim: AllReduce, Dims: "1",
			Src: Span(i*1024, 1024), Dst: At(8192), Elem: elem.I32, Op: elem.Sum, Level: IM, Algorithm: AlgoRabenseifner}})
		if err == nil || cp != nil {
			t.Fatalf("cluster rsag AllReduce accepted: %v, %v", cp, err)
		}
		if n := strings.Count(err.Error(), "AllReduce"); n != 1 {
			t.Errorf("error names the primitive %d times: %v", n, err)
		}
	}
	if st := cl.Host(0).Snapshot().PlanCache; st.CachedTraces != 0 {
		t.Errorf("four rejected compiles built %d rows, want 0", st.CachedTraces)
	}
}

// runGlobal builds a functional cluster of 1-D hosts over geo, fills
// every PE's source region with seeded random bytes and runs d once.
func runGlobal(t *testing.T, hosts int, geo dram.Geometry, d ClusterCollective) cost.Breakdown {
	t.Helper()
	cl := sessionTestCluster(t, hosts, geo, []int{geo.NumPEs()}, false)
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, d.Src.Bytes)
	for h := 0; h < hosts; h++ {
		for pe := 0; pe < cl.PEsPerHost(); pe++ {
			rng.Read(buf)
			cl.Host(h).SetPEBuffer(pe, d.Src.Off, buf)
		}
	}
	bd, err := cl.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	return bd
}

// Figure 23(b) trends: network overhead grows with host count;
// AllReduce's network share is far smaller than AlltoAll's (reduced
// data crosses the wire); PID-Comm stays ahead of the baseline.
func TestClusterFigure23bTrends(t *testing.T) {
	// Sizes large enough that bandwidth terms dominate latency and launch
	// overheads (the regime of Figure 23(b): 2 MB per PE on real
	// hardware). 128 PEs per host on one channel approximates the paper's
	// 256-PE hosts' bus-share-per-PE regime.
	geo := dram.Geometry{Channels: 1, RanksPerChannel: 2, BanksPerChip: 8, MramPerBank: 1 << 19}
	P := geo.NumPEs()
	allReduce := func(hosts int) cost.Breakdown {
		m := P * 1024
		return runGlobal(t, hosts, geo, ClusterCollective{Collective: Collective{
			Prim: AllReduce, Dims: "1", Src: Span(0, m), Dst: At(2 * m),
			Elem: elem.I32, Op: elem.Sum, Level: CM}})
	}
	alltoAll := func(hosts int, lvl Level) cost.Breakdown {
		m := hosts * P * 512 // 512 B blocks per global PE
		return runGlobal(t, hosts, geo, ClusterCollective{Collective: Collective{
			Prim: AlltoAll, Dims: "1", Src: Span(0, m), Dst: At(2 * m), Level: lvl}})
	}
	ar2, ar4 := allReduce(2), allReduce(4)
	if !(ar4.Get(cost.Network) > ar2.Get(cost.Network)) {
		t.Error("AllReduce network time should grow with hosts")
	}
	if allReduce(1).Get(cost.Network) != 0 {
		t.Error("single host should have no network time")
	}
	aa2 := alltoAll(2, CM)
	arFrac := float64(ar2.Get(cost.Network)) / float64(ar2.Total())
	aaFrac := float64(aa2.Get(cost.Network)) / float64(aa2.Total())
	if aaFrac <= arFrac {
		t.Errorf("AlltoAll net fraction %.3f should exceed AllReduce's %.3f", aaFrac, arFrac)
	}
	if base := alltoAll(2, Baseline); base.Total() <= aa2.Total() {
		t.Errorf("baseline cluster AlltoAll (%v) should be slower than PID-Comm (%v)",
			base.Total(), aa2.Total())
	}
}

// § IX-A trend: ReduceScatter sends data after reduction, so its network
// time stays far below an AlltoAll's of the same payload.
func TestClusterReducedTrafficTrends(t *testing.T) {
	const H, P, blk = 2, 16, 64
	m := H * P * blk
	rs := runGlobal(t, H, geoHost, ClusterCollective{Collective: Collective{
		Prim: ReduceScatter, Dims: "1", Src: Span(0, m), Dst: At(2 * m),
		Elem: elem.I32, Op: elem.Sum, Level: IM}})
	aa := runGlobal(t, H, geoHost, ClusterCollective{Collective: Collective{
		Prim: AlltoAll, Dims: "1", Src: Span(0, m), Dst: At(2 * m), Level: CM}})
	if rs.Get(cost.Network) >= aa.Get(cost.Network) {
		t.Errorf("RS network time %v should be below AlltoAll's %v",
			rs.Get(cost.Network), aa.Get(cost.Network))
	}
}

// The cluster's breakdown is the slowest host's: with host 0 alone doing
// work, it equals host 0's meter.
func TestClusterBreakdownTakesSlowestHost(t *testing.T) {
	const P = 16
	cl := testCluster(t, 2, geoHost, []int{P}, false)
	m := P * 8
	ten, err := cl.Host(0).NewTenant(TenantConfig{Name: "busy", ArenaBytes: 3 * m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ten.Run(Collective{Prim: AlltoAll, Dims: "1",
		Src: Span(0, m), Dst: At(2 * m), Level: CM}); err != nil {
		t.Fatal(err)
	}
	s := cl.Snapshot()
	if s.Meter != ten.Meter() || s.Meter.Total() == 0 || s.Meter != s.Hosts[0].Meter {
		t.Errorf("cluster meter %v should equal the busiest host's %v", s.Meter, ten.Meter())
	}
	if s.Elapsed != cl.Host(0).Elapsed() || s.Hosts[1].Elapsed != 0 {
		t.Errorf("cluster elapsed %v should be the busiest host's %v", s.Elapsed, cl.Host(0).Elapsed())
	}
}

// TestClusterWireLegs pins every cluster lowering's wire charge against
// the § IX-A closed forms, written out here as the test's own table:
// per host, cost.Network of the compiled plan must equal the sum over
// the lowering's network legs of rounds × RoundTime(bytes). The
// differential tests (cost-only == functional, cluster == flat comm)
// hold for a wrong round or byte count on both sides; this one does not.
func TestClusterWireLegs(t *testing.T) {
	const P, s = 16, 8
	const m = 8 * P * 30 // a reduced payload every tested H divides
	net := cost.DefaultParams().Net
	log2 := func(h int) int { // ceil(log2 h)
		r := 0
		for 1<<r < h {
			r++
		}
		return r
	}
	// rootedRounds: the root serves every other host, the others move
	// their one portion.
	rootedRounds := func(H int, root bool) int {
		if root {
			return H - 1
		}
		return 1
	}
	ring := func(H int) cost.Seconds { return cost.Seconds(2*(H-1)) * net.RoundTime(int64(m/H)) }
	tree := func(H int) cost.Seconds { return cost.Seconds(2*log2(H)) * net.RoundTime(int64(m)) }
	reduceD := func(p Primitive, bytes int, dst bool) Collective {
		c := Collective{Prim: p, Dims: "1", Src: Span(0, bytes), Elem: elem.I32, Op: elem.Sum, Level: IM}
		if dst {
			c.Dst = At(8192)
		}
		return c
	}
	cases := []struct {
		name   string
		rooted bool // the wire charge depends on whether the host is the root
		d      func(H int) ClusterCollective
		want   func(H int, root bool) cost.Seconds
	}{
		{"AlltoAll", false, // H-1 rounds of one host's P×P blocks
			func(H int) ClusterCollective {
				return ClusterCollective{Collective: Collective{Prim: AlltoAll, Dims: "1",
					Src: Span(0, H*P*s), Dst: At(8192), Level: IM}}
			},
			func(H int, _ bool) cost.Seconds { return cost.Seconds(H-1) * net.RoundTime(P*P*s) }},
		{"ReduceScatter", false, // H-1 rounds of one host's reduced P blocks
			func(H int) ClusterCollective {
				return ClusterCollective{Collective: reduceD(ReduceScatter, H*P*s, true)}
			},
			func(H int, _ bool) cost.Seconds { return cost.Seconds(H-1) * net.RoundTime(P*s) }},
		{"AllReduce/auto", false, // the cheaper of ring and tree, ring on a tie
			func(H int) ClusterCollective { return ClusterCollective{Collective: reduceD(AllReduce, m, true)} },
			func(H int, _ bool) cost.Seconds {
				if tree(H) < ring(H) {
					return tree(H)
				}
				return ring(H)
			}},
		{"AllReduce/ring", false, // 2(H-1) rounds of a 1/H portion
			func(H int) ClusterCollective {
				d := reduceD(AllReduce, m, true)
				d.Algorithm = AlgoRing
				return ClusterCollective{Collective: d}
			},
			func(H int, _ bool) cost.Seconds { return ring(H) }},
		{"AllReduce/tree", false, // 2⌈log2 H⌉ rounds of the whole reduced buffer
			func(H int) ClusterCollective {
				d := reduceD(AllReduce, m, true)
				d.Algorithm = AlgoTree
				return ClusterCollective{Collective: d}
			},
			func(H int, _ bool) cost.Seconds { return tree(H) }},
		{"AllGather", false, // H-1 rounds of one host's P contributions
			func(H int) ClusterCollective {
				return ClusterCollective{Collective: Collective{Prim: AllGather, Dims: "1",
					Src: Span(0, s), Dst: At(8192), Level: IM}}
			},
			func(H int, _ bool) cost.Seconds { return cost.Seconds(H-1) * net.RoundTime(P*s) }},
		{"Scatter", true, // one host's P blocks per round
			func(H int) ClusterCollective {
				return ClusterCollective{Collective: Collective{Prim: Scatter, Dims: "1", Dst: Span(0, s), Level: IM}}
			},
			func(H int, root bool) cost.Seconds {
				return cost.Seconds(rootedRounds(H, root)) * net.RoundTime(P*s)
			}},
		{"Gather", true, // one host's P contributions per round
			func(H int) ClusterCollective {
				return ClusterCollective{Collective: Collective{Prim: Gather, Dims: "1", Src: Span(0, s), Level: IM}}
			},
			func(H int, root bool) cost.Seconds {
				return cost.Seconds(rootedRounds(H, root)) * net.RoundTime(P*s)
			}},
		{"Reduce", true, // one reduced copy per round
			func(H int) ClusterCollective { return ClusterCollective{Collective: reduceD(Reduce, m, false)} },
			func(H int, root bool) cost.Seconds {
				return cost.Seconds(rootedRounds(H, root)) * net.RoundTime(m)
			}},
		{"Broadcast", false, // binomial fan-out of the whole payload
			func(H int) ClusterCollective {
				return ClusterCollective{Collective: Collective{Prim: Broadcast, Dims: "1", Dst: Span(0, 256), Level: IM}}
			},
			func(H int, _ bool) cost.Seconds { return cost.Seconds(log2(H)) * net.RoundTime(256) }},
		{"Flat", true, // P raw buffers per host to the root, then a fan-out of the result
			func(H int) ClusterCollective {
				return ClusterCollective{Collective: reduceD(AllReduce, m, true), Flat: true}
			},
			func(H int, root bool) cost.Seconds {
				var w cost.Seconds // a zero-round leg charges nothing, not 0 × RoundTime
				if r := rootedRounds(H, root); r > 0 {
					w += cost.Seconds(r) * net.RoundTime(P*m)
				}
				if r := log2(H); r > 0 {
					w += cost.Seconds(r) * net.RoundTime(m)
				}
				return w
			}},
	}
	for _, H := range []int{1, 2, 3, 5} {
		cl := sessionTestCluster(t, H, geoHost, []int{P}, true)
		for _, c := range cases {
			for _, root := range []int{0, H - 1} {
				d := c.d(H)
				d.Root = root
				cp, err := cl.Compile(d)
				if err != nil {
					t.Fatalf("H=%d %s root=%d: %v", H, c.name, root, err)
				}
				for h := 0; h < H; h++ {
					got := cp.HostPlan(h).Cost().Get(cost.Network)
					if want := c.want(H, h == root); got != want {
						t.Errorf("H=%d %s root=%d host %d: network %v, want %v", H, c.name, root, h, got, want)
					}
				}
				// Root and non-root hosts differ exactly where the forms
				// say: a rooted wire on more than two hosts (at H = 2 the
				// root's H-1 rounds are the non-root's one).
				if other := (root + 1) % H; other != root {
					rootNet := cp.HostPlan(root).Cost().Get(cost.Network)
					otherNet := cp.HostPlan(other).Cost().Get(cost.Network)
					if differ := rootNet != otherNet; differ != (c.rooted && H > 2) {
						t.Errorf("H=%d %s root=%d: root %v vs non-root %v, differ=%v want %v",
							H, c.name, root, rootNet, otherNet, differ, c.rooted && H > 2)
					}
				}
			}
		}
	}
}

// TestConcurrentCompilesShareOneTable drives every compile-side entry of
// a cluster's one shape table from four goroutines at once: Auto-level
// compiles on the shards of a session that another goroutine closes and
// re-creates every round, cluster compiles on a long-lived and on that
// churning session, SetAutoObjective flips, and snapshots of both hosts.
// Every compile succeeds or fails with ErrTenantClosed, and afterwards
// each descriptor costs what it costs on a fresh cluster.
func TestConcurrentCompilesShareOneTable(t *testing.T) {
	const H, rounds, m = 2, 50, 256
	shape := []int{4, 4}
	local := []Collective{
		{Prim: AllReduce, Dims: "10", Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum},
		{Prim: AlltoAll, Dims: "01", Src: Span(4*m, m), Dst: At(6 * m)},
	}
	global := []ClusterCollective{
		{Collective: Collective{Prim: AllReduce, Dims: "11", Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: IM}},
		{Collective: Collective{Prim: AlltoAll, Dims: "11", Src: Span(0, m), Dst: At(2 * m), Level: CM}},
	}
	cfg := TenantConfig{ArenaBytes: 8 * m}
	newSession := func(cl *Cluster) *ClusterTenant {
		s, err := cl.NewTenant(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cl := testCluster(t, H, geoHost, shape, true)
	whole := newSession(cl)
	var churn atomic.Pointer[ClusterTenant]
	churn.Store(newSession(cl))

	errs := make(chan error, 4*rounds*H*len(local))
	closedOK := func(err error) {
		if err != nil && !errors.Is(err, ErrTenantClosed) {
			errs <- err
		}
	}
	var wg sync.WaitGroup
	for _, work := range []func(r int){
		func(int) {
			s := churn.Load()
			for h := 0; h < H; h++ {
				for _, d := range local {
					_, err := s.Host(h).Compile(d)
					closedOK(err)
				}
			}
		},
		func(int) {
			_, err := whole.Compile(global[0])
			closedOK(err)
			s := churn.Load()
			_, err = s.Compile(global[1])
			closedOK(err)
			closedOK(s.Close())
			churn.Store(newSession(cl))
		},
		func(r int) { cl.Host(r % H).SetAutoObjective(AutoObjective(r % 2)) },
		func(int) {
			for h := 0; h < H; h++ {
				cl.Host(h).Snapshot()
			}
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				work(r)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	fresh := testCluster(t, H, geoHost, shape, true)
	freshS := newSession(fresh)
	cl.Host(0).SetAutoObjective(AutoMeter)
	for h := 0; h < H; h++ {
		for _, d := range local {
			got, err := churn.Load().Host(h).Compile(d)
			if err != nil {
				t.Fatal(err)
			}
			want, err := freshS.Host(h).Compile(d)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost() != want.Cost() || got.Level() != want.Level() || got.Algorithm() != want.Algorithm() {
				t.Errorf("host %d %v: (%v, %v) costs %v, a fresh cluster's (%v, %v) %v",
					h, d.Prim, got.Algorithm(), got.Level(), got.Cost(), want.Algorithm(), want.Level(), want.Cost())
			}
		}
	}
	for i, s := range []*ClusterTenant{whole, churn.Load()} {
		got, err := s.Compile(global[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshS.Compile(global[i])
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost() != want.Cost() {
			t.Errorf("cluster %v costs %v, on a fresh cluster %v", global[i].Prim, got.Cost(), want.Cost())
		}
	}
}

// A cluster submission runs on every host or on none, also when one of its
// shards closes while the submission waits for that host's queue to drain:
// host 1 is held busy (its execMu taken, MaxPendingPlans local plans
// queued), the cluster Submit's Flush of host 1 before the run (on either
// backend: a cluster Submit is a Run) picks the first local plan and
// blocks on the held lock, and the session's shard on host 1 closes. The
// future must succeed with equal shard meters or fail with neither shard
// charged, and it must complete.
func TestClusterCloseDuringSubmitIsAllOrNothing(t *testing.T) {
	const H, P = 2, 16
	const m = 8 * H * P
	for _, costOnly := range []bool{true, false} {
		t.Run(map[bool]string{true: "cost", false: "functional"}[costOnly], func(t *testing.T) {
			cl := testCluster(t, H, geoHost, []int{P}, costOnly)
			s, err := cl.NewTenant(TenantConfig{Name: "s", ArenaBytes: 1024})
			if err != nil {
				t.Fatal(err)
			}
			cp, err := s.Compile(ClusterCollective{Collective: Collective{
				Prim: AllReduce, Dims: "1", Src: Span(0, m), Dst: At(2 * m),
				Elem: elem.I32, Op: elem.Sum, Level: Baseline,
			}})
			if err != nil {
				t.Fatal(err)
			}
			h1 := cl.Host(1)
			local, err := h1.NewTenant(TenantConfig{Name: "local", ArenaBytes: 1024})
			if err != nil {
				t.Fatal(err)
			}
			lp, err := local.Compile(servingCollective)
			if err != nil {
				t.Fatal(err)
			}
			h1.execMu.Lock()
			held := true
			defer func() {
				if held {
					h1.execMu.Unlock()
				}
			}()
			for i := 0; i < MaxPendingPlans; i++ {
				lp.Submit()
			}
			submitted := make(chan *ClusterFuture, 1)
			go func() { submitted <- cp.Submit() }()
			pollLocked(t, h1, "the cluster submission drains host 1", func() bool { return len(local.sq.q) == MaxPendingPlans-1 })
			closed := make(chan error, 1)
			go func() { closed <- s.Host(1).Close() }()
			// A close that does not wait for the submission sets its flag
			// at once; give it about 100 ms before host 1 drains.
			for deadline := time.Now().Add(100 * time.Millisecond); !s.Host(1).Closed() && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			h1.execMu.Unlock()
			held = false

			cf := <-submitted
			errc := make(chan error, 1)
			go func() { errc <- cf.Err() }()
			select {
			case err = <-errc:
			case <-time.After(5 * time.Second):
				t.Fatal("the cluster future did not complete within 5 s: a host waits for a peer that never runs")
			}
			m0, m1 := s.Host(0).meter.Snapshot(), s.Host(1).meter.Snapshot()
			switch {
			case err == nil && m0 != m1:
				t.Errorf("the submission succeeded with unequal shard meters: host 0 %v, host 1 %v", m0, m1)
			case err == nil && m0.Total() == 0:
				t.Error("the submission succeeded but charged no shard")
			case err != nil && (m0.Total() != 0 || m1.Total() != 0):
				t.Errorf("the submission failed (%v) but charged host 0 %v and host 1 %v", err, m0.Total(), m1.Total())
			}
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
		})
	}
}
