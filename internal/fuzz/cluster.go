package fuzz

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/elem"
)

// ClusterScenario is one randomized cluster differential-test
// configuration: H identical hosts of the geometry joined by
// core.NewCluster, every global collective run over whole-host Dims and
// compared against the reference model on global-rank-concatenated
// inputs, and — after each functional call — the same descriptor run on
// a cost-only twin cluster, whose breakdown must match bit-for-bit.
// The functional cluster runs every collective in a session carved behind
// a pad session, so its bytes move at a nonzero arena base; the twin runs
// it in its whole-cluster session (base 0), so the equal breakdowns also
// show that a cluster plan's charges do not depend on its session's base.
type ClusterScenario struct {
	Geo   dram.Geometry
	Shape []int
	Hosts int
	S     int // block bytes
	Lvl   core.Level
	Typ   elem.Type
	Op    elem.Op
}

// RandomCluster draws a cluster scenario: 1-4 hosts (non-power-of-two
// counts included), 1-D and 2-D per-host shapes, integer element types
// so hierarchical regrouping stays bit-exact.
func RandomCluster(rng *rand.Rand) ClusterScenario {
	geos := []dram.Geometry{
		{Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 14}, // 16 PEs
		{Channels: 3, RanksPerChannel: 1, BanksPerChip: 1, MramPerBank: 1 << 14}, // 24 PEs
	}
	geo := geos[rng.Intn(len(geos))]
	shapes := map[int][][]int{
		16: {{16}, {4, 4}, {2, 8}},
		24: {{24}, {8, 3}, {4, 6}},
	}
	opts := shapes[geo.NumPEs()]
	levels := core.Levels()
	return ClusterScenario{
		Geo:   geo,
		Shape: opts[rng.Intn(len(opts))],
		Hosts: 1 + rng.Intn(4),
		S:     8 * (1 + rng.Intn(3)),
		Lvl:   levels[rng.Intn(len(levels))],
		Typ:   elem.Types()[rng.Intn(4)],
		Op:    elem.Ops()[rng.Intn(6)],
	}
}

// clusterPad is the arena of the pad session the functional cluster's
// session is carved behind.
const clusterPad = 1 << 10

// cluster is a cluster of the scenario and the session its collectives
// compile on.
type cluster struct {
	*core.Cluster
	s *core.ClusterTenant
}

// mkCluster builds a functional cluster on a session behind a clusterPad
// pad, or a cost-only one on its whole-cluster session.
func (sc ClusterScenario) mkCluster(costOnly bool) (cluster, error) {
	var cfg core.Config
	if costOnly {
		cfg.Backend = core.CostBackend()
	}
	cl, err := core.NewCluster(sc.Hosts, sc.Geo, sc.Shape, cfg)
	if err != nil {
		return cluster{}, err
	}
	if costOnly {
		s, err := cl.Session()
		return cluster{cl, s}, err
	}
	if _, err := cl.NewTenant(core.TenantConfig{Name: "pad", ArenaBytes: clusterPad}); err != nil {
		return cluster{}, err
	}
	s, err := cl.NewTenant(core.TenantConfig{ArenaBytes: sc.Geo.MramPerBank - clusterPad})
	return cluster{cl, s}, err
}

// Check runs every cluster primitive under the scenario, byte-compares
// the functional cluster against the reference model on global ranks,
// and requires the cost-only twin's breakdown to equal the functional
// one exactly on every call.
func (sc ClusterScenario) Check(rng *rand.Rand) error {
	dims := strings.Repeat("1", len(sc.Shape))
	fn, err := sc.mkCluster(false)
	if err != nil {
		return err
	}
	co, err := sc.mkCluster(true)
	if err != nil {
		return err
	}
	H, P := sc.Hosts, sc.Geo.NumPEs()
	G := H * P

	// ranks[h][j] is the PE holding global rank h*P+j.
	ranks := make([][]int, H)
	for h := range ranks {
		groups, err := fn.Host(h).Hypercube().Groups(dims)
		if err != nil {
			return err
		}
		ranks[h] = groups[0]
	}
	seed := func(off, n int) [][]byte {
		in := make([][]byte, G)
		for g := range in {
			in[g] = make([]byte, n)
			rng.Read(in[g])
			fn.s.Host(g/P).SetPEBuffer(ranks[g/P][g%P], off, in[g])
		}
		return in
	}
	// both runs d on the functional cluster and its payload-free twin on
	// the cost-only cluster and diffs the breakdowns.
	both := func(name string, d core.ClusterCollective) error {
		want, err := fn.s.Run(d)
		if err != nil {
			return fmt.Errorf("cluster %s: %w", name, err)
		}
		cd := d
		cd.Hosts = nil
		got, err := co.s.Run(cd)
		if err != nil {
			return fmt.Errorf("cost-only cluster %s: %w", name, err)
		}
		if want != got {
			return fmt.Errorf("cluster %s: cost-only breakdown %+v != functional %+v (%+v)", name, got, want, sc)
		}
		return nil
	}
	peAt := func(g, off, n int) []byte {
		return fn.s.Host(g/P).GetPEBuffer(ranks[g/P][g%P], off, n)
	}

	// AllReduce: m/P = S*H stays 8-byte aligned for the local leg.
	m := sc.S * G
	in := seed(0, m)
	if err := both("AllReduce", core.ClusterCollective{Collective: core.Collective{
		Prim: core.AllReduce, Dims: dims, Src: core.Span(0, m), Dst: core.At(2 * m),
		Elem: sc.Typ, Op: sc.Op, Level: sc.Lvl,
	}}); err != nil {
		return err
	}
	want := core.RefAllReduce(sc.Typ, sc.Op, in)
	for g := 0; g < G; g++ {
		if !bytes.Equal(peAt(g, 2*m, m), want[g]) {
			return fmt.Errorf("cluster AllReduce diverges at global rank %d (%+v)", g, sc)
		}
	}

	// ReduceScatter: G blocks of S per PE, block g lands on global rank g.
	in = seed(0, m)
	if err := both("ReduceScatter", core.ClusterCollective{Collective: core.Collective{
		Prim: core.ReduceScatter, Dims: dims, Src: core.Span(0, m), Dst: core.At(2 * m),
		Elem: sc.Typ, Op: sc.Op, Level: sc.Lvl,
	}}); err != nil {
		return err
	}
	wantRS := core.RefReduceScatter(sc.Typ, sc.Op, in, sc.S)
	for g := 0; g < G; g++ {
		if !bytes.Equal(peAt(g, 2*m, sc.S), wantRS[g]) {
			return fmt.Errorf("cluster ReduceScatter diverges at global rank %d (%+v)", g, sc)
		}
	}

	// AllGather: S per PE in, G*S concatenation out everywhere.
	in = seed(0, sc.S)
	if err := both("AllGather", core.ClusterCollective{Collective: core.Collective{
		Prim: core.AllGather, Dims: dims, Src: core.Span(0, sc.S), Dst: core.At(2 * m), Level: sc.Lvl,
	}}); err != nil {
		return err
	}
	wantAG := core.RefAllGather(in)
	for g := 0; g < G; g++ {
		if !bytes.Equal(peAt(g, 2*m, G*sc.S), wantAG[g]) {
			return fmt.Errorf("cluster AllGather diverges at global rank %d (%+v)", g, sc)
		}
	}

	// AlltoAll: block q of global rank p becomes block p of global rank q.
	in = seed(0, m)
	if err := both("AlltoAll", core.ClusterCollective{Collective: core.Collective{
		Prim: core.AlltoAll, Dims: dims, Src: core.Span(0, m), Dst: core.At(2 * m), Level: sc.Lvl,
	}}); err != nil {
		return err
	}
	wantAA := core.RefAlltoAll(in, sc.S)
	for g := 0; g < G; g++ {
		if !bytes.Equal(peAt(g, 2*m, m), wantAA[g]) {
			return fmt.Errorf("cluster AlltoAll diverges at global rank %d (%+v)", g, sc)
		}
	}

	// Broadcast from a random root host; the cost-only twin prices it
	// with a nil payload (size rides on Dst.Bytes).
	n := 8 * (1 + rng.Intn(25))
	payload := make([]byte, n)
	rng.Read(payload)
	if err := both("Broadcast", core.ClusterCollective{Collective: core.Collective{
		Prim: core.Broadcast, Dims: dims, Dst: core.Span(0, n), Level: sc.Lvl,
		Hosts: [][]byte{payload},
	}, Root: rng.Intn(H)}); err != nil {
		return err
	}
	for g := 0; g < G; g++ {
		if !bytes.Equal(peAt(g, 0, n), payload) {
			return fmt.Errorf("cluster Broadcast diverges at global rank %d (%+v)", g, sc)
		}
	}

	// Scatter: block g of the root's buffer lands on global rank g.
	buf := make([]byte, G*sc.S)
	rng.Read(buf)
	if err := both("Scatter", core.ClusterCollective{Collective: core.Collective{
		Prim: core.Scatter, Dims: dims, Dst: core.Span(0, sc.S), Level: sc.Lvl,
		Hosts: [][]byte{buf},
	}, Root: rng.Intn(H)}); err != nil {
		return err
	}
	for g := 0; g < G; g++ {
		if !bytes.Equal(peAt(g, 0, sc.S), buf[g*sc.S:(g+1)*sc.S]) {
			return fmt.Errorf("cluster Scatter diverges at global rank %d (%+v)", g, sc)
		}
	}

	// Gather and Reduce: rooted results come off the compiled plan.
	in = seed(0, m)
	rooted := func(name string, d core.ClusterCollective, want []byte) error {
		cp, err := fn.s.Compile(d)
		if err != nil {
			return fmt.Errorf("cluster %s: %w", name, err)
		}
		wantBD, err := cp.Run()
		if err != nil {
			return fmt.Errorf("cluster %s: %w", name, err)
		}
		if got := cp.Results(); !bytes.Equal(got, want) {
			return fmt.Errorf("cluster %s diverges from reference (%+v)", name, sc)
		}
		gotBD, err := co.s.Run(d)
		if err != nil {
			return fmt.Errorf("cost-only cluster %s: %w", name, err)
		}
		if wantBD != gotBD {
			return fmt.Errorf("cluster %s: cost-only breakdown %+v != functional %+v (%+v)", name, gotBD, wantBD, sc)
		}
		return nil
	}
	heads := make([][]byte, G)
	for g := range heads {
		heads[g] = in[g][:sc.S]
	}
	if err := rooted("Gather", core.ClusterCollective{Collective: core.Collective{
		Prim: core.Gather, Dims: dims, Src: core.Span(0, sc.S), Level: sc.Lvl,
	}, Root: rng.Intn(H)}, core.RefGather(heads)); err != nil {
		return err
	}
	if err := rooted("Reduce", core.ClusterCollective{Collective: core.Collective{
		Prim: core.Reduce, Dims: dims, Src: core.Span(0, m),
		Elem: sc.Typ, Op: sc.Op, Level: sc.Lvl,
	}, Root: rng.Intn(H)}, core.RefReduce(sc.Typ, sc.Op, in)); err != nil {
		return err
	}
	for h := 0; h < H; h++ {
		if err := inSession(fn.Host(h), co.Host(h)); err != nil {
			return fmt.Errorf("cluster host %d: %w (%+v)", h, err, sc)
		}
	}
	return nil
}
