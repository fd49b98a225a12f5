package fuzz

import (
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
// inputs, and — after each functional call — the same descriptor
// submitted on a cost-only twin cluster, whose breakdown must match
// bit-for-bit, as every host's Elapsed must at the end.
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
		Typ:   elem.Types()[rng.Intn(len(elem.Types()))],
		Op:    elem.Ops()[rng.Intn(len(elem.Ops()))],
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

// Check runs every row of checks but the in-place one on the single
// group of all H·P global ranks, byte-compares the functional cluster
// against the reference model, and requires the cost-only twin's
// breakdown to equal the functional one exactly on every call, and every
// twin host's Elapsed to equal the functional host's at the end.
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

	// Global rank g is PE pes[g/P][g%P] of host g/P: rank g%P of the
	// host's whole-dims group.
	pes := make([][]int, H)
	all := make([]int, 0, H*P)
	for h := range pes {
		groups, err := fn.Host(h).Hypercube().Groups(dims)
		if err != nil {
			return err
		}
		pes[h] = groups[0]
		for j := range pes[h] {
			all = append(all, h*P+j)
		}
	}
	root := 0
	r := ranks{groups: [][]int{all},
		set: func(g, off int, b []byte) { fn.s.Host(g/P).SetPEBuffer(pes[g/P][g%P], off, b) },
		get: func(g, off, n int) []byte { return fn.s.Host(g/P).GetPEBuffer(pes[g/P][g%P], off, n) },
		// run runs d on the functional cluster, then submits its
		// payload-free twin on the cost-only cluster (a cluster Submit
		// completes at submission, as Run does), and diffs the breakdowns.
		// A cluster Gather or Reduce takes no Hosts: its result, the plan's
		// staging, is copied into the ones d brings.
		run: func(d core.Collective) ([][]byte, error) {
			var out [][]byte
			if d.Dst == (core.Region{}) {
				out, d.Hosts = d.Hosts, nil
			}
			cd := core.ClusterCollective{Collective: d, Root: root}
			cp, err := fn.s.Compile(cd)
			if err != nil {
				return nil, err
			}
			want, err := cp.Run()
			if err != nil {
				return nil, err
			}
			cd.Hosts = nil
			cf, err := co.s.Submit(cd)
			if err == nil {
				err = cf.Err()
			}
			if err != nil {
				return nil, fmt.Errorf("cost-only: %w", err)
			}
			if got, _ := cf.Wait(); want != got {
				return nil, fmt.Errorf("cost-only breakdown %+v != functional %+v", got, want)
			}
			res := cp.Results() // the plan's staging, which its next run overwrites
			if out != nil {
				copy(out[0], res)
			}
			return [][]byte{res}, nil
		}}
	for _, k := range checks {
		if k.inPlace {
			continue
		}
		root = rng.Intn(H)
		d := core.Collective{Dims: dims, Elem: sc.Typ, Op: sc.Op, Level: sc.Lvl}
		if err := k.verify(rng, r, d, sc.S); err != nil {
			return fmt.Errorf("cluster %w (%+v)", err, sc)
		}
	}
	for h := 0; h < H; h++ {
		if err := inSession(fn.Host(h), co.Host(h)); err != nil {
			return fmt.Errorf("cluster host %d: %w (%+v)", h, err, sc)
		}
		if want, got := fn.Host(h).Elapsed(), co.Host(h).Elapsed(); want != got {
			return fmt.Errorf("cluster host %d: cost-only Elapsed %v != functional %v (%+v)", h, got, want, sc)
		}
	}
	return nil
}
