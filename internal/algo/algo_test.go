package algo_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/elem"
)

// The differential suite of core's algorithm table: every alternative
// row must produce byte-identical results to the reference lowering on
// the functional backend, across hypercube shapes (including
// non-power-of-two and strided groups), element types, operators and
// payload sizes. The directory holds only this external test — the
// lowerings themselves are rows of internal/core (algorithm.go,
// lowering.go) — and stays a package of its own so the suite keeps the
// test names it has always run under.

var (
	geo64 = dram.Geometry{Channels: 1, RanksPerChannel: 2, BanksPerChip: 4, MramPerBank: 1 << 14} // 64 PEs
	geo24 = dram.Geometry{Channels: 3, RanksPerChannel: 1, BanksPerChip: 1, MramPerBank: 1 << 14} // 24 PEs
)

type caseSpec struct {
	name  string
	geo   dram.Geometry
	shape []int
	dims  string
}

var cases = []caseSpec{
	{"1D-full", geo64, []int{64}, "1"},
	{"2D-x", geo64, []int{8, 8}, "10"},
	{"2D-xy", geo64, []int{8, 8}, "11"},
	{"2D-subEG-y", geo64, []int{4, 16}, "01"},
	{"3D-xz", geo64, []int{4, 2, 8}, "101"},
	{"nonpow2-y", geo24, []int{8, 3}, "01"},
	{"nonpow2-strided", geo24, []int{4, 6}, "01"},
}

// newComm builds a functional machine and its whole-MRAM session, whose
// regions are the machine's absolute offsets.
func newComm(t *testing.T, geo dram.Geometry, shape []int) (*core.Comm, *core.Tenant) {
	t.Helper()
	c, err := core.New(geo, shape, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

func fillSrc(c *core.Comm, off, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	numPE := c.Hypercube().System().Geometry().NumPEs()
	buf := make([]byte, n)
	for pe := 0; pe < numPE; pe++ {
		rng.Read(buf)
		c.SetPEBuffer(pe, off, buf)
	}
}

func snapshot(c *core.Comm, off, n int) [][]byte {
	numPE := c.Hypercube().System().Geometry().NumPEs()
	out := make([][]byte, numPE)
	for pe := 0; pe < numPE; pe++ {
		out[pe] = append([]byte(nil), c.GetPEBuffer(pe, off, n)...)
	}
	return out
}

func alternatives(prim core.Primitive) []core.Algorithm {
	return core.RegisteredAlgorithms(prim)[1:] // drop AlgoReference
}

// TestRegistrySeeded pins the table's order: the rows of a primitive in
// Algorithm order, reference first, and every name parsing back.
func TestRegistrySeeded(t *testing.T) {
	want := []core.Algorithm{core.AlgoReference, core.AlgoRing, core.AlgoTree, core.AlgoRabenseifner}
	if fmt.Sprint(core.Algorithms()) != fmt.Sprint(want) {
		t.Fatalf("Algorithms() = %v, want %v", core.Algorithms(), want)
	}
	got := core.RegisteredAlgorithms(core.AllReduce)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("AllReduce algorithms = %v, want %v", got, want)
	}
	wantB := []core.Algorithm{core.AlgoReference, core.AlgoRing, core.AlgoTree}
	if got := core.RegisteredAlgorithms(core.Broadcast); fmt.Sprint(got) != fmt.Sprint(wantB) {
		t.Fatalf("Broadcast algorithms = %v, want %v", got, wantB)
	}
	for _, a := range append([]core.Algorithm{core.AlgoAuto}, core.Algorithms()...) {
		back, err := core.ParseAlgorithm(a.String())
		if err != nil || back != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", a.String(), back, err)
		}
	}
}

func TestAllReduceAlgosMatchReference(t *testing.T) {
	combos := []struct {
		et elem.Type
		op elem.Op
	}{{elem.I32, elem.Sum}, {elem.I8, elem.Xor}, {elem.I64, elem.Max}}
	for _, cs := range cases {
		for _, cb := range combos {
			for _, s := range []int{8, 24} {
				t.Run(fmt.Sprintf("%s/%v-%v/s%d", cs.name, cb.et, cb.op, s), func(t *testing.T) {
					c, sess := newComm(t, cs.geo, cs.shape)
					groups, err := c.Hypercube().Groups(cs.dims)
					if err != nil {
						t.Fatal(err)
					}
					n := len(groups[0])
					if n < 2 {
						t.Skip("single-member groups: no alternatives apply")
					}
					m := n * s
					fillSrc(c, 0, m, 7)
					d := core.Collective{Prim: core.AllReduce, Dims: cs.dims,
						Src: core.Span(0, m), Dst: core.At(m), Elem: cb.et, Op: cb.op,
						Level: core.Baseline}
					if _, err := sess.Run(d); err != nil {
						t.Fatal(err)
					}
					want := snapshot(c, m, m)
					for _, alg := range alternatives(core.AllReduce) {
						da := d
						da.Algorithm = alg
						if _, err := sess.Run(da); err != nil {
							t.Fatalf("%v: %v", alg, err)
						}
						got := snapshot(c, m, m)
						for pe := range got {
							if !bytes.Equal(got[pe], want[pe]) {
								t.Fatalf("%v: PE %d differs from reference", alg, pe)
							}
						}
					}
				})
			}
		}
	}
}

func TestBroadcastAlgosMatchReference(t *testing.T) {
	for _, cs := range cases {
		t.Run(cs.name, func(t *testing.T) {
			c, sess := newComm(t, cs.geo, cs.shape)
			groups, err := c.Hypercube().Groups(cs.dims)
			if err != nil {
				t.Fatal(err)
			}
			if len(groups[0]) < 2 {
				t.Skip("single-member groups: no alternatives apply")
			}
			const s = 48
			rng := rand.New(rand.NewSource(11))
			bufs := make([][]byte, len(groups))
			for g := range bufs {
				bufs[g] = make([]byte, s)
				rng.Read(bufs[g])
			}
			d := core.Collective{Prim: core.Broadcast, Dims: cs.dims,
				Dst: core.Span(0, s), Hosts: bufs, Level: core.Baseline}
			if _, err := sess.Run(d); err != nil {
				t.Fatal(err)
			}
			want := snapshot(c, 0, s)
			for _, alg := range alternatives(core.Broadcast) {
				da := d
				da.Algorithm = alg
				if _, err := sess.Run(da); err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				got := snapshot(c, 0, s)
				for pe := range got {
					if !bytes.Equal(got[pe], want[pe]) {
						t.Fatalf("%v: PE %d differs from reference", alg, pe)
					}
				}
			}
		})
	}
}

// TestAlgoRejections pins the explicit-request error paths: an algorithm
// that does not apply at the resolved level, and an algorithm the table
// has no row of for the primitive.
func TestAlgoRejections(t *testing.T) {
	_, c := newComm(t, geo64, []int{8, 8})
	d := core.Collective{Prim: core.AllReduce, Dims: "10",
		Src: core.Span(0, 64), Dst: core.At(64), Elem: elem.I32, Op: elem.Sum}
	for _, lvl := range []core.Level{core.PR, core.IM} {
		da := d
		da.Level, da.Algorithm = lvl, core.AlgoRing
		if _, err := c.Run(da); err == nil {
			t.Fatalf("ring at %v: want applicability error", lvl)
		}
	}
	da := d
	da.Level, da.Algorithm = core.Baseline, core.AlgoRabenseifner
	da.Prim = core.AlltoAll
	da.Elem, da.Op = 0, 0
	if _, err := c.Run(da); err == nil {
		t.Fatal("rsag AlltoAll: want no-such-row error")
	}
}

// TestAutoSearchesAlgorithms checks the (algorithm x level) search: an
// Auto-level call with an explicit algorithm constraint resolves to that
// algorithm at its applicable level, and the full search returns a row
// of the table.
func TestAutoSearchesAlgorithms(t *testing.T) {
	_, c := newComm(t, geo64, []int{8, 8})
	d := core.Collective{Prim: core.AllReduce, Dims: "10",
		Src: core.Span(0, 64), Dst: core.At(64), Elem: elem.I32, Op: elem.Sum,
		Level: core.Auto, Algorithm: core.AlgoRing}
	alg, lvl, err := c.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	if alg != core.AlgoRing || lvl != core.Baseline {
		t.Fatalf("constrained resolve = (%v, %v), want (ring, Base)", alg, lvl)
	}
	if _, err := c.Run(d); err != nil {
		t.Fatal(err)
	}
	d.Algorithm = core.AlgoAuto
	alg, lvl, err = c.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range core.RegisteredAlgorithms(core.AllReduce) {
		found = found || a == alg
	}
	if !found {
		t.Fatalf("full search picked %v at %v, not a row of the table", alg, lvl)
	}
}

// TestMakespanAutoNeverWorse is the autotuner property test: under the
// makespan objective, the picked candidate's pipelined dry-placed
// makespan is never worse than the meter-cheapest pick's makespan (and
// symmetrically for the meter).
func TestMakespanAutoNeverWorse(t *testing.T) {
	c, err := core.New(dram.Geometry{Channels: 2, RanksPerChannel: 2, BanksPerChip: 4, MramPerBank: 1 << 22},
		[]int{16, 8}, core.Config{Backend: core.CostBackend()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}
	find := func(prim core.Primitive, bytes int) core.AutoDecision {
		t.Helper()
		for _, dec := range c.Snapshot().Auto {
			if dec.Prim == prim && dec.Bytes == bytes && dec.Constraint == core.AlgoAuto {
				return dec
			}
		}
		t.Fatalf("no cached decision for %v/%d", prim, bytes)
		return core.AutoDecision{}
	}
	type sig struct {
		prim core.Primitive
		m    int
	}
	sigs := []sig{}
	for _, m := range []int{128, 2048, 1 << 15, 1 << 18} {
		sigs = append(sigs, sig{core.AllReduce, m}, sig{core.ReduceScatter, m}, sig{core.AlltoAll, m})
	}
	for _, sg := range sigs {
		d := core.Collective{Prim: sg.prim, Dims: "10",
			Src: core.Span(0, sg.m), Dst: core.At(sg.m), Level: core.Auto}
		if sg.prim != core.AlltoAll {
			d.Elem, d.Op = elem.I32, elem.Sum
		}
		c.SetAutoObjective(core.AutoMeter)
		if _, _, err := s.Resolve(d); err != nil {
			t.Fatal(err)
		}
		meterPick := find(sg.prim, sg.m)
		c.SetAutoObjective(core.AutoMakespan)
		if _, _, err := s.Resolve(d); err != nil {
			t.Fatal(err)
		}
		ksPick := find(sg.prim, sg.m)
		if ksPick.Makespan > meterPick.Makespan {
			t.Errorf("%v/%d: makespan objective picked (%v,%v) makespan %v, worse than meter pick (%v,%v) makespan %v",
				sg.prim, sg.m, ksPick.Algo, ksPick.Level, ksPick.Makespan,
				meterPick.Algo, meterPick.Level, meterPick.Makespan)
		}
		if meterPick.Meter > ksPick.Meter {
			t.Errorf("%v/%d: meter objective picked meter %v, worse than makespan pick's meter %v",
				sg.prim, sg.m, meterPick.Meter, ksPick.Meter)
		}
		c.SetAutoObjective(core.AutoMeter)
	}
}

// TestClusterTreeMatchesRing pins the host-level algorithm axis: a
// functional cluster AllReduce produces identical bytes whether the wire
// leg is the ring, the tree, or the Auto pick, and the cost-only Auto
// pick matches the analytic crossover (tree on latency-bound small
// payloads, ring on bandwidth-bound large ones, for enough hosts).
func TestClusterTreeMatchesRing(t *testing.T) {
	const H = 4
	geo := dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 14}
	const m = 16 * 8 // H*P blocks of 8 bytes
	// build returns the whole-cluster session of a fresh cluster, which its
	// collectives compile on, with seeded source regions.
	build := func() *core.ClusterTenant {
		cl, err := core.NewCluster(H, geo, []int{16}, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := cl.Session()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		buf := make([]byte, m)
		for h := 0; h < H; h++ {
			for pe := 0; pe < 16; pe++ {
				rng.Read(buf)
				s.Host(h).SetPEBuffer(pe, 0, buf)
			}
		}
		return s
	}
	runAlg := func(alg core.Algorithm) [][]byte {
		s := build()
		d := core.ClusterCollective{Collective: core.Collective{
			Prim: core.AllReduce, Dims: "1", Src: core.Span(0, m), Dst: core.At(m),
			Elem: elem.I32, Op: elem.Sum, Level: core.Baseline, Algorithm: alg}}
		if _, err := s.Run(d); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		var out [][]byte
		for h := 0; h < H; h++ {
			for pe := 0; pe < 16; pe++ {
				out = append(out, append([]byte(nil), s.Host(h).GetPEBuffer(pe, m, m)...))
			}
		}
		return out
	}
	want := runAlg(core.AlgoRing)
	for _, alg := range []core.Algorithm{core.AlgoTree, core.AlgoAuto} {
		got := runAlg(alg)
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%v: global rank %d differs from ring", alg, i)
			}
		}
	}
	// Unsupported cluster algorithm errors instead of being ignored.
	d := core.ClusterCollective{Collective: core.Collective{
		Prim: core.AllReduce, Dims: "1", Src: core.Span(0, m), Dst: core.At(m),
		Elem: elem.I32, Op: elem.Sum, Level: core.Baseline, Algorithm: core.AlgoRabenseifner}}
	if _, err := build().Run(d); err == nil {
		t.Fatal("cluster rsag: want unsupported-algorithm error")
	}
}
