package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
)

// testComm is a test machine paired with its whole-MRAM session: the
// machine's methods promote from the embedded Comm, while the collective
// entry points run in the session — a tenant over [0, MramPerBank), so
// its regions are the absolute offsets the test places data at.
type testComm struct {
	*Comm
	s *Tenant
}

func (c *testComm) Run(d Collective) (cost.Breakdown, error)    { return c.s.Run(d) }
func (c *testComm) Compile(d Collective) (*CompiledPlan, error) { return c.s.Compile(d) }
func (c *testComm) Submit(d Collective) (*Future, error)        { return c.s.Submit(d) }
func (c *testComm) CompileSequence(ds ...Collective) (*CompiledPlan, error) {
	return c.s.CompileSequence(ds...)
}
func (c *testComm) Resolve(d Collective) (Algorithm, Level, error) { return c.s.Resolve(d) }

// plan is planLocked under compMu, for tests that read a group plan.
func (c *Comm) plan(dims string) (*plan, error) {
	c.compMu.Lock()
	defer c.compMu.Unlock()
	return c.planLocked(dims)
}

// newMachine is New failing the test on an error: a machine with no
// session yet, for tests that carve their own tenants.
func newMachine(t testing.TB, geo dram.Geometry, shape []int, cfg Config) *Comm {
	t.Helper()
	c, err := New(geo, shape, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newTestComm is newMachine paired with its whole-MRAM session.
func newTestComm(t testing.TB, geo dram.Geometry, shape []int, cfg Config) *testComm {
	t.Helper()
	return withSession(t, newMachine(t, geo, shape, cfg))
}

// withSession pairs c with its whole-MRAM session.
func withSession(t testing.TB, c *Comm) *testComm {
	t.Helper()
	s, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}
	return &testComm{c, s}
}

// testSystem builds a small functional comm at the default configuration.
func testSystem(t *testing.T, geo dram.Geometry, shape []int) *testComm {
	t.Helper()
	return newTestComm(t, geo, shape, Config{})
}

// runRooted runs a rooted collective (Gather, Reduce) once and returns
// its per-group host results with the run's breakdown.
func runRooted(c *testComm, d Collective) ([][]byte, cost.Breakdown, error) {
	cp, err := c.Compile(d)
	if err != nil {
		return nil, cost.Breakdown{}, err
	}
	bd, err := cp.Run()
	return cp.Results(), bd, err
}

var geo64 = dram.Geometry{Channels: 1, RanksPerChannel: 2, BanksPerChip: 4, MramPerBank: 1 << 14} // 64 PEs
var geo24 = dram.Geometry{Channels: 3, RanksPerChannel: 1, BanksPerChip: 1, MramPerBank: 1 << 14} // 24 PEs

// fillSrc writes deterministic random data to every PE's src region and
// returns the per-PE copies.
func fillSrc(c *testComm, off, n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	numPE := c.Hypercube().System().Geometry().NumPEs()
	in := make([][]byte, numPE)
	for pe := 0; pe < numPE; pe++ {
		in[pe] = make([]byte, n)
		rng.Read(in[pe])
		c.SetPEBuffer(pe, off, in[pe])
	}
	return in
}

// groupInputs selects the group's members' buffers in rank order.
func groupInputs(in [][]byte, grp []int) [][]byte {
	out := make([][]byte, len(grp))
	for i, pe := range grp {
		out[i] = in[pe]
	}
	return out
}

type caseSpec struct {
	name  string
	geo   dram.Geometry
	shape []int
	dims  string
}

// cases covers 1D, 2D and 3D hypercubes; groups that are full entangled
// groups, sub-groups of one, strided across many, and mixtures (Figure 9);
// plus a non-power-of-two last dimension.
var cases = []caseSpec{
	{"1D-full", geo64, []int{64}, "1"},
	{"2D-x", geo64, []int{8, 8}, "10"},
	{"2D-y", geo64, []int{8, 8}, "01"},
	{"2D-xy", geo64, []int{8, 8}, "11"},
	{"2D-subEG-x", geo64, []int{4, 16}, "10"},
	{"2D-subEG-y", geo64, []int{4, 16}, "01"},
	{"3D-x", geo64, []int{4, 2, 8}, "100"},
	{"3D-y", geo64, []int{4, 2, 8}, "010"},
	{"3D-xz", geo64, []int{4, 2, 8}, "101"},
	{"3D-z", geo64, []int{4, 2, 8}, "001"},
	{"nonpow2-x", geo24, []int{8, 3}, "10"},
	{"nonpow2-y", geo24, []int{8, 3}, "01"},
	{"nonpow2-strided", geo24, []int{4, 6}, "01"},
}

func TestAlltoAllAllLevels(t *testing.T) {
	for _, tc := range cases {
		for _, lvl := range Levels() {
			t.Run(fmt.Sprintf("%s/%v", tc.name, lvl), func(t *testing.T) {
				c := testSystem(t, tc.geo, tc.shape)
				p, err := c.plan(tc.dims)
				if err != nil {
					t.Fatal(err)
				}
				s := 16 // bytes per block
				m := p.n * s
				in := fillSrc(c, 0, m, 42)
				if _, err := c.Run(Collective{Prim: AlltoAll, Dims: tc.dims,
					Src: Span(0, m), Dst: At(2 * m), Level: lvl}); err != nil {
					t.Fatal(err)
				}
				for _, grp := range p.groups {
					want := RefAlltoAll(groupInputs(in, grp), s)
					for j, pe := range grp {
						got := c.GetPEBuffer(pe, 2*m, m)
						if !bytes.Equal(got, want[j]) {
							t.Fatalf("group PE %d (rank %d): mismatch", pe, j)
						}
					}
				}
			})
		}
	}
}

func TestReduceScatterAllLevels(t *testing.T) {
	for _, tc := range cases {
		for _, lvl := range []Level{Baseline, PR, IM} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, lvl), func(t *testing.T) {
				c := testSystem(t, tc.geo, tc.shape)
				p, _ := c.plan(tc.dims)
				s := 16
				m := p.n * s
				in := fillSrc(c, 0, m, 7)
				if _, err := c.Run(Collective{Prim: ReduceScatter, Dims: tc.dims,
					Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: lvl}); err != nil {
					t.Fatal(err)
				}
				for _, grp := range p.groups {
					want := RefReduceScatter(elem.I32, elem.Sum, groupInputs(in, grp), s)
					for j, pe := range grp {
						got := c.GetPEBuffer(pe, 2*m, s)
						if !bytes.Equal(got, want[j]) {
							t.Fatalf("PE %d rank %d mismatch", pe, j)
						}
					}
				}
			})
		}
	}
}

func TestAllReduceAllLevelsTypesOps(t *testing.T) {
	combos := []struct {
		t  elem.Type
		op elem.Op
	}{
		{elem.I32, elem.Sum}, {elem.I8, elem.Sum}, {elem.I16, elem.Min},
		{elem.I64, elem.Max}, {elem.I32, elem.Or}, {elem.I8, elem.And}, {elem.I16, elem.Xor},
	}
	for _, tc := range cases[:6] { // representative subset for the type sweep
		for _, combo := range combos {
			for _, lvl := range []Level{Baseline, PR, IM} {
				t.Run(fmt.Sprintf("%s/%v/%v/%v", tc.name, combo.t, combo.op, lvl), func(t *testing.T) {
					c := testSystem(t, tc.geo, tc.shape)
					p, _ := c.plan(tc.dims)
					s := 8
					m := p.n * s
					in := fillSrc(c, 0, m, int64(lvl)*100+int64(combo.op))
					if _, err := c.Run(Collective{Prim: AllReduce, Dims: tc.dims,
						Src: Span(0, m), Dst: At(2 * m), Elem: combo.t, Op: combo.op, Level: lvl}); err != nil {
						t.Fatal(err)
					}
					for _, grp := range p.groups {
						want := RefAllReduce(combo.t, combo.op, groupInputs(in, grp))
						for j, pe := range grp {
							got := c.GetPEBuffer(pe, 2*m, m)
							if !bytes.Equal(got, want[j]) {
								t.Fatalf("PE %d rank %d mismatch", pe, j)
							}
						}
					}
				})
			}
		}
	}
}

func TestAllGatherAllLevels(t *testing.T) {
	for _, tc := range cases {
		for _, lvl := range Levels() {
			t.Run(fmt.Sprintf("%s/%v", tc.name, lvl), func(t *testing.T) {
				c := testSystem(t, tc.geo, tc.shape)
				p, _ := c.plan(tc.dims)
				s := 16
				in := fillSrc(c, 0, s, 99)
				if _, err := c.Run(Collective{Prim: AllGather, Dims: tc.dims,
					Src: Span(0, s), Dst: At(1024), Level: lvl}); err != nil {
					t.Fatal(err)
				}
				for _, grp := range p.groups {
					want := RefAllGather(groupInputs(in, grp))
					for j, pe := range grp {
						got := c.GetPEBuffer(pe, 1024, p.n*s)
						if !bytes.Equal(got, want[j]) {
							t.Fatalf("PE %d rank %d mismatch", pe, j)
						}
					}
				}
			})
		}
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	for _, tc := range cases {
		for _, lvl := range []Level{Baseline, IM} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, lvl), func(t *testing.T) {
				c := testSystem(t, tc.geo, tc.shape)
				p, _ := c.plan(tc.dims)
				s := 24
				rng := rand.New(rand.NewSource(5))
				bufs := make([][]byte, len(p.groups))
				for g := range bufs {
					bufs[g] = make([]byte, p.n*s)
					rng.Read(bufs[g])
				}
				if _, err := c.Run(Collective{Prim: Scatter, Dims: tc.dims,
					Hosts: bufs, Dst: Span(0, s), Level: lvl}); err != nil {
					t.Fatal(err)
				}
				// Each PE must hold its block.
				for g, grp := range p.groups {
					want := RefScatter(bufs[g], p.n)
					for i, pe := range grp {
						if !bytes.Equal(c.GetPEBuffer(pe, 0, s), want[i]) {
							t.Fatalf("scatter: PE %d rank %d mismatch", pe, i)
						}
					}
				}
				got, _, err := runRooted(c, Collective{Prim: Gather, Dims: tc.dims, Src: Span(0, s), Level: lvl})
				if err != nil {
					t.Fatal(err)
				}
				for g := range bufs {
					if !bytes.Equal(got[g], bufs[g]) {
						t.Fatalf("gather: group %d mismatch", g)
					}
				}
			})
		}
	}
}

func TestReduceAllLevels(t *testing.T) {
	for _, tc := range cases {
		for _, lvl := range []Level{Baseline, PR, IM} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, lvl), func(t *testing.T) {
				c := testSystem(t, tc.geo, tc.shape)
				p, _ := c.plan(tc.dims)
				s := 8
				m := p.n * s
				in := fillSrc(c, 0, m, 123)
				got, _, err := runRooted(c, Collective{Prim: Reduce, Dims: tc.dims, Src: Span(0, m), Elem: elem.I16, Op: elem.Sum, Level: lvl})
				if err != nil {
					t.Fatal(err)
				}
				for g, grp := range p.groups {
					want := RefReduce(elem.I16, elem.Sum, groupInputs(in, grp))
					if !bytes.Equal(got[g], want) {
						t.Fatalf("group %d mismatch", g)
					}
				}
			})
		}
	}
}

func TestBroadcast(t *testing.T) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testSystem(t, tc.geo, tc.shape)
			p, _ := c.plan(tc.dims)
			s := 32
			rng := rand.New(rand.NewSource(8))
			bufs := make([][]byte, len(p.groups))
			for g := range bufs {
				bufs[g] = make([]byte, s)
				rng.Read(bufs[g])
			}
			if _, err := c.Run(Collective{Prim: Broadcast, Dims: tc.dims,
				Hosts: bufs, Dst: At(64), Level: IM}); err != nil {
				t.Fatal(err)
			}
			for g, grp := range p.groups {
				for _, pe := range grp {
					if !bytes.Equal(c.GetPEBuffer(pe, 64, s), bufs[g]) {
						t.Fatalf("group %d PE %d mismatch", g, pe)
					}
				}
			}
		})
	}
}

// All optimization levels must produce bit-identical results (the paper's
// techniques are pure performance optimizations).
func TestLevelsProduceIdenticalResults(t *testing.T) {
	tc := cases[8] // 3D-xz: multi-EG groups
	results := make(map[Level][]byte)
	for _, lvl := range Levels() {
		c := testSystem(t, tc.geo, tc.shape)
		p, _ := c.plan(tc.dims)
		m := p.n * 8
		fillSrc(c, 0, m, 77)
		if _, err := c.Run(Collective{Prim: AlltoAll, Dims: tc.dims,
			Src: Span(0, m), Dst: At(2 * m), Level: lvl}); err != nil {
			t.Fatal(err)
		}
		var all []byte
		for pe := 0; pe < tc.geo.NumPEs(); pe++ {
			all = append(all, c.GetPEBuffer(pe, 2*m, m)...)
		}
		results[lvl] = all
	}
	for _, lvl := range Levels()[1:] {
		if !bytes.Equal(results[lvl], results[Baseline]) {
			t.Errorf("level %v differs from Baseline", lvl)
		}
	}
}

// Cost-structure assertions: the breakdown categories must reflect which
// techniques are active (the basis of Figures 16 and 17). Run at a
// realistic scale (256 PEs, 16 KiB/PE) where the asymptotic ordering
// holds; at tiny payloads kernel-launch overheads legitimately favor the
// baseline (the small-size regime of Figure 18).
func TestCostStructureByLevel(t *testing.T) {
	geo := dram.Geometry{Channels: 1, RanksPerChannel: 4, BanksPerChip: 8, MramPerBank: 1 << 16}
	run := func(lvl Level) cost.Breakdown {
		c := testSystem(t, geo, []int{16, 16})
		m := 16 * 1024
		fillSrc(c, 0, m, 3)
		bd, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
			Src: Span(0, m), Dst: At(2 * m), Level: lvl})
		if err != nil {
			t.Fatal(err)
		}
		return bd
	}
	base, pr, im, cm := run(Baseline), run(PR), run(IM), run(CM)

	if base.Get(cost.PEMod) != 0 {
		t.Error("baseline should have no PE-side modulation")
	}
	if pr.Get(cost.PEMod) <= 0 {
		t.Error("PR should have PE-side modulation")
	}
	if base.Get(cost.HostMem) <= 0 || pr.Get(cost.HostMem) <= 0 {
		t.Error("bulk paths should touch host memory")
	}
	if im.Get(cost.HostMem) != 0 {
		t.Error("in-register modulation must not touch host memory")
	}
	if im.Get(cost.DomainTransfer) <= 0 {
		t.Error("IM AlltoAll still pays domain transfer")
	}
	if cm.Get(cost.DomainTransfer) != 0 {
		t.Error("cross-domain modulation must eliminate domain transfer")
	}
	// Monotonic improvement.
	if !(cm.Total() < im.Total() && im.Total() < pr.Total() && pr.Total() < base.Total()) {
		t.Errorf("totals not monotonically improving: base=%v pr=%v im=%v cm=%v",
			base.Total(), pr.Total(), im.Total(), cm.Total())
	}
	// Host modulation must shrink at each step.
	if !(base.Get(cost.HostMod) > pr.Get(cost.HostMod) && pr.Get(cost.HostMod) > im.Get(cost.HostMod)) {
		t.Error("host modulation should shrink with PR then IM")
	}
}

// 8-bit elements let reducing primitives skip domain transfer (§ V-C).
func TestInt8SkipsDomainTransfer(t *testing.T) {
	run := func(et elem.Type) cost.Breakdown {
		c := testSystem(t, geo64, []int{8, 8})
		m := 8 * 64
		fillSrc(c, 0, m, 4)
		bd, err := c.Run(Collective{Prim: AllReduce, Dims: "10",
			Src: Span(0, m), Dst: At(2 * m), Elem: et, Op: elem.Sum, Level: IM})
		if err != nil {
			t.Fatal(err)
		}
		return bd
	}
	if dt := run(elem.I8).Get(cost.DomainTransfer); dt != 0 {
		t.Errorf("I8 AllReduce has DT time %v, want 0", dt)
	}
	if dt := run(elem.I32).Get(cost.DomainTransfer); dt <= 0 {
		t.Error("I32 AllReduce should pay DT")
	}
}

func TestValidationErrors(t *testing.T) {
	c := testSystem(t, geo64, []int{8, 8})
	if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "1",
		Src: Span(0, 512), Dst: At(512), Level: CM}); err == nil {
		t.Error("wrong dims length accepted")
	}
	if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "00",
		Src: Span(0, 512), Dst: At(512), Level: CM}); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
		Src: Span(0, 512), Dst: At(256), Level: CM}); err == nil {
		t.Error("overlapping src/dst accepted")
	}
	if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
		Src: Span(0, 100), Dst: At(1024), Level: CM}); err == nil {
		t.Error("unaligned size accepted")
	}
	if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
		Src: Span(0, 24), Dst: At(1024), Level: CM}); err == nil {
		t.Error("block size not divisible accepted (24/8 = 3 bytes)")
	}
	if _, err := c.Run(Collective{Prim: ReduceScatter, Dims: "10",
		Src: Span(0, 1<<20), Dst: At(1024), Elem: elem.I32, Op: elem.Sum, Level: IM}); err == nil {
		t.Error("oversized region accepted")
	}
	if _, err := c.Run(Collective{Prim: Scatter, Dims: "10",
		Hosts: make([][]byte, 3), Dst: Span(0, 64), Level: IM}); err == nil {
		t.Error("wrong buffer count accepted")
	}
	if _, err := c.Run(Collective{Prim: Broadcast, Dims: "10",
		Hosts: [][]byte{make([]byte, 64)}, Dst: At(0), Level: IM}); err == nil {
		t.Error("wrong broadcast buffer count accepted")
	}
}

// An out-of-range enum is an error, not a silent default: a Level beyond
// the table (on a single machine and on a cluster, whose legs resolve
// through the same resolveLocked), a Primitive outside the shape table at
// an explicit level as at Auto, a Config.Fuse and a TenantConfig.Shed.
func TestUnknownEnumsAreRejected(t *testing.T) {
	c := newTestComm(t, geo64, []int{8, 8}, Config{Backend: CostBackend()})
	for _, p := range []Primitive{-1, 8} {
		for _, lvl := range []Level{Auto, Baseline, IM} {
			d := Collective{Prim: p, Dims: "10", Src: Span(0, 512), Dst: At(1024), Level: lvl}
			if _, err := c.Compile(d); err == nil {
				t.Errorf("%v at %v compiles", p, lvl)
			}
			if _, _, err := c.s.Resolve(d); err == nil {
				t.Errorf("%v at %v resolves", p, lvl)
			}
		}
	}
	for _, lvl := range []Level{-3, -1, CM + 1, 42} {
		d := Collective{Prim: AlltoAll, Dims: "10", Src: Span(0, 512), Dst: At(1024), Level: lvl}
		if _, err := c.Compile(d); err == nil {
			t.Errorf("Level(%d) compiles", lvl)
		}
		if _, _, err := c.s.Resolve(d); err == nil {
			t.Errorf("Level(%d) resolves", lvl)
		}
	}
	cl := sessionTestCluster(t, 2, geoHost, []int{16}, true)
	for _, d := range []Collective{
		{Prim: AllReduce, Dims: "1", Src: Span(0, 256), Dst: At(256), Elem: elem.I32, Op: elem.Sum, Level: 77},
		{Prim: Broadcast, Dims: "1", Dst: Span(0, 64), Level: 77},
	} {
		if _, err := cl.Compile(ClusterCollective{Collective: d}); err == nil {
			t.Errorf("cluster %v at Level(77) compiles", d.Prim)
		}
	}
	for _, f := range []FuseLevel{-1, FuseOff + 1, 9} {
		if _, err := New(geo64, []int{8, 8}, Config{Backend: CostBackend(), Fuse: f}); err == nil {
			t.Errorf("Config.Fuse %v accepted", f)
		}
	}
	free := newMachine(t, geo64, []int{8, 8}, Config{Backend: CostBackend()})
	for _, p := range []ShedPolicy{-1, ShedOldest + 1, 7} {
		if _, err := free.NewTenant(TenantConfig{ArenaBytes: 64, Shed: p}); err == nil {
			t.Errorf("TenantConfig.Shed %v accepted", p)
		}
	}
	if _, err := free.NewTenant(TenantConfig{ArenaBytes: 64, Shed: ShedOldest}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterAccumulatesAcrossCalls(t *testing.T) {
	c := testSystem(t, geo64, []int{8, 8})
	m := 8 * 16
	fillSrc(c, 0, m, 1)
	if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
		Src: Span(0, m), Dst: At(2 * m), Level: CM}); err != nil {
		t.Fatal(err)
	}
	t1 := c.Meter().Total()
	if _, err := c.Run(Collective{Prim: AlltoAll, Dims: "10",
		Src: Span(0, m), Dst: At(2 * m), Level: CM}); err != nil {
		t.Fatal(err)
	}
	if t2 := c.Meter().Total(); t2 <= t1 {
		t.Errorf("meter did not accumulate: %v then %v", t1, t2)
	}
}
