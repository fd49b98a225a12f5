// Package fuzz holds the randomized differential-testing core shared by
// cmd/pidfuzz (the long-running standalone binary) and the in-process
// smoke test that runs a small number of scenarios in CI: random system
// geometries, hypercube shapes, dimension selections, payload sizes,
// element types, reduction operators and optimization levels (including
// the Auto pseudo-level), every primitive run and compared against the
// independent reference model. Every scenario additionally compiles an
// AlltoAll→ReduceScatter chain through the schedule-fusion optimizer
// (the default) and diffs the resulting MRAM against an unfused
// execution, giving the peephole passes randomized coverage on every
// run, and checks that nothing ran outside the sessions of every scenario
// machine: its meter equals its snapshot's, bit for bit. Every scenario
// session sits behind a pad session, so collectives run at a nonzero
// arena base.
package fuzz

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/elem"
)

// Scenario is one randomized differential-test configuration.
type Scenario struct {
	Geo   dram.Geometry
	Shape []int
	Dims  string
	S     int // block bytes
	Lvl   core.Level
	Typ   elem.Type
	Op    elem.Op
	// Workers is the ExecWorkers setting every comm in the scenario runs
	// at, so the fuzzer also differential-tests the parallel executor's
	// shard boundaries against the reference model (the worker count must
	// never change results).
	Workers int
	// Algo is the algorithm constraint of the scenario's AllReduce leg:
	// AlgoAuto, the reference, or one of the alternative rows
	// (only drawn when the level and group size permit it), so the
	// alternative lowerings get randomized differential coverage too.
	Algo core.Algorithm
}

// Random draws a scenario. When includeAuto is set, the Auto pseudo-level
// is among the optimization-level choices, exercising the autotuner's
// dry-run/cache path on every primitive.
func Random(rng *rand.Rand, includeAuto bool) Scenario {
	geos := []dram.Geometry{
		{Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 14}, // 16 PEs
		{Channels: 1, RanksPerChannel: 2, BanksPerChip: 4, MramPerBank: 1 << 14}, // 64 PEs
		{Channels: 2, RanksPerChannel: 1, BanksPerChip: 4, MramPerBank: 1 << 14}, // 64 PEs
		{Channels: 3, RanksPerChannel: 1, BanksPerChip: 1, MramPerBank: 1 << 14}, // 24 PEs
	}
	geo := geos[rng.Intn(len(geos))]
	n := geo.NumPEs()

	// Random shape: factor n into 1-3 dimensions (power-of-two except
	// possibly last).
	var shape []int
	rem := n
	for len(shape) < 2 && rem > 1 {
		// Pick a power-of-two factor of rem.
		var opts []int
		for f := 2; f <= rem; f *= 2 {
			if rem%f == 0 {
				opts = append(opts, f)
			}
		}
		if len(opts) == 0 || rng.Intn(3) == 0 {
			break
		}
		f := opts[rng.Intn(len(opts))]
		shape = append(shape, f)
		rem /= f
	}
	shape = append(shape, rem) // last dim may be non-power-of-two
	if len(shape) == 1 && shape[0] == 1 {
		shape = []int{n}
	}

	// Random non-empty dims selection.
	dims := make([]byte, len(shape))
	any := false
	for i := range dims {
		if rng.Intn(2) == 0 {
			dims[i] = '0'
		} else {
			dims[i] = '1'
			any = true
		}
	}
	if !any {
		dims[rng.Intn(len(dims))] = '1'
	}

	levels := core.Levels()
	if includeAuto {
		levels = append(levels, core.Auto)
	}
	lvl := levels[rng.Intn(len(levels))]

	// Algorithm constraint for the AllReduce leg: the table's
	// alternatives implement the Baseline host path over multi-member
	// groups, so only draw them when the scenario can satisfy that
	// (explicit Baseline, or Auto where the search lands on it).
	groupSize := 1
	for i := range dims {
		if dims[i] == '1' {
			groupSize *= shape[i]
		}
	}
	algo := core.AlgoAuto
	if groupSize >= 2 && (lvl == core.Auto || core.EffectiveLevel(core.AllReduce, lvl) == core.Baseline) {
		opts := append(core.RegisteredAlgorithms(core.AllReduce), core.AlgoAuto)
		algo = opts[rng.Intn(len(opts))]
	}
	return Scenario{
		Geo:     geo,
		Shape:   shape,
		Dims:    string(dims),
		S:       8 * (1 + rng.Intn(4)),
		Lvl:     lvl,
		Typ:     elem.Types()[rng.Intn(4)],
		Op:      elem.Ops()[rng.Intn(6)],
		Workers: 1 + rng.Intn(4),
		Algo:    algo,
	}
}

// Check runs every primitive under the scenario and returns an error
// naming the first divergence from the reference model.
func (sc Scenario) Check(rng *rand.Rand) error {
	// Every primitive runs in the session of a fresh machine; a scenario New
	// rejects is reported once, here, so mk cannot fail on it.
	if _, _, err := sc.session(core.FuseFull); err != nil {
		return err
	}
	var machines []*core.Comm
	mk := func() (*core.Tenant, [][]byte, [][]int, int) {
		mach, c, err := sc.session(core.FuseFull)
		if err != nil {
			panic(err)
		}
		machines = append(machines, mach)
		groups, err := mach.Hypercube().Groups(sc.Dims)
		if err != nil {
			panic(err)
		}
		n := len(groups[0])
		m := n * sc.S
		in := make([][]byte, sc.Geo.NumPEs())
		for pe := range in {
			in[pe] = make([]byte, m)
			rng.Read(in[pe])
			c.SetPEBuffer(pe, 0, in[pe])
		}
		return c, in, groups, m
	}
	sel := func(in [][]byte, grp []int) [][]byte {
		out := make([][]byte, len(grp))
		for i, pe := range grp {
			out[i] = in[pe]
		}
		return out
	}

	// AlltoAll.
	c, in, groups, m := mk()
	if _, err := c.Run(core.Collective{Prim: core.AlltoAll, Dims: sc.Dims,
		Src: core.Span(0, m), Dst: core.At(2 * m), Level: sc.Lvl}); err != nil {
		return fmt.Errorf("AlltoAll: %w", err)
	}
	for _, grp := range groups {
		want := core.RefAlltoAll(sel(in, grp), sc.S)
		for j, pe := range grp {
			if !bytes.Equal(c.GetPEBuffer(pe, 2*m, m), want[j]) {
				return fmt.Errorf("AlltoAll diverges at PE %d (%+v)", pe, sc)
			}
		}
	}
	// ReduceScatter.
	c, in, groups, m = mk()
	if _, err := c.Run(core.Collective{Prim: core.ReduceScatter, Dims: sc.Dims,
		Src: core.Span(0, m), Dst: core.At(2 * m),
		Elem: sc.Typ, Op: sc.Op, Level: sc.Lvl}); err != nil {
		return fmt.Errorf("ReduceScatter: %w", err)
	}
	for _, grp := range groups {
		want := core.RefReduceScatter(sc.Typ, sc.Op, sel(in, grp), sc.S)
		for j, pe := range grp {
			if !bytes.Equal(c.GetPEBuffer(pe, 2*m, sc.S), want[j]) {
				return fmt.Errorf("ReduceScatter diverges at PE %d (%+v)", pe, sc)
			}
		}
	}
	// AllReduce — through the descriptor form so the scenario's algorithm
	// constraint applies (reference, ring, tree or Rabenseifner must all
	// match the reference model bytes).
	c, in, groups, m = mk()
	if _, err := c.Run(core.Collective{Prim: core.AllReduce, Dims: sc.Dims,
		Src: core.Span(0, m), Dst: core.At(2 * m), Elem: sc.Typ, Op: sc.Op,
		Level: sc.Lvl, Algorithm: sc.Algo}); err != nil {
		return fmt.Errorf("AllReduce(%v): %w", sc.Algo, err)
	}
	for _, grp := range groups {
		want := core.RefAllReduce(sc.Typ, sc.Op, sel(in, grp))
		for j, pe := range grp {
			if !bytes.Equal(c.GetPEBuffer(pe, 2*m, m), want[j]) {
				return fmt.Errorf("AllReduce diverges at PE %d (%+v)", pe, sc)
			}
		}
	}
	// AllGather (input s per PE).
	c, in, groups, _ = mk()
	n := len(groups[0])
	if _, err := c.Run(core.Collective{Prim: core.AllGather, Dims: sc.Dims,
		Src: core.Span(0, sc.S), Dst: core.At(m), Level: sc.Lvl}); err != nil {
		return fmt.Errorf("AllGather: %w", err)
	}
	for _, grp := range groups {
		heads := make([][]byte, len(grp))
		for i, pe := range grp {
			heads[i] = in[pe][:sc.S]
		}
		want := core.RefAllGather(heads)
		for j, pe := range grp {
			if !bytes.Equal(c.GetPEBuffer(pe, m, n*sc.S), want[j]) {
				return fmt.Errorf("AllGather diverges at PE %d (%+v)", pe, sc)
			}
		}
	}
	// In-place AlltoAll on the staged path (src == dst); with Auto the
	// streaming candidates are inapplicable and must be skipped.
	c, in, groups, m = mk()
	ipLvl := sc.Lvl
	if core.EffectiveLevel(core.AlltoAll, ipLvl) >= core.IM {
		ipLvl = core.Auto
	}
	if _, err := c.Run(core.Collective{Prim: core.AlltoAll, Dims: sc.Dims,
		Src: core.Span(0, m), Dst: core.At(0), Level: ipLvl}); err != nil {
		return fmt.Errorf("in-place AlltoAll: %w", err)
	}
	for _, grp := range groups {
		want := core.RefAlltoAll(sel(in, grp), sc.S)
		for j, pe := range grp {
			if !bytes.Equal(c.GetPEBuffer(pe, 0, m), want[j]) {
				return fmt.Errorf("in-place AlltoAll diverges at PE %d (%+v)", pe, sc)
			}
		}
	}
	// Gather + Reduce round trips (host-rooted).
	c, in, groups, m = mk()
	got, err := runRooted(c, core.Collective{Prim: core.Gather, Dims: sc.Dims,
		Src: core.Span(0, sc.S), Level: sc.Lvl})
	if err != nil {
		return fmt.Errorf("Gather: %w", err)
	}
	for g, grp := range groups {
		heads := make([][]byte, len(grp))
		for i, pe := range grp {
			heads[i] = in[pe][:sc.S]
		}
		if !bytes.Equal(got[g], core.RefGather(heads)) {
			return fmt.Errorf("Gather diverges at group %d (%+v)", g, sc)
		}
	}
	red, err := runRooted(c, core.Collective{Prim: core.Reduce, Dims: sc.Dims,
		Src: core.Span(0, m), Elem: sc.Typ, Op: sc.Op, Level: sc.Lvl})
	if err != nil {
		return fmt.Errorf("Reduce: %w", err)
	}
	for g, grp := range groups {
		if !bytes.Equal(red[g], core.RefReduce(sc.Typ, sc.Op, sel(in, grp))) {
			return fmt.Errorf("Reduce diverges at group %d (%+v)", g, sc)
		}
	}

	// Fused-sequence differential: the AlltoAll→ReduceScatter chain
	// compiled through the fusion optimizer (the default) must leave
	// every PE's MRAM byte-identical to the same sequence compiled with
	// fusion off — randomized coverage of the peephole passes, including
	// the cross-collective rotate/unrotate cancellation the pair
	// triggers at the rotating levels.
	if err := inSession(machines...); err != nil {
		return fmt.Errorf("%w (%+v)", err, sc)
	}
	return sc.checkFusedSequence(rng)
}

// scenarioPad is the arena of the pad session every scenario session is
// carved behind: burst-aligned, and small enough that the rest of every
// scenario geometry's 16 KiB banks holds the largest scenario footprint
// (the fused sequence's 4m+s, at most 8224 bytes).
const scenarioPad = 1032

// session builds a fresh functional machine of the scenario at the given
// fusion level and its session over the MRAM behind a scenarioPad pad.
func (sc Scenario) session(fuse core.FuseLevel) (*core.Comm, *core.Tenant, error) {
	c, err := core.New(sc.Geo, sc.Shape, core.Config{ExecWorkers: sc.Workers, Fuse: fuse})
	if err != nil {
		return nil, nil, err
	}
	if _, err := c.NewTenant(core.TenantConfig{Name: "pad", ArenaBytes: scenarioPad}); err != nil {
		return nil, nil, err
	}
	s, err := c.Session()
	return c, s, err
}

// inSession reports work that ran outside every session of a machine:
// after a collective-only workload its meter must equal its snapshot's
// meter — the fold of the session meters — bit for bit.
func inSession(machines ...*core.Comm) error {
	for _, c := range machines {
		if got, want := c.Meter().Snapshot(), c.Snapshot().Meter; got != want {
			return fmt.Errorf("machine meter %v != session meters %v: a collective ran outside every session", got, want)
		}
	}
	return nil
}

// checkFusedSequence runs the fused-vs-unfused differential of Check on
// two fresh systems of the scenario's geometry with identical contents.
func (sc Scenario) checkFusedSequence(rng *rand.Rand) error {
	fmach, fused, err := sc.session(core.FuseFull)
	if err != nil {
		return err
	}
	pmach, plain, err := sc.session(core.FuseOff)
	if err != nil {
		return err
	}
	groups, err := fmach.Hypercube().Groups(sc.Dims)
	if err != nil {
		return err
	}
	n := len(groups[0])
	m := n * sc.S
	span := 4*m + sc.S // A=[0,m) B=[2m,3m) C=[4m,4m+s)
	buf := make([]byte, span)
	for pe := 0; pe < sc.Geo.NumPEs(); pe++ {
		rng.Read(buf)
		fused.SetPEBuffer(pe, 0, buf)
		plain.SetPEBuffer(pe, 0, buf)
	}
	ds := []core.Collective{
		{Prim: core.AlltoAll, Dims: sc.Dims, Src: core.Span(0, m), Dst: core.At(2 * m), Level: sc.Lvl},
		{Prim: core.ReduceScatter, Dims: sc.Dims, Src: core.Span(2*m, m), Dst: core.At(4 * m),
			Elem: sc.Typ, Op: sc.Op, Level: sc.Lvl},
	}
	for _, pair := range []struct {
		c    *core.Tenant
		name string
	}{{fused, "fused"}, {plain, "unfused"}} {
		cp, err := pair.c.CompileSequence(ds...)
		if err != nil {
			return fmt.Errorf("%s sequence: %w", pair.name, err)
		}
		if _, err := cp.Run(); err != nil {
			return fmt.Errorf("%s sequence run: %w", pair.name, err)
		}
	}
	for pe := 0; pe < sc.Geo.NumPEs(); pe++ {
		if !bytes.Equal(fused.GetPEBuffer(pe, 0, span), plain.GetPEBuffer(pe, 0, span)) {
			return fmt.Errorf("fused sequence diverges from unfused at PE %d (%+v)", pe, sc)
		}
	}
	return inSession(fmach, pmach)
}

// runRooted runs a rooted collective (Gather, Reduce) once and returns
// its per-group host results.
func runRooted(c *core.Tenant, d core.Collective) ([][]byte, error) {
	cp, err := c.Compile(d)
	if err != nil {
		return nil, err
	}
	if _, err := cp.Run(); err != nil {
		return nil, err
	}
	return cp.Results(), nil
}
