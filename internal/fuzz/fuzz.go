// Package fuzz holds the randomized differential-testing core shared by
// cmd/pidfuzz (the long-running standalone binary) and the in-process
// smoke tests that run a small number of scenarios in CI.
//
// Each differential check is stated once, as a row of one table,
// checks: the eight primitives and the in-place AlltoAll, each compared
// against the reference model by check.verify on any communicator. Two
// drivers supply the communicators. Scenario.Check runs every row on
// every hypercube group of a fresh machine of a scenario Random draws
// (geometry, shape, dims, block size, element type, operator, worker
// count and level, Auto included), in a session behind a pad session,
// then diffs a fused AlltoAll→ReduceScatter sequence against an unfused
// one. ClusterScenario.Check runs every row but the in-place one on the
// one group of a cluster's global ranks, and requires a cost-only twin
// cluster's breakdowns to equal the functional ones. Both check that
// nothing ran outside the sessions of every machine: its meter equals its
// snapshot's, bit for bit. ServingScenario drives online-serving mixes.
package fuzz

import (
	"bytes"
	"fmt"
	"math/rand"

	invariants "repro/internal/check"
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

// Random draws a scenario. The Auto pseudo-level is among the
// optimization-level choices, exercising the autotuner's dry-run/cache
// path on every primitive.
func Random(rng *rand.Rand) Scenario {
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

	levels := append(core.Levels(), core.Auto)
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
		Typ:     elem.Types()[rng.Intn(len(elem.Types()))],
		Op:      elem.Ops()[rng.Intn(len(elem.Ops()))],
		Workers: 1 + rng.Intn(4),
		Algo:    algo,
	}
}

// Check runs every row of checks on every hypercube group of a fresh
// machine of the scenario and returns an error naming the first
// divergence from the reference model.
func (sc Scenario) Check(rng *rand.Rand) error {
	var machines []*core.Comm
	for _, k := range checks {
		mach, s, err := sc.session(core.FuseFull)
		if err != nil {
			return err
		}
		machines = append(machines, mach)
		r, err := sessionRanks(mach, s, sc.Dims)
		if err != nil {
			return err
		}
		d := core.Collective{Dims: sc.Dims, Elem: sc.Typ, Op: sc.Op, Level: sc.Lvl}
		if k.prim == core.AllReduce {
			d.Algorithm = sc.Algo
		}
		if err := k.verify(rng, r, d, sc.S); err != nil {
			return fmt.Errorf("%w (%+v)", err, sc)
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

// sessionRanks wraps a session of machine c as the ranks of the
// hypercube groups dims selects: a rank is a PE, and a run compiles,
// runs and returns the plan's rooted results.
func sessionRanks(c *core.Comm, s *core.Tenant, dims string) (ranks, error) {
	groups, err := c.Hypercube().Groups(dims)
	return ranks{groups: groups, set: s.SetPEBuffer, get: s.GetPEBuffer,
		run: func(d core.Collective) ([][]byte, error) {
			cp, err := s.Compile(d)
			if err != nil {
				return nil, err
			}
			if _, err := cp.Run(); err != nil {
				return nil, err
			}
			return cp.Results(), nil
		}}, err
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
// meter — the fold of the session meters — bit for bit. The quiescent
// snapshot must also hold every check.Snapshot invariant.
func inSession(machines ...*core.Comm) error {
	for _, c := range machines {
		s := c.Snapshot()
		if got := c.Meter().Snapshot(); got != s.Meter {
			return fmt.Errorf("machine meter %v != session meters %v: a collective ran outside every session", got, s.Meter)
		}
		if err := invariants.Snapshot(nil, s, c.Hypercube().System().MramSize(), true); err != nil {
			return fmt.Errorf("machine snapshot: %w", err)
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
