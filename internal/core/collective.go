package core

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/elem"
)

// This file implements the descriptor-based collective API: one
// Collective struct describes any of the eight primitives, and exactly
// three entry points of a session (Tenant) consume it — Compile (plan
// once), Run (one-shot) and Submit (asynchronous) — and nothing else.
// What distinguishes the primitives — which regions they use, what sizes
// those imply, whether they reduce — is one static table (shapes), read
// by the single spec function (specIn), the cluster layer (cluster.go,
// with n = H×P) and the autotuner (auto.go).
//
// All offsets in a Collective are relative to the arena of the session
// that compiles it (tenant.go). Resolution validates every region against
// the arena bounds, which is what guarantees tenants cannot name — let
// alone alias — MRAM outside their arena. Plan keys and lowerings keep the
// relative offsets, and a functional run adds its plan's arena base: what
// a collective costs and how it lowers do not depend on where its arena
// sits (plan.go).

// Region is a per-PE MRAM byte range handle [Off, Off+Bytes). Offsets
// are arena-relative (see Collective). For region roles whose size the
// primitive implies (e.g. an AllGather destination is always n× the
// source), Bytes may be left zero; a non-zero Bytes must match the
// implied size exactly, which turns silent footprint mistakes into
// compile errors.
type Region struct {
	Off   int
	Bytes int
}

// At returns a Region at off whose size is implied by the primitive.
func At(off int) Region { return Region{Off: off} }

// Span returns the fully specified Region [off, off+bytes).
func Span(off, bytes int) Region { return Region{Off: off, Bytes: bytes} }

// Collective describes one collective call. The zero value of every
// optional field means "default": Level zero is Auto (the autotuner
// picks the cheapest applicable level), and a Dst/Src region with zero
// Bytes takes the size the primitive implies.
//
// Field use by primitive (n = group size; the shapes table below states
// the same rows in the same order):
//
//	AlltoAll       Src (bytes/PE), Dst (same size; may coincide with Src)
//	ReduceScatter  Src (bytes/PE), Dst (Src/n), Elem, Op
//	AllReduce      Src (bytes/PE), Dst (same size), Elem, Op
//	AllGather      Src (contribution), Dst (n×Src)
//	Scatter        Hosts (n×Dst per group), Dst (bytes/PE, explicit)
//	Gather         Src (bytes/PE), Hosts (n×Src per group, or nil)
//	Reduce         Src (bytes/PE), Elem, Op, Hosts (Src per group, or nil)
//	Broadcast      Hosts (one payload per group), Dst (payload size)
//
// A region or Hosts slice a primitive does not use must be left zero.
//
// Hosts buffers are bound by reference: a compiled plan reads (Scatter,
// Broadcast) or writes (Gather, Reduce) them on every Run.
type Collective struct {
	// Prim selects the primitive.
	Prim Primitive
	// Dims is the communication-dimension bitmap (e.g. "10" for the
	// x axis of a 2-D hypercube; see DimsString).
	Dims string
	// Src is the per-PE source region (unused for Scatter/Broadcast,
	// whose input is host-side).
	Src Region
	// Dst is the per-PE destination region (unused for Gather/Reduce,
	// whose output is host-side: Hosts).
	Dst Region
	// Elem and Op configure the reducing primitives (ReduceScatter,
	// AllReduce, Reduce); other primitives ignore them.
	Elem elem.Type
	Op   elem.Op
	// Level selects the optimization level; the zero value is Auto.
	Level Level
	// Algorithm selects the lowering algorithm (algorithm.go); the zero
	// value is AlgoAuto. With an explicit Level, AlgoAuto resolves to
	// AlgoReference (the built-in lowering); with Level Auto the
	// autotuner searches (algorithm x level). An explicit algorithm with
	// Level Auto searches only that algorithm's applicable levels.
	Algorithm Algorithm
	// Hosts is the host side of the rooted primitives, one buffer per
	// communication group, in group order. Gather and Reduce accept nil
	// (their plan writes its own: CompiledPlan.Results), and so does
	// Scatter on a cost-only backend (sizes are implied).
	Hosts [][]byte
}

// arena is the per-PE MRAM window a Collective's regions are resolved
// against. base is BankBurstBytes-aligned, so arena-relative alignment
// equals absolute alignment.
type arena struct{ base, size int }

// checkArenaRegion validates an arena-relative region common to all PEs.
func checkArenaRegion(ar arena, off, n int) error {
	if off < 0 || n < 0 || off > ar.size || n > ar.size-off {
		return fmt.Errorf("core: region at %d of %d bytes exceeds arena size %d", off, n, ar.size)
	}
	if off%dram.BankBurstBytes != 0 {
		return fmt.Errorf("core: offset %d not %d-byte aligned", off, dram.BankBurstBytes)
	}
	if n%dram.BankBurstBytes != 0 {
		return fmt.Errorf("core: size %d not a multiple of %d", n, dram.BankBurstBytes)
	}
	return nil
}

// resolveLocked returns the (algorithm, level) pair Compile(d) picks,
// compiling nothing: an explicit level keeps its effective value and
// AlgoAuto maps to AlgoReference (no search, identical plans and costs);
// Level Auto hands the pair to the autotuner, constrained to d.Algorithm
// when that is explicit, whose dry builds at d's offsets on the whole
// MRAM report a region that does not fit as Compile would. Whether an
// explicitly requested algorithm applies to the resolved call is
// Compile's check, not this one's. Callers hold compMu.
func (c *Comm) resolveLocked(d Collective) (Algorithm, Level, error) {
	if _, err := shapeOf(d.Prim); err != nil {
		return 0, 0, err
	}
	if d.Level < Auto || d.Level > CM {
		return 0, 0, fmt.Errorf("core: unknown level %v", d.Level)
	}
	if d.Level != Auto {
		alg := d.Algorithm
		if alg == AlgoAuto {
			alg = AlgoReference
		}
		return alg, EffectiveLevel(d.Prim, d.Level), nil
	}
	dec, err := c.autoResolve(d)
	if err != nil {
		return 0, 0, err
	}
	return dec.algo, dec.lvl, nil
}

// sizeRule derives the byte size of one role of a collective (the Dst
// region, one Hosts buffer) from the per-PE payload m and the group
// size n.
type sizeRule uint8

const (
	sizeNone     sizeRule = iota // the primitive does not use the role
	sizeSame                     // m
	sizePerRank                  // m/n: one block
	sizeAllRanks                 // n×m: one payload per rank
)

func (r sizeRule) of(m, n int) int {
	switch r {
	case sizePerRank:
		return m / n
	case sizeAllRanks:
		return n * m
	case sizeSame:
		return m
	}
	return 0
}

// shape is one row of the shape table: everything that distinguishes a
// primitive from the other seven.
type shape struct {
	// abbr and name are the paper's abbreviation and full name (Figure 2).
	abbr, name string
	// levels are the primitive's effective levels in ascending order: its
	// column of Table II, Baseline then every level whose technique
	// applies. EffectiveLevel and Auto's level axis read it.
	levels []Level
	// cluster is the primitive's row of the leg table (cluster.go);
	// AlltoAll's stays empty.
	cluster clusterShape
	// reducing primitives combine elements with (Elem, Op); the others
	// ignore both.
	reducing bool
	// blocked payloads are n blocks of m/n burst-aligned bytes.
	blocked bool
	// dst is the implied Dst size; sizeNone marks a rooted primitive,
	// whose output is host-side (Hosts) and which takes no Dst.
	dst sizeRule
	// host is the size of each Hosts buffer; sizeNone but for the rooted
	// primitives, whose host-input ones (with a Dst) take no Src.
	host sizeRule
	// sizedByHosts: the payload is the length of the Hosts buffers and
	// Dst.Bytes is implied by it (Broadcast). Otherwise a host-input
	// payload is Dst.Bytes, stated explicitly (Scatter).
	sizedByHosts bool
	// consumesSrc: levels from PR up rotate Src in place, so it counts as
	// written for hazard detection.
	consumesSrc bool
	// inPlaceOK: Src.Off == Dst.Off is legal (on the staged levels only,
	// see specIn); everywhere else any src/dst overlap is an error.
	inPlaceOK bool
}

func (sh *shape) hostInput() bool { return sh.host != sizeNone && !sh.rooted() }
func (sh *shape) rooted() bool    { return sh.dst == sizeNone }

// shapes is the shape table, indexed by Primitive.
var shapes = [...]shape{
	AlltoAll: {abbr: "AA", name: "AlltoAll", levels: []Level{Baseline, PR, IM, CM},
		blocked: true, dst: sizeSame, consumesSrc: true, inPlaceOK: true},
	ReduceScatter: {abbr: "RS", name: "ReduceScatter", levels: []Level{Baseline, PR, IM},
		reducing: true, blocked: true, dst: sizePerRank, consumesSrc: true,
		cluster: clusterShape{Reduce, wireAllPairs, "ring", Scatter}},
	AllReduce: {abbr: "AR", name: "AllReduce", levels: []Level{Baseline, PR, IM},
		reducing: true, blocked: true, dst: sizeSame, consumesSrc: true,
		cluster: clusterShape{Reduce, wireAllReduce, "", Broadcast}},
	AllGather: {abbr: "AG", name: "AllGather", levels: []Level{Baseline, PR, IM, CM},
		dst: sizeAllRanks, cluster: clusterShape{Gather, wireAllPairs, "allgather", Broadcast}},
	Scatter: {abbr: "Sc", name: "Scatter", levels: []Level{Baseline, IM},
		dst: sizeSame, host: sizeAllRanks, cluster: clusterShape{noLeg, wireRooted, "scatter", Scatter}},
	Gather: {abbr: "Ga", name: "Gather", levels: []Level{Baseline, IM},
		host: sizeAllRanks, cluster: clusterShape{Gather, wireRooted, "gather", noLeg}},
	Reduce: {abbr: "Re", name: "Reduce", levels: []Level{Baseline, PR, IM},
		reducing: true, blocked: true, host: sizeSame, consumesSrc: true,
		cluster: clusterShape{Reduce, wireRooted, "reduce", noLeg}},
	Broadcast: {abbr: "Br", name: "Broadcast", levels: []Level{Baseline},
		dst: sizeSame, host: sizeSame, sizedByHosts: true,
		cluster: clusterShape{noLeg, wireFanOut, "fanout", Broadcast}},
}

// shapeOf returns p's row of the shape table.
func shapeOf(p Primitive) (*shape, error) {
	if !p.known() {
		return nil, fmt.Errorf("core: unknown primitive %v", p)
	}
	return &shapes[p], nil
}

// payload returns d's per-PE payload size m, the quantity every other
// size of the call derives from (and the bytes of an Auto signature).
func (sh *shape) payload(d Collective) int {
	switch {
	case !sh.hostInput():
		return d.Src.Bytes
	case sh.sizedByHosts && len(d.Hosts) > 0:
		return len(d.Hosts[0])
	}
	return d.Dst.Bytes
}

// inPlace reports whether d is an in-place call of a primitive that has
// one.
func (sh *shape) inPlace(d Collective) bool { return sh.inPlaceOK && d.Src.Off == d.Dst.Off }

// check validates d against its row for a communicator of groups groups
// of n ranks whose regions live in ar — everything about a descriptor
// that does not depend on the resolved (algorithm, level) — and returns
// the payload m and the block size s (== m where the primitive has no
// blocks). nilHosts lets a host-input descriptor leave Hosts nil, as a
// rooted one may: a cost-only caller whose payload size Dst.Bytes states.
func (sh *shape) check(ar arena, d Collective, n, groups int, nilHosts bool) (m, s int, err error) {
	if d.Hosts != nil && sh.host == sizeNone {
		return 0, 0, fmt.Errorf("core: takes no host payload (Hosts must be nil)")
	}
	if sh.hostInput() && d.Src != (Region{}) {
		return 0, 0, fmt.Errorf("core: input is host-side (Hosts), not a Src region")
	}
	if sh.rooted() && d.Dst != (Region{}) {
		return 0, 0, fmt.Errorf("core: output is host-side (Hosts), not a Dst region")
	}
	if sh.reducing {
		if err := checkElem(d.Elem, d.Op); err != nil {
			return 0, 0, err
		}
	}
	// Each region bounds the payload by the arena before a larger size
	// (n×m) is derived from it, so the derivations cannot overflow: Src
	// here, a host-input Dst — which is the payload — below.
	m = sh.payload(d)
	if m <= 0 {
		// An empty call moves nothing: a malformed descriptor, not a plan.
		return 0, 0, fmt.Errorf("core: empty payload")
	}
	if !sh.hostInput() {
		if err := checkArenaRegion(ar, d.Src.Off, m); err != nil {
			return 0, 0, err
		}
	}
	s = m
	if sh.blocked {
		if s, err = blockSize(m, n); err != nil {
			return 0, 0, err
		}
	}
	if !sh.rooted() {
		dst := sh.dst.of(m, n)
		if d.Dst.Bytes != 0 && d.Dst.Bytes != dst {
			return 0, 0, fmt.Errorf("core: Dst region has %d bytes, want %d (or 0 for the implied size)", d.Dst.Bytes, dst)
		}
		if err := checkArenaRegion(ar, d.Dst.Off, dst); err != nil {
			return 0, 0, err
		}
		if !sh.hostInput() && overlap(d.Src.Off, m, d.Dst.Off, dst) && !sh.inPlace(d) {
			return 0, 0, fmt.Errorf("core: src [%d,%d) and dst [%d,%d) overlap",
				d.Src.Off, d.Src.Off+m, d.Dst.Off, d.Dst.Off+dst)
		}
	}
	if d.Hosts != nil || sh.hostInput() && !nilHosts {
		if len(d.Hosts) != groups {
			return 0, 0, fmt.Errorf("core: %d host buffers for %d groups", len(d.Hosts), groups)
		}
		want := sh.host.of(m, n)
		for g, b := range d.Hosts {
			if len(b) != want {
				return 0, 0, fmt.Errorf("core: host buffer %d has %d bytes, want %d", g, len(b), want)
			}
		}
	}
	return m, s, nil
}

// specIn validates d against the arena, resolves Auto, and returns the
// plan spec (cache key, resolved call, lowering-table row) without
// lowering anything — the front half of CompileSequence, the cluster
// layer's local legs and Auto's dry builds. dry marks the last: a
// candidate is only traced, never run, so its host payload may be left
// out wherever the descriptor states its size, as on a cost-only comm.
// Callers hold compMu.
func (c *Comm) specIn(ar arena, d Collective, dry bool) (spec planSpec, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s: %w", d.Prim.LongName(), err)
		}
	}()
	sh, err := shapeOf(d.Prim)
	if err != nil {
		return planSpec{}, err
	}
	p, err := c.planLocked(d.Dims)
	if err != nil {
		return planSpec{}, err
	}
	// Only a payload whose size the descriptor states can be left out on
	// the cost-only backend.
	m, s, err := sh.check(ar, d, p.n, len(p.groups), (dry || !c.backend.Functional()) && !sh.sizedByHosts)
	if err != nil {
		return planSpec{}, err
	}
	alg, eff, err := c.resolveLocked(d)
	if err != nil {
		return planSpec{}, err
	}
	if sh.inPlace(d) && eff >= IM {
		// The staged levels' full host staging buffer decouples every read
		// from every write; the streaming engine overwrites destination
		// blocks before later source blocks are read. Auto skips IM/CM.
		return planSpec{}, fmt.Errorf("core: %v/%v cannot run in place: the streaming engine overwrites source blocks before reading them; use Baseline, PR or Auto", d.Prim.LongName(), eff)
	}
	spec = planSpec{env: algoEnv{planKey: planKey{prim: d.Prim, dims: d.Dims, bytes: m, lvl: eff, algo: alg}, p: p, s: s}}
	env := &spec.env
	if sh.reducing {
		env.elemType, env.op = d.Elem, d.Op
	}
	if !sh.hostInput() {
		env.srcOff = d.Src.Off
		spec.src, spec.consumed = span{d.Src.Off, m}, sh.consumesSrc && eff >= PR
	}
	if !sh.rooted() {
		env.dstOff = d.Dst.Off
		spec.dst = span{d.Dst.Off, sh.dst.of(m, p.n)}
	}
	if spec.lo, err = loweringOf(alg, d.Prim, eff, p.n); err != nil {
		return planSpec{}, err
	}
	return spec, nil
}
