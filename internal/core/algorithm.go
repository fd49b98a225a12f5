package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/elem"
)

// This file implements the algorithm axis of a collective: a Collective
// carries an Algorithm alongside its Level, and a process-wide registry
// maps (primitive, algorithm) to alternative schedule-IR producers.
// Every primitive has a built-in reference lowering (schedule.go);
// packages register alternatives — classic MPI shapes like ring, tree
// and Rabenseifner RS+AG live in internal/algo — and the autotuner
// (auto.go) searches over (algorithm x level). Registered lowerings MUST
// be byte-identical to the reference on the functional backend: an
// algorithm only changes where time is charged (which lanes, in what
// order), never what the collective computes.

// Algorithm names one lowering strategy for a collective. The zero value
// is AlgoAuto: the autotuner picks among the reference lowering and the
// registered alternatives. Like Level, the concrete values form a small
// closed set so Algorithm can sit in plan-cache keys by value.
type Algorithm int

const (
	// AlgoAuto lets the autotuner choose. When the Level is explicit
	// (non-Auto), AlgoAuto resolves to AlgoReference so pre-algorithm
	// call sites keep their exact lowering and cost; the (algorithm x
	// level) search runs when the Level is Auto too.
	AlgoAuto Algorithm = iota
	// AlgoReference is the built-in lowering of schedule.go (and the
	// hierarchical ring of cluster.go at the host level).
	AlgoReference
	// AlgoRing is a ring algorithm: n-1 reduce-scatter hops plus n-1
	// allgather hops of one block each (bandwidth-optimal wire volume).
	AlgoRing
	// AlgoTree is a binomial tree: ceil(log2 n) reduce-up rounds plus
	// ceil(log2 n) broadcast-down rounds of the full payload (fewest
	// rounds; pays full-payload hops).
	AlgoTree
	// AlgoRabenseifner is the Rabenseifner composition: ReduceScatter
	// followed by AllGather through a machine-wide staged exchange.
	AlgoRabenseifner
)

// Algorithms returns the concrete algorithm identifiers (excluding
// AlgoAuto), in declaration order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoReference, AlgoRing, AlgoTree, AlgoRabenseifner}
}

func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "Auto"
	case AlgoReference:
		return "ref"
	case AlgoRing:
		return "ring"
	case AlgoTree:
		return "tree"
	case AlgoRabenseifner:
		return "rsag"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm parses an Algorithm name as printed by String
// ("Auto", "ref", "ring", "tree", "rsag").
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range append([]Algorithm{AlgoAuto}, Algorithms()...) {
		if s == a.String() {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want Auto, ref, ring, tree or rsag)", s)
}

// AlgoEnv is the lowering context handed to a registered algorithm: the
// resolved call (primitive, effective level, absolute offsets, sizes,
// element/op) plus accessors into the comm's sharded execution helpers.
// Lowerings build their Schedule from the exported step types
// (schedule.go); closures captured in steps run under the comm's
// execution lock, so the EachGroup* helpers are safe to call from a
// Modulate or HostCompute body.
type AlgoEnv struct {
	c      *Comm
	p      *plan
	prim   Primitive
	eff    Level
	srcOff int
	dstOff int
	m      int // bytes per PE (the host payload size for Broadcast/Scatter)
	s      int // block size m/n (== m where the primitive has no blocks)
	t      elem.Type
	op     elem.Op
	hosts  [][]byte
}

// Primitive returns the collective primitive being lowered.
func (e *AlgoEnv) Primitive() Primitive { return e.prim }

// Level returns the resolved effective optimization level.
func (e *AlgoEnv) Level() Level { return e.eff }

// SrcOff and DstOff are the absolute per-PE MRAM offsets of the call's
// source and destination regions (already arena-translated).
func (e *AlgoEnv) SrcOff() int { return e.srcOff }

// DstOff is documented with SrcOff.
func (e *AlgoEnv) DstOff() int { return e.dstOff }

// BytesPerPE returns the per-PE payload size m (the host payload size
// for Broadcast/Scatter).
func (e *AlgoEnv) BytesPerPE() int { return e.m }

// BlockSize returns the block size s = m / GroupSize for
// block-structured primitives (== BytesPerPE where blocks don't apply).
func (e *AlgoEnv) BlockSize() int { return e.s }

// Elem and Op return the element type and operator of a reducing call.
func (e *AlgoEnv) Elem() elem.Type { return e.t }

// Op is documented with Elem.
func (e *AlgoEnv) Op() elem.Op { return e.op }

// GroupSize returns n, the number of PEs per communication group.
func (e *AlgoEnv) GroupSize() int { return e.p.n }

// NumGroups returns the number of communication groups.
func (e *AlgoEnv) NumGroups() int { return len(e.p.groups) }

// Group returns the PE ids of group g in rank order. The slice is shared
// and must not be modified.
func (e *AlgoEnv) Group(g int) []int { return e.p.groups[g] }

// TotalPEs returns the machine's PE count.
func (e *AlgoEnv) TotalPEs() int { return len(e.p.groupOf) }

// HostPayload returns group g's host-side payload buffer (Broadcast/
// Scatter; nil entries occur on cost-only dry runs).
func (e *AlgoEnv) HostPayload(g int) []byte {
	if g >= len(e.hosts) {
		return nil
	}
	return e.hosts[g]
}

// MachineBytes returns the machine-wide byte count of a perPE-sized
// region (the size of a full staging buffer; the usual Charge volume).
func (e *AlgoEnv) MachineBytes(perPE int) int64 { return e.c.numPEBytes(perPE) }

// BulkOut returns the comm's reusable n-byte modulation output arena for
// StepBulk Modulate closures that fully overwrite their output.
func (e *AlgoEnv) BulkOut(n int) []byte { return e.c.bulkOut(n) }

// EachGroup runs fn(g, pes) for every communication group, sharded
// across the comm's worker pool. fn must only write state owned by its
// group. Call only from schedule closures (the executor holds the lock).
func (e *AlgoEnv) EachGroup(fn func(g int, pes []int)) {
	p := e.p
	e.c.groupsDo(len(p.groups), func(g int) { fn(g, p.groups[g]) })
}

// EachGroupScratch is EachGroup with a bytes-sized scratch slab per
// worker shard (reused across runs).
func (e *AlgoEnv) EachGroupScratch(bytes int, fn func(g int, pes []int, scratch []byte)) {
	p := e.p
	e.c.groupsDoScratch(len(p.groups), bytes, func(g int, scratch []byte) { fn(g, p.groups[g], scratch) })
}

// AlgoSpec registers one algorithm for one primitive.
type AlgoSpec struct {
	// Algo identifies the algorithm (must not be AlgoAuto or
	// AlgoReference — the reference lowering is built in).
	Algo Algorithm
	// Prim is the primitive the lowering implements.
	Prim Primitive
	// Applies reports whether the lowering can implement the resolved
	// call (nil means always applicable). Inapplicable candidates are
	// skipped by the autotuner and rejected with an error when requested
	// explicitly.
	Applies func(e *AlgoEnv) bool
	// Lower produces the schedule. It must be byte-identical to the
	// reference lowering on the functional backend.
	Lower func(e *AlgoEnv) *Schedule
}

// The process-wide algorithm registry. Registration happens in package
// init functions (internal/algo), so the guard is for safety, not
// contention.
var (
	algoMu    sync.RWMutex
	algoReg   = map[Primitive]map[Algorithm]AlgoSpec{}
	algoOrder = map[Primitive][]Algorithm{}
)

// RegisterAlgorithm adds an algorithm lowering to the registry. It
// panics on an invalid spec or a duplicate (primitive, algorithm)
// registration — registration is an init-time programming act, not a
// runtime input.
func RegisterAlgorithm(sp AlgoSpec) {
	if sp.Algo == AlgoAuto || sp.Algo == AlgoReference {
		panic(fmt.Sprintf("core: cannot register %v (reserved)", sp.Algo))
	}
	if sp.Lower == nil {
		panic("core: RegisterAlgorithm with nil Lower")
	}
	algoMu.Lock()
	defer algoMu.Unlock()
	if algoReg[sp.Prim] == nil {
		algoReg[sp.Prim] = map[Algorithm]AlgoSpec{}
	}
	if _, dup := algoReg[sp.Prim][sp.Algo]; dup {
		panic(fmt.Sprintf("core: duplicate algorithm %v for %v", sp.Algo, sp.Prim))
	}
	algoReg[sp.Prim][sp.Algo] = sp
	algoOrder[sp.Prim] = append(algoOrder[sp.Prim], sp.Algo)
	sort.Slice(algoOrder[sp.Prim], func(i, j int) bool {
		return algoOrder[sp.Prim][i] < algoOrder[sp.Prim][j]
	})
}

// RegisteredAlgorithms returns the algorithms available for a primitive:
// AlgoReference first, then the registered alternatives in Algorithm
// order (deterministic regardless of registration order).
func RegisteredAlgorithms(prim Primitive) []Algorithm {
	algoMu.RLock()
	defer algoMu.RUnlock()
	out := []Algorithm{AlgoReference}
	out = append(out, algoOrder[prim]...)
	return out
}

// algoSpecOf looks up a registered algorithm for a primitive.
func algoSpecOf(prim Primitive, alg Algorithm) (AlgoSpec, error) {
	algoMu.RLock()
	defer algoMu.RUnlock()
	sp, ok := algoReg[prim][alg]
	if !ok {
		return AlgoSpec{}, fmt.Errorf("core: no %v algorithm registered for %v (have %v)",
			alg, prim.LongName(), registeredLocked(prim))
	}
	return sp, nil
}

// registeredLocked is RegisteredAlgorithms for callers already holding
// algoMu (error formatting inside algoSpecOf).
func registeredLocked(prim Primitive) []Algorithm {
	out := []Algorithm{AlgoReference}
	return append(out, algoOrder[prim]...)
}

// checkAlgo validates an explicitly requested algorithm against the
// registry and its applicability predicate for the resolved call.
// AlgoReference always passes.
func checkAlgo(alg Algorithm, env *AlgoEnv) error {
	if alg == AlgoReference {
		return nil
	}
	sp, err := algoSpecOf(env.prim, alg)
	if err != nil {
		return err
	}
	if sp.Applies != nil && !sp.Applies(env) {
		return fmt.Errorf("core: algorithm %v does not apply to %v at level %v (use AlgoAuto or another level)",
			alg, env.prim.LongName(), env.eff)
	}
	return nil
}

// algoLower lowers the resolved call: through the shape table's
// reference lowering for AlgoReference, the registered lowering
// otherwise. The spec was validated by checkAlgo at spec time, so the
// lookup here cannot fail. cp is the plan being compiled (the rooted
// reference lowerings bind its result buffers).
func algoLower(alg Algorithm, env *AlgoEnv, cp *CompiledPlan) *Schedule {
	if alg == AlgoReference {
		return shapes[env.prim].lower(env, cp)
	}
	sp, err := algoSpecOf(env.prim, alg)
	if err != nil {
		panic(err) // unreachable: validated at spec time
	}
	return sp.Lower(env)
}
