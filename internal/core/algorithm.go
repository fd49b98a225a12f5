package core

import "fmt"

// This file is the algorithm axis of a collective: a Collective carries
// an Algorithm alongside its Level, and two static tables say everything
// the rest of the package knows about one. algorithms has a row per
// Algorithm — its name and, for ring and tree, its shape as the
// host-level wire leg of a cluster AllReduce (cluster.go); lowerings has
// a row per (primitive, algorithm) — when it applies and how it lowers to
// schedule IR. The AlgoReference rows are the paper's lowerings
// (schedule.go), the alternatives are classic MPI shapes (lowering.go),
// and the autotuner (auto.go) searches (algorithm x level) over the rows
// of one primitive. Every lowering MUST be byte-identical to the
// reference on the functional backend: an algorithm only changes where
// time is charged (which lanes, in what order), never what the
// collective computes.

// Algorithm names one lowering strategy for a collective. The zero value
// is AlgoAuto: the autotuner picks among the reference lowering and the
// alternatives. Like Level, the concrete values form a small closed set
// so Algorithm can sit in plan-cache keys by value.
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

// algorithms is the algorithm table, indexed by Algorithm.
var algorithms = [...]struct {
	name string
	// wire is the algorithm's shape as the host-level leg of a cluster
	// AllReduce over H hosts whose merged buffer has global bytes: rounds ×
	// bytes per round. nil: the algorithm has no host-level form.
	wire func(H, global int) (rounds, bytes int)
}{
	AlgoAuto:      {name: "Auto"},
	AlgoReference: {name: "ref"},
	// One reduced 1/H portion per round, there and back.
	AlgoRing: {"ring", func(H, global int) (int, int) { return 2 * (H - 1), global / H }},
	// Up and down a binary host tree with the whole buffer: fewer, fatter
	// rounds, so it wins where the per-round latency dominates.
	AlgoTree:         {"tree", func(H, global int) (int, int) { return 2 * ceilLog2(H), global }},
	AlgoRabenseifner: {name: "rsag"},
}

// Algorithms returns the concrete algorithm identifiers (excluding
// AlgoAuto), in declaration order.
func Algorithms() []Algorithm {
	out := make([]Algorithm, 0, len(algorithms)-1)
	for a := AlgoAuto + 1; int(a) < len(algorithms); a++ {
		out = append(out, a)
	}
	return out
}

func (a Algorithm) String() string {
	if a >= 0 && int(a) < len(algorithms) {
		return algorithms[a].name
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm parses an Algorithm name as printed by String
// ("Auto", "ref", "ring", "tree", "rsag").
func ParseAlgorithm(s string) (Algorithm, error) {
	names := make([]string, len(algorithms))
	for a, row := range algorithms {
		if row.name == s {
			return Algorithm(a), nil
		}
		names[a] = row.name
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want one of %v)", s, names)
}

// algoEnv is the resolved call a lowering reads: its key (primitive,
// effective level, arena-relative offsets, payload bytes, element/op), the
// group plan, the block size and its first payload's index in its plan's
// hosts. It names no comm: the schedule's closures take the comm that
// executes them, under its execution lock, for its running plan.
type algoEnv struct {
	planKey
	p     *plan
	s     int // block size bytes/n (== bytes where the primitive has no blocks)
	hosts int
}

// lowering is one row of the lowering table.
type lowering struct {
	// applies reports whether the row can implement a call at effective
	// level eff over groups of n ranks (nil means always). Auto skips an
	// inapplicable candidate; an explicit request for one is an error.
	applies func(eff Level, n int) bool
	// lower produces the schedule.
	lower func(e *algoEnv) *Schedule
}

// lowerings is the lowering table, indexed by Primitive, then Algorithm.
var lowerings = [len(shapes)][len(algorithms)]lowering{
	AlltoAll:      {AlgoReference: {lower: lowerAlltoAll}},
	ReduceScatter: {AlgoReference: {lower: lowerReduceScatter}},
	AllReduce: {
		AlgoReference:    {lower: lowerAllReduce},
		AlgoRing:         {baselineMulti, lowerRingAllReduce},
		AlgoTree:         {baselineMulti, lowerTreeAllReduce},
		AlgoRabenseifner: {baselineMulti, lowerRsagAllReduce},
	},
	AllGather: {AlgoReference: {lower: lowerAllGather}},
	Scatter:   {AlgoReference: {lower: lowerScatter}},
	Gather:    {AlgoReference: {lower: lowerGather}},
	Reduce:    {AlgoReference: {lower: lowerReduce}},
	Broadcast: {
		AlgoReference: {lower: lowerBroadcast},
		AlgoRing:      {baselineMulti, lowerRingBroadcast},
		AlgoTree:      {baselineMulti, lowerTreeBroadcast},
	},
}

// RegisteredAlgorithms returns the algorithms the table has a lowering
// of prim for, in Algorithm order (AlgoReference first): the candidates
// Auto scans.
func RegisteredAlgorithms(prim Primitive) []Algorithm {
	if _, err := shapeOf(prim); err != nil {
		return nil
	}
	out := make([]Algorithm, 0, len(algorithms))
	for alg, row := range lowerings[prim] {
		if row.lower != nil {
			out = append(out, Algorithm(alg))
		}
	}
	return out
}

// loweringOf returns the table row of an explicitly requested algorithm
// for a resolved call of prim (which specIn has checked) at effective
// level eff over groups of n ranks, or why the call cannot have it: no
// such row, or a row that does not apply.
func loweringOf(alg Algorithm, prim Primitive, eff Level, n int) (*lowering, error) {
	if alg < 0 || int(alg) >= len(algorithms) || lowerings[prim][alg].lower == nil {
		return nil, fmt.Errorf("core: no %v algorithm for %v (have %v)",
			alg, prim.LongName(), RegisteredAlgorithms(prim))
	}
	row := &lowerings[prim][alg]
	if row.applies != nil && !row.applies(eff, n) {
		return nil, fmt.Errorf("core: algorithm %v does not apply to %v at level %v (use AlgoAuto or another level)",
			alg, prim.LongName(), eff)
	}
	return row, nil
}
