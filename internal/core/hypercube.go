package core

import (
	"fmt"
	"strings"

	"repro/internal/dram"
)

// Hypercube is the user-defined virtual hypercube of § IV-B: an
// N-dimensional box whose nodes are transparently mapped to physical PEs.
// Dimension 0 is "x" (the fastest-varying), dimension 1 is "y", and so on.
//
// Shape constraints (§ IV-B1): every dimension length must be a positive
// power of two, except the last, and the product must equal the number of
// PEs in the system. The mapping (§ IV-C, Figure 6) assigns hypercube
// nodes to PEs in linear order, where PE linear order follows the DRAM
// hierarchy chip -> bank -> rank -> channel; entangled groups therefore
// occupy 8 consecutive hypercube nodes along the lowest dimensions, which
// is what keeps every burst fully utilized no matter which dimensions a
// communication selects.
type Hypercube struct {
	shape []int
	sys   *dram.System
}

// NewHypercube validates shape against the system and returns the manager.
func NewHypercube(sys *dram.System, shape []int) (*Hypercube, error) {
	if len(shape) == 0 {
		return nil, fmt.Errorf("core: empty hypercube shape")
	}
	prod := 1
	for d, l := range shape {
		if l <= 0 {
			return nil, fmt.Errorf("core: dimension %d has non-positive length %d", d, l)
		}
		if d != len(shape)-1 && l&(l-1) != 0 {
			return nil, fmt.Errorf("core: dimension %d length %d must be a power of two (only the last dimension may not be)", d, l)
		}
		prod *= l
	}
	if n := sys.Geometry().NumPEs(); prod != n {
		return nil, fmt.Errorf("core: shape product %d != %d PEs", prod, n)
	}
	cp := append([]int(nil), shape...)
	return &Hypercube{shape: cp, sys: sys}, nil
}

// Shape returns a copy of the hypercube shape.
func (hc *Hypercube) Shape() []int { return append([]int(nil), hc.shape...) }

// System returns the underlying memory system.
func (hc *Hypercube) System() *dram.System { return hc.sys }

// NodePE maps hypercube coordinates to the linear PE index. Coordinate 0
// is the x dimension.
func (hc *Hypercube) NodePE(coord []int) int {
	if len(coord) != len(hc.shape) {
		panic(fmt.Sprintf("core: coordinate rank %d != %d dims", len(coord), len(hc.shape)))
	}
	idx := 0
	stride := 1
	for d, c := range coord {
		if c < 0 || c >= hc.shape[d] {
			panic(fmt.Sprintf("core: coordinate %d out of range for dim %d (len %d)", c, d, hc.shape[d]))
		}
		idx += c * stride
		stride *= hc.shape[d]
	}
	return idx
}

// PECoord is the inverse of NodePE.
func (hc *Hypercube) PECoord(pe int) []int {
	if pe < 0 || pe >= hc.sys.Geometry().NumPEs() {
		panic(fmt.Sprintf("core: PE %d out of range", pe))
	}
	coord := make([]int, len(hc.shape))
	for d, l := range hc.shape {
		coord[d] = pe % l
		pe /= l
	}
	return coord
}

// ParseDims parses a comm_dimensions bitmap string (Figure 10): character
// i selects dimension i ("100" selects x in a 3-D cube, "101" selects x
// and z). The string length must equal the number of dimensions and at
// least one dimension must be selected.
func (hc *Hypercube) ParseDims(dims string) ([]bool, error) {
	if len(dims) != len(hc.shape) {
		return nil, fmt.Errorf("core: dims %q has %d characters, hypercube has %d dimensions", dims, len(dims), len(hc.shape))
	}
	sel := make([]bool, len(dims))
	any := false
	for i, ch := range dims {
		switch ch {
		case '1':
			sel[i] = true
			any = true
		case '0':
		default:
			return nil, fmt.Errorf("core: dims %q contains %q; want only '0'/'1'", dims, string(ch))
		}
	}
	if !any {
		return nil, fmt.Errorf("core: dims %q selects no dimension", dims)
	}
	return sel, nil
}

// plan precomputes the communication groups for one dims selection: the
// cube slices of § IV-B2. Every PE belongs to exactly one group
// (multi-instance invocation, § IV-B3); member ranks follow the selected
// dimensions with the lowest selected dimension varying fastest, matching
// the node order within slices.
type plan struct {
	dims    []bool
	n       int     // group size
	groups  [][]int // group index -> rank -> linear PE
	groupOf []int32 // PE -> group index
	rankOf  []int32 // PE -> rank within group

	// pes/ranks are the precomputed full-machine kernel-launch lists
	// (launchLists), immutable after buildPlan.
	pes, ranks []int
}

// buildPlan enumerates groups for the dims selection.
func (hc *Hypercube) buildPlan(dims string) (*plan, error) {
	sel, err := hc.ParseDims(dims)
	if err != nil {
		return nil, err
	}
	n := 1
	numGroups := 1
	for d, l := range hc.shape {
		if sel[d] {
			n *= l
		} else {
			numGroups *= l
		}
	}
	numPEs := hc.sys.Geometry().NumPEs()
	p := &plan{
		dims:    sel,
		n:       n,
		groups:  make([][]int, numGroups),
		groupOf: make([]int32, numPEs),
		rankOf:  make([]int32, numPEs),
		pes:     make([]int, numPEs),
		ranks:   make([]int, numPEs),
	}
	// One backing array for all groups and PECoord's arithmetic in place: a
	// cold plan allocates a constant number of objects, not one per PE.
	members := make([]int, numPEs)
	for g := range p.groups {
		p.groups[g] = members[g*n : (g+1)*n : (g+1)*n]
	}
	for pe := 0; pe < numPEs; pe++ {
		rank, rankStride := 0, 1
		group, groupStride := 0, 1
		rest := pe
		for d, l := range hc.shape {
			if sel[d] {
				rank += rest % l * rankStride
				rankStride *= l
			} else {
				group += rest % l * groupStride
				groupStride *= l
			}
			rest /= l
		}
		p.groups[group][rank] = pe
		p.groupOf[pe], p.rankOf[pe] = int32(group), int32(rank)
		p.pes[pe], p.ranks[pe] = pe, rank
	}
	return p, nil
}

// launchLists returns the full-machine PE list and per-PE group ranks
// for a kernel launch over every PE — shared by the functional launcher
// and the cost backend's analytic accounting so the two can't drift.
// The lists are precomputed by buildPlan and immutable; callers must not
// modify them.
func (p *plan) launchLists() (pes, ranks []int) { return p.pes, p.ranks }

// Groups returns, for the dims selection, the communication groups as
// ordered PE lists (rank order within each group). The group order is the
// flattened order of the unselected dimensions (lowest fastest); this is
// also the order of per-group host buffers in rooted primitives.
func (hc *Hypercube) Groups(dims string) ([][]int, error) {
	p, err := hc.buildPlan(dims) // a fresh plan: the caller owns its groups
	if err != nil {
		return nil, err
	}
	return p.groups, nil
}

// DimsString builds a dims bitmap selecting the given dimension indices,
// e.g. DimsString(3, 0, 2) == "101".
func DimsString(numDims int, selected ...int) string {
	b := []byte(strings.Repeat("0", numDims))
	for _, d := range selected {
		if d < 0 || d >= numDims {
			panic(fmt.Sprintf("core: dimension %d out of range", d))
		}
		b[d] = '1'
	}
	return string(b)
}
