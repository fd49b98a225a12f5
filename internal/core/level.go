package core

import (
	"fmt"
	"slices"
)

// Level selects how much of PID-Comm's optimization stack a collective
// uses. Levels are cumulative (§ V-A takes "three progressive steps from
// the baseline"): each level includes all techniques of the previous one.
// Not every technique applies to every primitive (Table II); requesting a
// level beyond what a primitive supports uses the highest applicable one
// (see EffectiveLevel).
type Level int

const (
	// Auto is a pseudo-level and the Level zero value, so a Collective
	// descriptor that leaves Level unset is autotuned: the collective
	// dry-runs every applicable level on the cost-only backend, picks
	// the cheapest for the (primitive, dims, payload, element type)
	// signature, caches the decision on the Comm, and executes with it.
	// See Tenant.Resolve.
	//
	// Auto is resolved to a concrete level at every collective entry
	// point; it must never reach EffectiveLevel or a schedule builder.
	Auto Level = iota
	// Baseline is the conventional design (Figure 3a / Figure 7a):
	// UPMEM-SDK-style bulk transfers with automatic domain transfer,
	// global data modulation in host memory by the host alone.
	Baseline
	// PR adds PE-assisted reordering (§ V-A1): PEs locally pre/post-
	// reorder their data so the host's modulation becomes local and
	// cache-friendly.
	PR
	// IM adds in-register modulation (§ V-A2): the host-side modulation
	// working set fits vector registers, so staging in host memory is
	// eliminated entirely.
	IM
	// CM adds cross-domain modulation (§ V-A3): for primitives without
	// host arithmetic the domain transfers fuse with the word shifts into
	// single byte-level shifts, eliminating DT.
	CM
)

// Levels lists all concrete levels in ascending order (Auto excluded).
func Levels() []Level { return []Level{Baseline, PR, IM, CM} }

// String returns the label used in the ablation study (Figure 16).
func (l Level) String() string {
	if l < Auto || l > CM {
		return fmt.Sprintf("Level(%d)", int(l))
	}
	return [...]string{Auto: "Auto", Baseline: "Base", PR: "+PR", IM: "+IM", CM: "+CM"}[l]
}

// Primitive identifies one of the eight collective communication
// primitives (Figure 2).
type Primitive int

const (
	// AlltoAll: block j of rank i ends as block i of rank j.
	AlltoAll Primitive = iota
	// ReduceScatter: block p, reduced elementwise over all ranks, ends on
	// rank p.
	ReduceScatter
	// AllReduce: every rank ends with the full elementwise reduction.
	AllReduce
	// AllGather: every rank ends with the concatenation of all ranks'
	// buffers.
	AllGather
	// Scatter: the host (root) sends block p to rank p.
	Scatter
	// Gather: the host (root) receives all ranks' buffers concatenated.
	Gather
	// Reduce: the host (root) receives the full elementwise reduction.
	Reduce
	// Broadcast: every rank receives a copy of the host's buffer.
	Broadcast
)

// Primitives lists all primitives in the paper's column order (Table I),
// which is the order of the shape table's rows (collective.go).
func Primitives() []Primitive {
	ps := make([]Primitive, len(shapes))
	for i := range ps {
		ps[i] = Primitive(i)
	}
	return ps
}

// known reports whether p names a row of the shape table. String and
// LongName range-check with it, not with shapeOf, whose error formats p.
func (p Primitive) known() bool { return p >= 0 && int(p) < len(shapes) }

// String returns the paper's abbreviation.
func (p Primitive) String() string {
	if !p.known() {
		return fmt.Sprintf("Primitive(%d)", int(p))
	}
	return shapes[p].abbr
}

// LongName returns the full primitive name.
func (p Primitive) LongName() string {
	if !p.known() {
		return p.String()
	}
	return shapes[p].name
}

// TechniqueApplies reports whether optimization level l introduces a new
// technique for primitive p — the applicability matrix of Table II, which
// the levels field of p's shape row states (collective.go). Broadcast is
// already optimal in the native driver (§ VIII-B) and gains nothing from
// any technique.
func TechniqueApplies(p Primitive, l Level) bool {
	return p.known() && slices.Contains(shapes[p].levels, l)
}

// EffectiveLevel returns the level actually used when level l is requested
// for primitive p: the highest applicable level not exceeding l. A
// primitive skips levels whose technique it has no use for (e.g. Scatter
// has no PE-side data to pre-reorder, so its stack is Baseline then IM).
func EffectiveLevel(p Primitive, l Level) Level {
	eff := Baseline
	if p.known() {
		for _, cand := range shapes[p].levels {
			if cand <= l {
				eff = cand
			}
		}
	}
	return eff
}
