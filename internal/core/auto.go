package core

import (
	"errors"
	"fmt"

	"repro/internal/cost"
	"repro/internal/elem"
)

// The autotuner: a collective called with the Auto pseudo-level (and/or
// AlgoAuto) is dry-built at every applicable (algorithm, level)
// candidate — its shape row read from, or lowered, fused and traced into,
// the comm's shape table (plan.go) — the best row wins, and the decision
// is cached per call signature (primitive, dims, payload bytes, element
// type, operator, algorithm constraint). Tracing runs on a scratch
// cost-only host whatever the comm's backend, and the cost-only backend
// reproduces the functional breakdowns exactly, so the
// picked candidate is the one the functional run would have measured as
// best — at microseconds of dry-run cost instead of a full byte-accurate
// execution per candidate.
//
// Two objectives are available (SetAutoObjective):
//
//   - AutoMeter (default) minimizes the meter total: the sum of all
//     charges, i.e. the serial execution time of one call.
//   - AutoMakespan minimizes the pipelined dry-placed makespan: each
//     candidate's charge trace is placed AutoPipelineDepth times on a
//     pooled scratch cost.Timeline (all four lanes, every copy free to
//     start at zero — cost.PipelinedMakespan), modeling the async regime
//     where independent instances overlap. Under overlap the
//     meter-cheapest plan is not always the elapsed-time winner: a trace
//     that concentrates its time on one lane serializes there, while a
//     lane-balanced trace with a larger sum can finish earlier.
//
// Ties go to the earlier candidate in scan order (reference algorithm
// first, then ascending levels), so Auto's pre-algorithm behavior is
// preserved exactly: an alternative algorithm is picked only when it is
// strictly better under the selected objective.

// AutoObjective selects what Comm-level Auto resolution minimizes.
type AutoObjective int

const (
	// AutoMeter picks the candidate with the smallest meter total
	// (serial cost). The default.
	AutoMeter AutoObjective = iota
	// AutoMakespan picks the candidate with the smallest pipelined
	// dry-placed makespan (overlapped elapsed time).
	AutoMakespan
)

func (o AutoObjective) String() string {
	if o == AutoMakespan {
		return "makespan"
	}
	return "meter"
}

// AutoPipelineDepth is the number of independent trace copies the
// makespan objective dry-places: deep enough that lane steady-state
// dominates the pipeline fill, small enough that scoring stays
// microseconds per candidate.
const AutoPipelineDepth = 4

// autoKey identifies one Auto decision. Offsets are excluded (the cost
// model depends only on shapes and sizes) except for the in-place bit,
// which changes which levels apply. algo is the caller's algorithm
// constraint: AlgoAuto for the full search, a concrete algorithm when
// only the level is searched.
type autoKey struct {
	prim     Primitive
	dims     string
	bytes    int
	elemType elem.Type
	op       elem.Op
	inPlace  bool
	algo     Algorithm
}

// autoDecision is one cached Auto resolution: the winning candidate and
// the scores that justified it (both objectives are recorded regardless
// of which one picked).
type autoDecision struct {
	algo     Algorithm
	lvl      Level
	meter    cost.Seconds
	makespan cost.Seconds
}

// SetAutoObjective configures what Auto resolution minimizes. Cached
// decisions are dropped on a change — they were scored under the old
// objective. Plans already compiled keep the candidate they resolved to.
// On a cluster host it sets every host's objective (one shape table).
func (c *Comm) SetAutoObjective(o AutoObjective) {
	c.compMu.Lock()
	defer c.compMu.Unlock()
	if c.autoObj != o {
		c.autoObj = o
		c.autoCache = make(map[autoKey]autoDecision)
	}
}

// autoPick scores the shape row of every candidate (algorithm, level)
// pair for the key and returns the best under the comm's objective. The
// algorithm axis is the key's constraint (AlgoAuto means every row the
// lowering table has for the primitive, reference first); the level axis
// is the levels field of the primitive's shape row. A candidate whose
// row cannot be built is inapplicable to this signature (e.g. the
// streaming levels cannot run an in-place AlltoAll; a row's applies
// predicate rejects the level) and is skipped; autoPick errors only when
// no candidate applies.
// Callers hold compMu.
func (c *Comm) autoPick(key autoKey, row func(alg Algorithm, lvl Level) (*planEntry, error)) (autoDecision, error) {
	if dec, ok := c.autoCache[key]; ok {
		return dec, nil
	}
	algs := []Algorithm{key.algo}
	if key.algo == AlgoAuto {
		algs = RegisteredAlgorithms(key.prim)
	}
	var best autoDecision
	found := false
	var fails []error
	for _, alg := range algs {
		for _, eff := range shapes[key.prim].levels {
			e, err := row(alg, eff)
			if err != nil {
				fails = append(fails, err)
				continue
			}
			cand := autoDecision{
				algo:     alg,
				lvl:      eff,
				meter:    e.tr.total.Total(),
				makespan: cost.PipelinedMakespan(e.tr.segs, AutoPipelineDepth),
			}
			// Strict less on the scan keeps the earliest candidate
			// (reference algorithm, lowest level) on ties.
			if !found || c.autoLess(cand, best) {
				best, found = cand, true
			}
		}
	}
	if !found {
		return autoDecision{}, fmt.Errorf("core: no (algorithm, level) candidate applies: %w", errors.Join(fails...))
	}
	c.autoCache[key] = best
	return best, nil
}

// autoLess orders two candidates under the comm's objective, with the
// other objective as tie-break. Callers hold compMu.
func (c *Comm) autoLess(a, b autoDecision) bool {
	x, y, tx, ty := a.meter, b.meter, a.makespan, b.makespan
	if c.autoObj == AutoMakespan {
		x, y, tx, ty = a.makespan, b.makespan, a.meter, b.meter
	}
	if x != y {
		return x < y
	}
	return tx < ty
}

// autoResolve resolves d's Auto signature to its winning (algorithm,
// level) decision: the full search for d.Algorithm == AlgoAuto, the
// level-only search for a concrete algorithm constraint. The signature
// is read off the shape table: the payload bytes, element/op for the
// reducing primitives, and the in-place bit (an in-place AlltoAll
// restricts the applicable levels). The decision is cached on the Comm,
// so repeated Auto calls with one signature resolve in a map lookup. The
// candidates' rows are keyed by d's own offsets, so a compile of the
// winner at those offsets, in any session, finds its row traced.
// Callers hold compMu.
func (c *Comm) autoResolve(d Collective) (autoDecision, error) {
	if d.Prim == Broadcast {
		// Single level at every optimization setting (§ VIII-B); the
		// algorithm constraint passes through (AlgoAuto resolves to the
		// reference driver broadcast — alternatives are opt-in).
		alg := d.Algorithm
		if alg == AlgoAuto {
			alg = AlgoReference
		}
		return autoDecision{algo: alg, lvl: Baseline}, nil
	}
	sh, err := shapeOf(d.Prim)
	if err != nil {
		return autoDecision{}, err
	}
	key := autoKey{prim: d.Prim, dims: d.Dims, bytes: sh.payload(d), inPlace: sh.inPlace(d), algo: d.Algorithm}
	if sh.reducing {
		key.elemType, key.op = d.Elem, d.Op
	}
	dec, err := c.autoPick(key, func(alg Algorithm, lvl Level) (*planEntry, error) {
		d.Algorithm, d.Level = alg, lvl
		return c.autoRow(d)
	})
	if err != nil {
		return autoDecision{}, fmt.Errorf("Auto(%v): %w", d.Prim, err)
	}
	return dec, nil
}

// autoRow returns the shape row of candidate d — a caller's descriptor
// with the candidate (algorithm, level) filled in — at d's own offsets on
// the whole-MRAM arena, a dry spec whose host payload may be left out
// (rowLocked): one trace miss per candidate, after which every lookup of
// its key, the winner's compile included, is a hit. Callers hold compMu.
func (c *Comm) autoRow(d Collective) (*planEntry, error) {
	spec, err := c.specIn(arena{0, c.hc.sys.MramSize()}, d, true)
	if err != nil {
		return nil, err
	}
	return c.rowLocked([]planSpec{spec}), nil
}

// AutoDecision is one row of the Auto decision cache as surfaced by
// Snapshot.Auto (`pidinfo -auto` renders the table).
type AutoDecision struct {
	// The call signature: primitive, dims selection, per-PE payload
	// bytes, element/op (zero-valued for non-reducing primitives), the
	// in-place bit, and the caller's algorithm constraint (AlgoAuto for
	// the full search).
	Prim       Primitive
	Dims       string
	Bytes      int
	Elem       elem.Type
	Op         elem.Op
	InPlace    bool
	Constraint Algorithm
	// The winning candidate and its scores under both objectives.
	Algo     Algorithm
	Level    Level
	Meter    cost.Seconds
	Makespan cost.Seconds
}
