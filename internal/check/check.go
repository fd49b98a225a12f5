// Package check holds the invariants of the simulator's run-time state as
// pure functions over the values the product already exposes, so that
// tests, the randomized fuzz driver (internal/fuzz, cmd/pidfuzz) and any
// other caller assert the same rules. A caller that wants a check calls
// it: there is no option and no global flag.
//
// Snapshot checks a core.Snapshot: the tenant meters fold to the machine
// meter, retired rows precede live ones and only ever grow, the free list
// is sorted, coalesced and inside MRAM, live arenas and free spans tile
// MRAM when no session opened or closed meanwhile, the shape table holds
// no row it did not build (every row is a trace miss), and the cumulative
// counters never fall.
package check

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
)

// Snapshot returns the first invariant cur violates, or nil. mram is the
// machine's MramPerBank. prev, if not nil, is an earlier snapshot of the
// same machine: retired rows must extend it and counters must not have
// fallen. quiescent says no NewTenant or Close ran during cur, which is
// when the tenant and free-list sections are jointly consistent and must
// tile MRAM exactly; the other checks hold for any snapshot.
func Snapshot(prev *core.Snapshot, cur core.Snapshot, mram int, quiescent bool) error {
	var fold cost.Breakdown
	var windows []dram.Arena
	retired := 0
	for i, row := range cur.Tenants {
		fold = fold.Add(row.Meter)
		switch {
		case !row.Retired:
			windows = append(windows, dram.Arena{Base: row.Base, Bytes: row.Bytes})
		case len(windows) > 0:
			return fmt.Errorf("retired row %d (%s) follows a live row", i, row.Name)
		default:
			retired++
		}
	}
	if fold != cur.Meter {
		return fmt.Errorf("Meter %v is not the in-order fold of the tenant meters %v", cur.Meter, fold)
	}
	free := 0
	for i, a := range cur.FreeSpans {
		if a.Bytes <= 0 || a.Base < 0 || a.End() > mram || i > 0 && cur.FreeSpans[i-1].End() >= a.Base {
			return fmt.Errorf("free list %v is unsorted, not coalesced or outside [0,%d)", cur.FreeSpans, mram)
		}
		free += a.Bytes
	}
	if free != cur.FreeBytes {
		return fmt.Errorf("FreeBytes %d, the spans sum to %d", cur.FreeBytes, free)
	}
	if quiescent {
		windows = append(windows, cur.FreeSpans...)
		slices.SortFunc(windows, func(a, b dram.Arena) int { return a.Base - b.Base })
		at, abut := 0, true
		for _, a := range windows {
			abut, at = abut && a.Base == at, a.End()
		}
		if !abut || at != mram {
			return fmt.Errorf("live arenas and free spans %v do not tile [0,%d)", windows, mram)
		}
	}
	if pc := cur.PlanCache; pc.CachedTraces < 0 || uint64(pc.CachedTraces) > pc.TraceMisses {
		return fmt.Errorf("the shape table holds %d rows but built %d", pc.CachedTraces, pc.TraceMisses)
	}
	if f := cur.Fusion; f.PlansFused > f.PlansCompiled {
		return fmt.Errorf("fusion changed %d rows of %d built", f.PlansFused, f.PlansCompiled)
	}
	if prev == nil {
		return nil
	}
	was := 0
	for was < len(prev.Tenants) && prev.Tenants[was].Retired {
		was++
	}
	if was > retired || !slices.Equal(prev.Tenants[:was], cur.Tenants[:was]) {
		return fmt.Errorf("retired rows are not append-only: had %+v, now %+v", prev.Tenants[:was], cur.Tenants[:retired])
	}
	p, c := prev.PlanCache, cur.PlanCache
	if c.TraceHits < p.TraceHits || c.TraceMisses < p.TraceMisses {
		return fmt.Errorf("plan-cache counters fell: %+v -> %+v", p, c)
	}
	if pf, cf := prev.Fusion, cur.Fusion; cf.PlansCompiled < pf.PlansCompiled || cf.PlansFused < pf.PlansFused {
		return fmt.Errorf("fusion counters fell: %+v -> %+v", pf, cf)
	}
	if cur.Elapsed < prev.Elapsed {
		return fmt.Errorf("Elapsed fell: %v -> %v", prev.Elapsed, cur.Elapsed)
	}
	return nil
}
