package check

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
)

// A checker that never fails checks nothing: every single-field
// corruption of a valid snapshot must be reported.
func TestCheckSnapshotRejectsEachViolation(t *testing.T) {
	const mram = 1 << 12
	m := cost.NewMeter()
	m.Add(cost.PEMem, 1)
	bd := m.Snapshot()
	valid := func() core.Snapshot {
		return core.Snapshot{
			Elapsed: 2, Meter: bd.Add(bd), FreeBytes: 2048,
			PlanCache: core.PlanCacheStats{TraceHits: 3, TraceMisses: 2, CachedTraces: 2},
			Fusion:    core.FusionStats{PlansCompiled: 2, PlansFused: 1},
			Tenants: []core.TenantSnapshot{
				{Name: "old", Base: 0, Bytes: 1024, Meter: bd, Retired: true},
				{Name: "b", Base: 1024, Bytes: 1024, Meter: bd},
				{Name: "a", Base: 0, Bytes: 1024},
			},
			FreeSpans: []dram.Arena{{Base: 2048, Bytes: 2048}},
		}
	}
	prev := valid()
	prev.Tenants = prev.Tenants[:2]
	prev.Elapsed, prev.PlanCache.TraceHits, prev.Fusion.PlansCompiled = 1, 2, 1
	if err := Snapshot(&prev, valid(), mram, true); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for name, corrupt := range map[string]func(s *core.Snapshot){
		"meter is not the fold": func(s *core.Snapshot) { s.Meter = bd },
		"retired after live":    func(s *core.Snapshot) { s.Tenants[2].Retired = true },
		"free bytes off":        func(s *core.Snapshot) { s.FreeBytes-- },
		"free list not coalesced": func(s *core.Snapshot) {
			s.FreeSpans = []dram.Arena{{Base: 2048, Bytes: 1024}, {Base: 3072, Bytes: 1024}}
		},
		"free span past the end":      func(s *core.Snapshot) { s.FreeSpans[0].Bytes++; s.FreeBytes++ },
		"gap between arena and free":  func(s *core.Snapshot) { s.FreeSpans[0] = dram.Arena{Base: 3072, Bytes: 1024}; s.FreeBytes = 1024 },
		"live arenas overlap":         func(s *core.Snapshot) { s.Tenants[2].Base = 1024 },
		"retired row rewritten":       func(s *core.Snapshot) { s.Tenants[0].Name = "new" },
		"retired tenant back as live": func(s *core.Snapshot) { s.Tenants[0].Retired = false; s.Tenants[2].Base = 3072 },
		"trace hits fell":             func(s *core.Snapshot) { s.PlanCache.TraceHits = 1 },
		"trace misses fell":           func(s *core.Snapshot) { s.PlanCache.TraceMisses = 1 },
		"rows built fell":             func(s *core.Snapshot) { s.Fusion.PlansCompiled = 0; s.Fusion.PlansFused = 0 },
		"fused rows fell":             func(s *core.Snapshot) { s.Fusion.PlansFused = 0 },
		"more rows fused than built":  func(s *core.Snapshot) { s.Fusion.PlansFused = 3 },
		"more rows held than built":   func(s *core.Snapshot) { s.PlanCache.CachedTraces = 3 },
		"elapsed fell":                func(s *core.Snapshot) { s.Elapsed = 0.5 },
	} {
		s := valid()
		corrupt(&s)
		if err := Snapshot(&prev, s, mram, true); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Without quiescence the tenant table and the free list may disagree.
	s := valid()
	s.FreeSpans, s.FreeBytes = []dram.Arena{{Base: 1024, Bytes: 3072}}, 3072
	if err := Snapshot(&prev, s, mram, false); err != nil {
		t.Errorf("a tenant closed between the two section reads: %v", err)
	}
}
