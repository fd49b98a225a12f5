package pidcomm_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/serve"
	"repro/pidcomm"
)

// The invariants every Snapshot must hold — ROADMAP's "tenant meters sum
// to the machine meter, free list coalesced and disjoint", as a check
// instead of a comment — shared by the churn tests, the serving-driver
// churn test below and the concurrent-snapshot test.
//
// checkSnapshot returns the first invariant cur violates, or nil. mram is the
// machine's MramPerBank. prev, if not nil, is an earlier snapshot of the
// same machine: retired rows must extend it and counters must not have
// fallen. quiescent says no NewTenant or Close ran during cur, which is
// when the tenant and free-list sections are jointly consistent and must
// tile MRAM exactly; the other checks hold for any snapshot.
func checkSnapshot(prev *pidcomm.Snapshot, cur pidcomm.Snapshot, mram int, quiescent bool) error {
	var fold pidcomm.Breakdown
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
	if c.PlanHits < p.PlanHits || c.PlanMisses < p.PlanMisses || c.TraceHits < p.TraceHits || c.TraceMisses < p.TraceMisses {
		return fmt.Errorf("plan-cache counters fell: %+v -> %+v", p, c)
	}
	if cur.Elapsed < prev.Elapsed {
		return fmt.Errorf("Elapsed fell: %v -> %v", prev.Elapsed, cur.Elapsed)
	}
	return nil
}

// A checker that never fails checks nothing: every single-field
// corruption of a valid snapshot must be reported.
func TestCheckSnapshotRejectsEachViolation(t *testing.T) {
	const mram = 1 << 12
	m := cost.NewMeter()
	m.Add(cost.PEMem, 1)
	bd := m.Snapshot()
	valid := func() pidcomm.Snapshot {
		return pidcomm.Snapshot{
			Elapsed: 2, Meter: bd.Add(bd), FreeBytes: 2048,
			PlanCache: core.PlanCacheStats{PlanHits: 3, PlanMisses: 2, TraceHits: 1, TraceMisses: 2},
			Tenants: []pidcomm.TenantSnapshot{
				{Name: "old", Base: 0, Bytes: 1024, Meter: bd, Retired: true},
				{Name: "b", Base: 1024, Bytes: 1024, Meter: bd},
				{Name: "a", Base: 0, Bytes: 1024},
			},
			FreeSpans: []dram.Arena{{Base: 2048, Bytes: 2048}},
		}
	}
	prev := valid()
	prev.Tenants = prev.Tenants[:2]
	prev.Elapsed, prev.PlanCache.PlanHits = 1, 2
	if err := checkSnapshot(&prev, valid(), mram, true); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for name, corrupt := range map[string]func(s *pidcomm.Snapshot){
		"meter is not the fold": func(s *pidcomm.Snapshot) { s.Meter = bd },
		"retired after live":    func(s *pidcomm.Snapshot) { s.Tenants[2].Retired = true },
		"free bytes off":        func(s *pidcomm.Snapshot) { s.FreeBytes-- },
		"free list not coalesced": func(s *pidcomm.Snapshot) {
			s.FreeSpans = []dram.Arena{{Base: 2048, Bytes: 1024}, {Base: 3072, Bytes: 1024}}
		},
		"free span past the end":      func(s *pidcomm.Snapshot) { s.FreeSpans[0].Bytes++; s.FreeBytes++ },
		"gap between arena and free":  func(s *pidcomm.Snapshot) { s.FreeSpans[0] = dram.Arena{Base: 3072, Bytes: 1024}; s.FreeBytes = 1024 },
		"live arenas overlap":         func(s *pidcomm.Snapshot) { s.Tenants[2].Base = 1024 },
		"retired row rewritten":       func(s *pidcomm.Snapshot) { s.Tenants[0].Name = "new" },
		"retired tenant back as live": func(s *pidcomm.Snapshot) { s.Tenants[0].Retired = false; s.Tenants[2].Base = 3072 },
		"plan-cache counter fell":     func(s *pidcomm.Snapshot) { s.PlanCache.PlanHits = 1 },
		"elapsed fell":                func(s *pidcomm.Snapshot) { s.Elapsed = 0.5 },
	} {
		s := valid()
		corrupt(&s)
		if err := checkSnapshot(&prev, s, mram, true); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Without quiescence the tenant table and the free list may disagree.
	s := valid()
	s.FreeSpans, s.FreeBytes = []dram.Arena{{Base: 1024, Bytes: 3072}}, 3072
	if err := checkSnapshot(&prev, s, mram, false); err != nil {
		t.Errorf("a tenant closed between the two section reads: %v", err)
	}
}

// Snapshots taken while other goroutines create tenants, submit on them
// and close them again hold every invariant that does not need the
// tenant table and the free list read at one instant; the snapshot taken
// once they have stopped holds those too. Each worker alone closes the
// tenants it submits on, so retired rows are final. Run under -race this
// is the test that Snapshot's section locks cover everything it reads.
func TestSnapshotDuringChurn(t *testing.T) {
	const workers, arena, m = 3, 1 << 12, 8 * 8
	cycles := 60
	if testing.Short() {
		cycles = 15
	}
	mach, err := pidcomm.NewMachine(tenantGeo, []int{8, 4}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				c, err := mach.NewTenant(pidcomm.TenantConfig{Name: name, ArenaBytes: arena})
				if err != nil {
					t.Error(err)
					return
				}
				for _, d := range workload(m) {
					f, err := c.Submit(d)
					if err == nil {
						err = f.Err()
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
				if err := mach.CloseTenant(c); err != nil {
					t.Error(err)
					return
				}
			}
		}(fmt.Sprintf("w%d", w))
	}
	stopped := make(chan struct{})
	go func() { wg.Wait(); close(stopped) }()

	var prev *pidcomm.Snapshot
	snapshots := 0
	for running := true; running; snapshots++ {
		select {
		case <-stopped:
			running = false
		default:
		}
		s := mach.Snapshot()
		if err := checkSnapshot(prev, s, tenantGeo.MramPerBank, !running); err != nil {
			t.Fatalf("%v\n%v", err, s)
		}
		prev = &s
	}
	if t.Failed() {
		return
	}
	t.Logf("%d snapshots over %d tenant lifecycles", snapshots, workers*cycles)
	if got := len(prev.Tenants); got != workers*cycles || !prev.Tenants[got-1].Retired || prev.Pending != 0 {
		t.Errorf("final snapshot has %d rows and %d pending, want %d retired rows and nothing pending", got, prev.Pending, workers*cycles)
	}
	if out := prev.String(); !strings.Contains(out, "retired") || !strings.Contains(out, "free MRAM: 16384 B/PE in 1 span(s) [0,16384)") {
		t.Errorf("rendered snapshot lacks the tenant table or the free list:\n%s", out)
	}
}

// The serving driver's churn — a tenant retired and recreated every 50
// completions, everything closed at the end — leaves a snapshot that holds
// every invariant: one retired row per tenant generation, their meters
// folding to the machine meter, MRAM back in one free span.
func TestServeChurnSnapshot(t *testing.T) {
	cfg, err := serve.Scenario(pidcomm.SchedEDF, 0.9, 600)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ChurnEvery = 50
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With every tenant closed all of MRAM is free, so the tiling check
	// demands exactly one span from offset 0.
	if err := checkSnapshot(nil, res.Snapshot, res.Snapshot.FreeBytes, true); err != nil {
		t.Fatal(err)
	}
	if rows := res.Snapshot.Tenants; len(rows) <= len(cfg.Tenants) || !rows[len(rows)-1].Retired {
		t.Errorf("%d tenant rows for %d tenants: the run never churned, or left one live", len(rows), len(cfg.Tenants))
	}
}

// A cost-only and a functional machine that ran the same workload differ
// in no field of their snapshots: clock, lanes, meters, cache and fusion
// counters, Auto decisions, tenant rows, free list.
func TestSnapshotCostOnlyMatchesFunctional(t *testing.T) {
	const arena, m = 1 << 12, 8 * 8
	run := func(opts ...pidcomm.MachineOption) pidcomm.Snapshot {
		mach, err := pidcomm.NewMachine(tenantGeo, []int{8, 4}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		a, err := mach.NewTenant(pidcomm.TenantConfig{Name: "a", ArenaBytes: arena, Weight: 2})
		if err != nil {
			t.Fatal(err)
		}
		b, err := mach.NewTenant(pidcomm.TenantConfig{Name: "b", ArenaBytes: arena, Quota: 1})
		if err != nil {
			t.Fatal(err)
		}
		ds := workload(m)
		for _, c := range []*pidcomm.Comm{a, b, a} {
			for _, d := range ds {
				if _, err := c.Run(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		seq, err := b.CompileSequence(ds[0], pidcomm.Collective{Prim: pidcomm.ReduceScatter, Dims: "10",
			Src: pidcomm.Span(m, m), Dst: pidcomm.At(3 * m), Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM})
		if err != nil {
			t.Fatal(err)
		}
		if err := seq.Submit().Err(); err != nil {
			t.Fatal(err)
		}
		auto := ds[1]
		auto.Level = pidcomm.Auto
		if _, err := a.Run(auto); err != nil {
			t.Fatal(err)
		}
		if err := mach.CloseTenant(a); err != nil {
			t.Fatal(err)
		}
		s := mach.Snapshot()
		if err := checkSnapshot(nil, s, tenantGeo.MramPerBank, true); err != nil {
			t.Fatal(err)
		}
		return s
	}
	costOnly, functional := run(pidcomm.CostOnly()), run()
	if !reflect.DeepEqual(costOnly, functional) {
		t.Errorf("snapshots differ:\ncost-only:\n%v\nfunctional:\n%v", costOnly, functional)
	}
	if len(costOnly.Auto) == 0 || costOnly.Fusion.PlansFused == 0 || costOnly.PlanCache.PlanHits == 0 || len(costOnly.FreeSpans) != 2 {
		t.Errorf("the workload left a section empty:\n%v", costOnly)
	}
}
