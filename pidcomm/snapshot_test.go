package pidcomm_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/serve"
	"repro/pidcomm"
)

// Every snapshot below must hold check.Snapshot's invariants — ROADMAP's
// "tenant meters sum to the machine meter, free list coalesced and
// disjoint", as a check instead of a comment — as must the churn tests'.

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
		if err := check.Snapshot(prev, s, tenantGeo.MramPerBank, !running); err != nil {
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
	if err := check.Snapshot(nil, res.Snapshot, res.Snapshot.FreeBytes, true); err != nil {
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
		if err := check.Snapshot(nil, s, tenantGeo.MramPerBank, true); err != nil {
			t.Fatal(err)
		}
		return s
	}
	costOnly, functional := run(pidcomm.CostOnly()), run()
	if !reflect.DeepEqual(costOnly, functional) {
		t.Errorf("snapshots differ:\ncost-only:\n%v\nfunctional:\n%v", costOnly, functional)
	}
	if len(costOnly.Auto) == 0 || costOnly.Fusion.PlansFused == 0 || costOnly.PlanCache.TraceHits == 0 || len(costOnly.FreeSpans) != 2 {
		t.Errorf("the workload left a section empty:\n%v", costOnly)
	}
}
