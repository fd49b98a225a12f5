package pidcomm_test

import (
	"errors"
	"sync"
	"testing"

	"repro/pidcomm"
)

// tenantGeo is a small 32-PE machine with room for a few arenas.
var tenantGeo = pidcomm.Geometry{
	Channels: 1, RanksPerChannel: 2, BanksPerChip: 2, MramPerBank: 1 << 14,
}

// workload is the per-tenant request stream of the isolation tests: an
// AlltoAll/CM and a ReduceScatter/IM per request, all arena-relative.
func workload(m int) []pidcomm.Collective {
	return []pidcomm.Collective{
		{Prim: pidcomm.AlltoAll, Dims: "10",
			Src: pidcomm.Span(0, m), Dst: pidcomm.At(m), Level: pidcomm.CM},
		{Prim: pidcomm.ReduceScatter, Dims: "10",
			Src: pidcomm.Span(2*m, m), Dst: pidcomm.At(3 * m),
			Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM},
	}
}

// Cross-arena regions must be rejected at compile time: a tenant cannot
// name MRAM outside its window, in any direction, for any region role.
func TestTenantCrossArenaRegionRejected(t *testing.T) {
	mach, err := pidcomm.NewMachine(tenantGeo, []int{8, 4}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	arena := 1 << 12
	a, err := mach.NewTenant(pidcomm.TenantConfig{Name: "a", ArenaBytes: arena})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.NewTenant(pidcomm.TenantConfig{Name: "b", ArenaBytes: arena}); err != nil {
		t.Fatal(err)
	}
	const m = 8 * 8
	cases := []struct {
		name string
		d    pidcomm.Collective
	}{
		{"src beyond arena", pidcomm.Collective{Prim: pidcomm.AlltoAll, Dims: "10",
			Src: pidcomm.Span(arena, m), Dst: pidcomm.At(0)}},
		{"src straddles arena end", pidcomm.Collective{Prim: pidcomm.AlltoAll, Dims: "10",
			Src: pidcomm.Span(arena-m/2, m), Dst: pidcomm.At(0)}},
		{"dst beyond arena", pidcomm.Collective{Prim: pidcomm.AlltoAll, Dims: "10",
			Src: pidcomm.Span(0, m), Dst: pidcomm.At(arena)}},
		{"negative offset", pidcomm.Collective{Prim: pidcomm.AlltoAll, Dims: "10",
			Src: pidcomm.Span(-m, m), Dst: pidcomm.At(0)}},
		{"implied dst overflows", pidcomm.Collective{Prim: pidcomm.AllGather, Dims: "10",
			Src: pidcomm.Span(0, arena/4), Dst: pidcomm.At(arena / 2)}},
		{"gather src outside", pidcomm.Collective{Prim: pidcomm.Gather, Dims: "10",
			Src: pidcomm.Span(arena+m, m)}},
	}
	for _, tc := range cases {
		if _, err := a.Compile(tc.d); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The same shapes fit when placed inside the arena.
	if _, err := a.Compile(pidcomm.Collective{Prim: pidcomm.AlltoAll, Dims: "10",
		Src: pidcomm.Span(0, m), Dst: pidcomm.At(m)}); err != nil {
		t.Errorf("in-arena descriptor rejected: %v", err)
	}
}

// soloMeter runs one tenant's workload alone — fresh machine, blocking
// runs — and returns its meter.
func soloMeter(t *testing.T, m, requests int) pidcomm.Breakdown {
	t.Helper()
	mach, err := pidcomm.NewMachine(tenantGeo, []int{8, 4}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	c, err := mach.NewTenant(pidcomm.TenantConfig{Name: "solo", ArenaBytes: 4 * m})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < requests; r++ {
		for _, d := range workload(m) {
			if _, err := c.Run(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c.Meter()
}

// The central isolation property, under the race detector: two tenants
// submitting concurrently from their own goroutines (a) finish all
// plans, (b) account per-tenant meters that sum bit-identically to the
// machine breakdown, and (c) each meter is bit-identical to running
// that tenant's workload alone on its own machine — tenancy changes
// nothing about what a tenant is charged.
func TestTenantMetersBitIdenticalUnderConcurrency(t *testing.T) {
	const m = 8 * 32
	const requests = 16
	mach, err := pidcomm.NewMachine(tenantGeo, []int{8, 4}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	a, err := mach.NewTenant(pidcomm.TenantConfig{Name: "a", ArenaBytes: 4 * m, Weight: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := mach.NewTenant(pidcomm.TenantConfig{Name: "b", ArenaBytes: 4 * m, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, c := range []*pidcomm.Comm{a, b} {
		wg.Add(1)
		go func(c *pidcomm.Comm) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				for _, d := range workload(m) {
					f, err := c.Submit(d)
					if err != nil {
						t.Error(err)
						return
					}
					if err := f.Err(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	mach.Flush()

	snap := mach.Snapshot()
	if sum := a.Meter().Add(b.Meter()); sum != snap.Meter {
		t.Errorf("tenant meters %v + %v do not sum to machine meter %v",
			a.Meter(), b.Meter(), snap.Meter)
	}
	solo := soloMeter(t, m, requests)
	if a.Meter() != solo {
		t.Errorf("tenant a meter %v != solo meter %v", a.Meter(), solo)
	}
	if b.Meter() != solo {
		t.Errorf("tenant b meter %v != solo meter %v", b.Meter(), solo)
	}
	if snap.Elapsed >= snap.Meter.Total() {
		t.Errorf("no overlap: elapsed %v >= total work %v", snap.Elapsed, snap.Meter.Total())
	}
}

// Fair-share placement: with every tenant backlogged, submissions
// complete for all tenants and the weighted-fair makespan beats serving
// the tenants serially. Run with -race in CI.
func TestTenantFairShareBeatsSerial(t *testing.T) {
	const m = 8 * 32
	const requests = 8
	build := func() (*pidcomm.Machine, []*pidcomm.Comm) {
		mach, err := pidcomm.NewMachine(tenantGeo, []int{8, 4}, pidcomm.CostOnly())
		if err != nil {
			t.Fatal(err)
		}
		var comms []*pidcomm.Comm
		for _, cfg := range []pidcomm.TenantConfig{
			{Name: "w2", ArenaBytes: 4 * m, Weight: 2},
			{Name: "w1", ArenaBytes: 4 * m, Weight: 1},
			{Name: "w1b", ArenaBytes: 4 * m, Weight: 1},
		} {
			c, err := mach.NewTenant(cfg)
			if err != nil {
				t.Fatal(err)
			}
			comms = append(comms, c)
		}
		return mach, comms
	}

	smach, scomms := build()
	for r := 0; r < requests; r++ {
		for _, c := range scomms {
			for _, d := range workload(m) {
				if _, err := c.Run(d); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	serial := smach.Elapsed()

	fmach, fcomms := build()
	var wg sync.WaitGroup
	for _, c := range fcomms {
		wg.Add(1)
		go func(c *pidcomm.Comm) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				for _, d := range workload(m) {
					f, err := c.Submit(d)
					if err != nil {
						t.Error(err)
						return
					}
					if err := f.Err(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	fmach.Flush()
	fair := fmach.Elapsed()

	if s, f := smach.Snapshot().Meter, fmach.Snapshot().Meter; s != f {
		t.Errorf("work differs: serial %v, fair %v", s, f)
	}
	if fair >= serial {
		t.Errorf("weighted-fair makespan %v not better than serial %v", fair, serial)
	}
}

// Quota enforcement through the facade, and arena exhaustion.
func TestTenantQuotaAndCapacityThroughFacade(t *testing.T) {
	const m = 8 * 32
	mach, err := pidcomm.NewMachine(tenantGeo, []int{8, 4}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	probe, err := mach.NewTenant(pidcomm.TenantConfig{Name: "probe", ArenaBytes: 4 * m})
	if err != nil {
		t.Fatal(err)
	}
	d := workload(m)[0]
	cp, err := probe.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	per := cp.Cost().Total()

	capped, err := mach.NewTenant(pidcomm.TenantConfig{
		Name: "capped", ArenaBytes: 4 * m, Quota: per * 3 / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := capped.Run(d); err != nil {
		t.Fatalf("first run within quota failed: %v", err)
	}
	if _, err := capped.Run(d); !errors.Is(err, pidcomm.ErrQuotaExceeded) {
		t.Fatalf("over-quota run: got %v, want ErrQuotaExceeded", err)
	}
	if got := tenantRow(t, mach, "capped").Admitted; got != per {
		t.Errorf("admitted %v, want %v", got, per)
	}

	// Arena exhaustion: the remaining MRAM cannot fit a huge tenant.
	if _, err := mach.NewTenant(pidcomm.TenantConfig{
		Name: "huge", ArenaBytes: mach.MramPerBank(),
	}); err == nil {
		t.Fatal("oversized arena accepted")
	}
	free := mach.Snapshot().FreeBytes
	if free <= 0 {
		t.Fatalf("expected free arena bytes, got %d", free)
	}
	rest, err := mach.Comm()
	if err != nil {
		t.Fatal(err)
	}
	if _, bytes := rest.Arena(); bytes != free {
		t.Errorf("whole-machine session got %d bytes, want the remaining %d", bytes, free)
	}
	if _, err := mach.Comm(); err == nil {
		t.Error("second whole-machine session accepted with no MRAM left")
	}
}

// The cluster facade's Run, Compile and Submit compile on the
// whole-cluster session, which is carved behind every tenant that exists
// when it binds: a descriptor naming offset 0 lands in that session, not
// in the victim carved there first. (They used to resolve against the
// whole MRAM and overwrite the victim.)
func TestClusterFacadeCannotWriteTenantArena(t *testing.T) {
	const hosts, P, arena = 2, 32, 4096
	cl, err := pidcomm.NewCluster(hosts, tenantGeo, []int{P})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := cl.NewTenant(pidcomm.TenantConfig{Name: "victim", ArenaBytes: arena})
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, arena)
	for i := range fill {
		fill[i] = 0xAB
	}
	for h := 0; h < hosts; h++ {
		for pe := 0; pe < P; pe++ {
			victim.Host(h).SetPEBuffer(pe, 0, fill)
		}
	}
	const m = 8 * P
	d := pidcomm.ClusterCollective{Collective: pidcomm.Collective{
		Prim: pidcomm.AllReduce, Dims: "1", Src: pidcomm.Span(2*arena, m), Dst: pidcomm.At(0),
		Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM,
	}}
	for _, call := range []struct {
		name string
		run  func() error
	}{
		{"Run", func() error { _, err := cl.Run(d); return err }},
		{"Compile", func() error {
			cp, err := cl.Compile(d)
			if err == nil {
				_, err = cp.Run()
			}
			return err
		}},
		{"Submit", func() error {
			f, err := cl.Submit(d)
			if err == nil {
				err = f.Err()
			}
			return err
		}},
	} {
		err := call.run()
		for h := 0; h < hosts; h++ {
			for pe := 0; pe < P; pe++ {
				if got := victim.Host(h).GetPEBuffer(pe, 0, arena); string(got) != string(fill) {
					t.Fatalf("cl.%s (err %v) overwrote the victim's arena on host %d PE %d", call.name, err, h, pe)
				}
			}
		}
		if err != nil {
			t.Logf("cl.%s refused the descriptor: %v", call.name, err)
		}
	}
	if row := tenantRow(t, cl.Machine(0), "machine"); row.Base != arena {
		t.Errorf("whole-cluster session bound at base %d, want %d behind the victim", row.Base, arena)
	}
}
