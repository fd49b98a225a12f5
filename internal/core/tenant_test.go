package core

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/dram"
)

func tenantTestComm(t *testing.T, mram int) *Comm {
	t.Helper()
	return tenantTestCommWith(t, mram, Config{})
}

// tenantTestCommWith is tenantTestComm at a non-default configuration
// (the cost-only backend is implied).
func tenantTestCommWith(t *testing.T, mram int, cfg Config) *Comm {
	t.Helper()
	cfg.Backend = CostBackend()
	return newMachine(t, dram.Geometry{
		Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: mram,
	}, []int{16}, cfg)
}

// tenantRow returns ten's row of its Comm's snapshot: the last row of
// that name, which is the live one when a retired namesake precedes it.
func tenantRow(t *testing.T, ten *Tenant) TenantSnapshot {
	t.Helper()
	rows := ten.c.Snapshot().Tenants
	for i := len(rows) - 1; i >= 0; i-- {
		if rows[i].Name == ten.name {
			return rows[i]
		}
	}
	t.Fatalf("tenant %q has no snapshot row", ten.name)
	return TenantSnapshot{}
}

// fakeFuture builds a queue entry whose plan predicts the given cost —
// all pickLocked consults.
func fakeFuture(totalSeconds float64) *Future {
	m := cost.NewMeter()
	m.Add(cost.PEMem, cost.Seconds(totalSeconds))
	return &Future{cp: &CompiledPlan{planEntry: &planEntry{tr: chargeTrace{total: m.Snapshot()}}}}
}

// bareBuckets registers one bare session per weight on c — no arena, only
// the bucket pickLocked walks — and returns their buckets in order.
func bareBuckets(c *Comm, weights ...float64) []*subQueue {
	qs := make([]*subQueue, len(weights))
	for i, w := range weights {
		t := &Tenant{c: c, sq: subQueue{weight: w}}
		c.tenants = append(c.tenants, t)
		qs[i] = &t.sq
	}
	return qs
}

// The weighted-fair pick order: two backlogged buckets with weights 2:1
// and unit-cost plans must be served in a 2:1 interleave, ties to the
// earlier bucket.
func TestWeightedFairPickOrder(t *testing.T) {
	c := &Comm{sched: wfqSched{}}
	qs := bareBuckets(c, 2, 1)
	a, b := qs[0], qs[1]
	tag := map[*Future]string{}
	for i := 0; i < 6; i++ {
		f := fakeFuture(1)
		tag[f] = "A"
		a.q = append(a.q, f)
	}
	for i := 0; i < 3; i++ {
		f := fakeFuture(1)
		tag[f] = "B"
		b.q = append(b.q, f)
	}
	var got []string
	for {
		c.asyncMu.Lock()
		f := c.pickLocked()
		c.asyncMu.Unlock()
		if f == nil {
			break
		}
		got = append(got, tag[f])
	}
	want := "A B A A B A A B A"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("pick order %q, want %q", s, want)
	}
}

// The funnel scans only a plan's own bucket for hazards, because no
// queued plan can conflict with a queued plan of another bucket: live
// arenas are disjoint, and Close drains a bucket before its arena is
// freed for reuse. Churn tenants on one comm — every new
// one carved where a closed one was, its plans queued behind live
// tenants' conflicting-within-the-bucket plans — and check at every Step.
func TestQueuedPlansOfTwoBucketsNeverConflict(t *testing.T) {
	c := tenantTestCommWith(t, 1<<13, Config{})
	const m = 16 * 8
	d := Collective{Prim: AlltoAll, Dims: "1", Src: Span(0, m), Dst: At(m), Level: CM}
	step := func() {
		c.Step()
		c.asyncMu.Lock()
		defer c.asyncMu.Unlock()
		for i, a := range c.tenants {
			for _, b := range c.tenants[i+1:] {
				for _, f := range a.sq.q {
					for _, o := range b.sq.q {
						if f.cp.conflicts(o.cp) {
							t.Fatalf("queued plans at bases %d and %d of two buckets conflict", f.cp.base, o.cp.base)
						}
					}
				}
			}
		}
	}
	var live []*Tenant
	freed, reused := map[int]bool{}, 0
	for round := 0; round < 16; round++ {
		if len(live) == 4 { // MRAM is full: retire the oldest
			freed[live[0].ar.base] = true
			if err := live[0].Close(); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
		ten, err := c.NewTenant(TenantConfig{ArenaBytes: 1 << 11})
		if err != nil {
			t.Fatal(err)
		}
		if freed[ten.ar.base] {
			reused++
		}
		live = append(live, ten)
		for _, lt := range live {
			for k := 0; k < 2; k++ {
				if _, err := lt.Submit(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k := 0; k < len(live); k++ {
			step()
		}
	}
	if reused < 8 {
		t.Fatalf("%d tenants reused a freed arena, want >= 8", reused)
	}
	for c.Pending() > 0 {
		step()
	}
}

// A bucket waking from idle joins at the virtual clock instead of
// burning accumulated credit in a burst.
func TestIdleBucketJoinsAtVirtualClock(t *testing.T) {
	c := tenantTestComm(t, 1<<13)
	ta, err := c.NewTenant(TenantConfig{Name: "a", ArenaBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := c.NewTenant(TenantConfig{Name: "b", ArenaBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	const m = 16 * 8
	d := Collective{Prim: AlltoAll, Dims: "1", Src: Span(0, m), Dst: At(2 * m), Level: CM}
	// Drive only tenant a for a while; its vtime advances far past b's.
	for i := 0; i < 8; i++ {
		if _, err := ta.Run(d); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	// When b wakes up, it must not be allowed to monopolize: the
	// admission point resets its vtime to the virtual clock. Observe via
	// the scheduler state after one submit each.
	fa, err := ta.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := tb.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := fa.Err(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Err(); err != nil {
		t.Fatal(err)
	}
	c.asyncMu.Lock()
	va, vb := ta.sq.vtime, tb.sq.vtime
	c.asyncMu.Unlock()
	if vb == 0 {
		t.Errorf("idle bucket kept zero vtime (burst credit); want join at vclock ~%v", va)
	}
}

// Arenas come from the system's allocator: the second starts where the
// first ends, and a request beyond the free MRAM is rejected and carves
// nothing. (Disjointness under churn is dram's TestArenaChurnProperty.)
func TestTenantArenasDisjoint(t *testing.T) {
	c := tenantTestComm(t, 1<<13)
	a, err := c.NewTenant(TenantConfig{Name: "a", ArenaBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewTenant(TenantConfig{Name: "c", ArenaBytes: 1 << 13}); err == nil {
		t.Fatal("arena beyond the free MRAM accepted")
	}
	d, err := c.NewTenant(TenantConfig{Name: "d", ArenaBytes: 1 << 12})
	if err != nil {
		t.Fatalf("fitting arena rejected after an over-capacity request: %v", err)
	}
	_, aBytes := a.Arena()
	if base, _ := d.Arena(); base != aBytes {
		t.Fatalf("second arena starts at %d, want %d where the first ends", base, aBytes)
	}
}

// NewTenant refuses a weight that is not positive and finite, a quota
// that is not non-negative and finite, and a negative MaxPending — NaN
// included, which a bare `< 0` check lets through — and carves nothing.
func TestTenantConfigRejected(t *testing.T) {
	c := tenantTestComm(t, 1<<13)
	free := c.Snapshot().FreeSpans
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		cfg  TenantConfig
	}{
		{"weight -1", TenantConfig{Weight: -1}},
		{"weight NaN", TenantConfig{Weight: nan}},
		{"weight +Inf", TenantConfig{Weight: inf}},
		{"quota -1", TenantConfig{Quota: -1}},
		{"quota NaN", TenantConfig{Quota: cost.Seconds(nan)}},
		{"quota +Inf", TenantConfig{Quota: cost.Seconds(inf)}},
		{"MaxPending -1", TenantConfig{MaxPending: -1}},
	} {
		tc.cfg.ArenaBytes = 1 << 12
		if ten, err := c.NewTenant(tc.cfg); err == nil {
			t.Errorf("%s: accepted as tenant %q", tc.name, ten.Name())
		}
		if got := c.Snapshot().FreeSpans; !slices.Equal(got, free) {
			t.Errorf("%s: free spans %v, want %v", tc.name, got, free)
		}
	}
}

// Quota admission: a tenant whose budget covers exactly two plans gets
// two runs, then ErrQuotaExceeded — on Run and on Submit (via the
// future's error).
func TestTenantQuota(t *testing.T) {
	c := tenantTestComm(t, 1<<13)
	const m = 16 * 8
	d := Collective{Prim: AlltoAll, Dims: "1", Src: Span(0, m), Dst: At(2 * m), Level: CM}
	probe, err := c.NewTenant(TenantConfig{Name: "probe", ArenaBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := probe.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	per := cp.Cost().Total()

	ten, err := c.NewTenant(TenantConfig{Name: "capped", ArenaBytes: 1 << 12, Quota: per * 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ten.Run(d); err != nil {
			t.Fatalf("run %d within quota failed: %v", i, err)
		}
	}
	if _, err := ten.Run(d); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota Run: got %v, want ErrQuotaExceeded", err)
	}
	f, err := ten.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(f.Err(), ErrQuotaExceeded) {
		t.Fatalf("over-quota Submit future: got %v, want ErrQuotaExceeded", f.Err())
	}
	if got := tenantRow(t, ten).Admitted; got != per*2 {
		t.Errorf("admitted ledger %v, want %v", got, per*2)
	}
}

// An idle machine pins no finished work: once its last session closes,
// nothing the machine keeps reaches a plan that ran on it, so the host
// payload a submitted Scatter bound is collected while the machine lives
// on. The future chunk and the frontier's backing array both used to
// keep it.
func TestClosedLastSessionPinsNoPayload(t *testing.T) {
	c := newMachine(t, dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 4096}, []int{16}, Config{})
	collected := make(chan struct{})
	func() {
		s, err := c.Session()
		if err != nil {
			t.Fatal(err)
		}
		payload := new([16 * 64]byte)
		runtime.SetFinalizer(payload, func(*[16 * 64]byte) { close(collected) })
		f, err := s.Submit(Collective{Prim: Scatter, Dims: "1", Hosts: [][]byte{payload[:]}, Dst: Span(0, 64)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	for range 50 {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(c)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("the payload of a finished plan is still reachable from its idle machine")
	runtime.KeepAlive(c)
}
