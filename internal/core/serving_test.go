package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cost"
)

// Edge tests for the serving-side scheduler features: EDF picking,
// stepped execution, overload shedding and tenant churn.

// servingTenantCfg builds a TenantConfig over the tenantTestComm
// geometry.
func servingTenantCfg(name string, maxPending int, shed ShedPolicy) TenantConfig {
	return TenantConfig{Name: name, ArenaBytes: 1 << 12, Weight: 1,
		MaxPending: maxPending, Shed: shed}
}

// servingCollective is the unit request of these tests: an AlltoAll
// over the 16-PE test hypercube, arena-relative.
var servingCollective = Collective{Prim: AlltoAll, Dims: "1",
	Src: Span(0, 16*8), Dst: At(2 * 16 * 8), Level: CM}

// The EDF pick order over hazard-free candidates: earliest absolute
// deadline first, any deadline before none, ties and the deadline-free
// tail by submission order — across buckets and past bucket heads.
func TestEDFPickOrder(t *testing.T) {
	c := &Comm{sched: edfSched{}, lookahead: DefaultLookahead}
	qs := bareBuckets(c, 1, 1)
	a, b := qs[0], qs[1]
	mk := func(seq uint64, deadline float64) *Future {
		f := fakeFuture(1)
		f.seq = seq
		f.deadline = cost.Seconds(deadline)
		return f
	}
	f1, f3 := mk(1, 0), mk(3, 5)
	f2, f4 := mk(2, 9), mk(4, 1)
	a.q = []*Future{f1, f3}
	b.q = []*Future{f2, f4}
	want := []*Future{f4, f3, f2, f1}
	for i, w := range want {
		c.asyncMu.Lock()
		got := c.pickLocked()
		c.asyncMu.Unlock()
		if got != w {
			t.Fatalf("pick %d: got seq %d, want seq %d", i, got.seq, w.seq)
		}
	}
}

// An urgent plan that conflicts with an earlier queued plan must wait
// for it: EDF never reorders across a data hazard, even when the
// earlier plan has no deadline at all.
func TestEDFHoldsConflictingPlanToSeqOrder(t *testing.T) {
	c := &Comm{sched: edfSched{}, lookahead: DefaultLookahead}
	a := bareBuckets(c, 1)[0]
	mk := func(seq uint64, deadline float64, off int) *Future {
		f := fakeFuture(1)
		f.seq = seq
		f.deadline = cost.Seconds(deadline)
		f.cp.regs.set([]planSpec{{dst: span{off, 64}}})
		return f
	}
	slow := mk(1, 0, 0)   // no deadline, owns [0,64)
	urgent := mk(2, 1, 0) // tight deadline, WAW on [0,64)
	free := mk(3, 5, 512) // later deadline, independent region
	a.q = []*Future{slow, urgent, free}
	want := []*Future{free, slow, urgent}
	for i, w := range want {
		c.asyncMu.Lock()
		got := c.pickLocked()
		c.asyncMu.Unlock()
		if got != w {
			t.Fatalf("pick %d: got seq %d, want seq %d", i, got.seq, w.seq)
		}
	}
}

// Stepped execution: submissions only queue, Pending reports the
// backlog, Step retires exactly one plan per call in scheduling order,
// and Flush drains the remainder. Step on an idle comm is a no-op.
func TestSteppedStepAndFlush(t *testing.T) {
	c := tenantTestCommWith(t, 1<<13, Config{})
	if f := c.Step(); f != nil {
		t.Fatalf("Step on an idle comm returned %v", f)
	}
	ta, err := c.NewTenant(servingTenantCfg("a", 0, ShedReject))
	if err != nil {
		t.Fatal(err)
	}
	var fs []*Future
	for i := 0; i < 3; i++ {
		f, err := ta.Submit(servingCollective)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	if got := c.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	first := c.Step()
	if first != fs[0] {
		t.Fatalf("Step retired the wrong plan")
	}
	if !first.Done() || first.Err() != nil {
		t.Fatalf("stepped future not complete: %v", first.Err())
	}
	if s, e := first.Window(); e <= s {
		t.Fatalf("stepped future has empty window [%v,%v]", s, e)
	}
	if got := c.Pending(); got != 2 {
		t.Fatalf("Pending after one step = %d, want 2", got)
	}
	c.Flush()
	for i, f := range fs {
		if !f.Done() || f.Err() != nil {
			t.Fatalf("future %d not drained by Flush: %v", i, f.Err())
		}
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending after Flush = %d, want 0", got)
	}
}

// Nothing drains the queue behind the caller's back, so a blocking
// Future accessor steps it itself: Err on the last of
// three submissions, with no Step or Flush, retires all three in order
// instead of blocking forever.
func TestSteppedFutureAccessorsDrainTheQueue(t *testing.T) {
	c := tenantTestCommWith(t, 1<<13, Config{})
	ta, err := c.NewTenant(servingTenantCfg("a", 0, ShedReject))
	if err != nil {
		t.Fatal(err)
	}
	var fs []*Future
	for i := 0; i < 3; i++ {
		f, err := ta.Submit(servingCollective)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	done := make(chan error, 1)
	go func() { done <- fs[2].Err() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Future.Err blocked on a comm nobody else steps")
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending = %d after waiting on the last submission, want 0", got)
	}
	if _, e0 := fs[0].Window(); e0 <= 0 || fs[1].Cost().Total() <= 0 {
		t.Fatal("earlier submissions did not run")
	}
}

// The same rule at the queue bound: with MaxPendingPlans in flight the
// next Submit steps one plan itself instead of blocking on a slot no one
// will ever free.
func TestSteppedSubmitBeyondMaxPending(t *testing.T) {
	c := withSession(t, tenantTestCommWith(t, 1<<13, Config{}))
	cp, err := c.Compile(servingCollective)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Future)
	go func() {
		var last *Future
		for i := 0; i < MaxPendingPlans+8; i++ {
			last = cp.Submit()
		}
		done <- last
	}()
	select {
	case last := <-done:
		if got := c.Pending(); got != MaxPendingPlans {
			t.Errorf("Pending after %d submissions = %d, want the bound %d", MaxPendingPlans+8, got, MaxPendingPlans)
		}
		c.Flush()
		if !last.Done() || last.Err() != nil {
			t.Errorf("last submission not drained by Flush: %v", last.Err())
		}
		if got := c.Pending(); got != 0 {
			t.Errorf("Pending after Flush = %d, want 0", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Submit deadlocked at the queue bound (Pending = %d)", c.Pending())
	}
}

// A submission rejected by overload admission returns an already
// completed Future carrying ErrOverloaded and a zero Window — callers
// never block on a shed request.
func TestOverloadRejectReturnsCompletedZeroWindow(t *testing.T) {
	c := tenantTestCommWith(t, 1<<13, Config{})
	ta, err := c.NewTenant(servingTenantCfg("a", 1, ShedReject))
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ta.Submit(servingCollective)
	if err != nil {
		t.Fatal(err)
	}
	rejected, err := ta.Submit(servingCollective)
	if err != nil {
		t.Fatal(err)
	}
	if !rejected.Done() {
		t.Fatal("rejected future not immediately complete")
	}
	if !errors.Is(rejected.Err(), ErrOverloaded) {
		t.Fatalf("rejected future error = %v, want ErrOverloaded", rejected.Err())
	}
	if s, e := rejected.Window(); s != 0 || e != 0 {
		t.Fatalf("rejected future has a window [%v,%v], want zero", s, e)
	}
	c.Flush()
	if accepted.Err() != nil {
		t.Fatalf("accepted plan failed: %v", accepted.Err())
	}
	if got := tenantRow(t, ta).Admitted; got != accepted.Cost().Total() {
		t.Fatalf("quota ledger %v, want the accepted plan's %v (shed charge not refunded)",
			got, accepted.Cost().Total())
	}
}

// ShedOldest sacrifices the oldest queued plan for the incoming one.
func TestShedOldestDropsQueuedVictim(t *testing.T) {
	c := tenantTestCommWith(t, 1<<13, Config{})
	ta, err := c.NewTenant(servingTenantCfg("a", 1, ShedOldest))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := ta.Submit(servingCollective)
	if err != nil {
		t.Fatal(err)
	}
	winner, err := ta.Submit(servingCollective)
	if err != nil {
		t.Fatal(err)
	}
	if !victim.Done() || !errors.Is(victim.Err(), ErrOverloaded) {
		t.Fatalf("oldest queued plan not shed: done=%v err=%v", victim.Done(), victim.Err())
	}
	c.Flush()
	if winner.Err() != nil {
		t.Fatalf("incoming plan failed: %v", winner.Err())
	}
}

// Tenant.Close retires the session: queued work drains first, later
// compiles, runs and submissions fail with ErrTenantClosed (a plan
// compiled before the close through its future), a second Close fails
// the same way, and the tenant moves to the retired list with its meter
// intact.
func TestTenantCloseRetires(t *testing.T) {
	c := tenantTestComm(t, 1<<13)
	ta, err := c.NewTenant(servingTenantCfg("a", 0, ShedReject))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ta.Compile(servingCollective)
	if err != nil {
		t.Fatal(err)
	}
	f := cp.Submit()
	if err := ta.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if f.Err() != nil {
		t.Fatalf("pending plan not drained before close: %v", f.Err())
	}
	if !ta.Closed() {
		t.Fatal("tenant not marked closed")
	}
	if err := ta.Close(); !errors.Is(err, ErrTenantClosed) {
		t.Fatalf("double close error = %v, want ErrTenantClosed", err)
	}
	if _, err := ta.Run(servingCollective); !errors.Is(err, ErrTenantClosed) {
		t.Fatalf("Run after close error = %v, want ErrTenantClosed", err)
	}
	if _, err := ta.Submit(servingCollective); !errors.Is(err, ErrTenantClosed) {
		t.Fatalf("Submit after close error = %v, want ErrTenantClosed", err)
	}
	if fc := cp.Submit(); !errors.Is(fc.Err(), ErrTenantClosed) {
		t.Fatalf("future of a pre-close plan submitted after close: error = %v, want ErrTenantClosed", fc.Err())
	}
	rows := c.Snapshot().Tenants
	if len(rows) != 1 || rows[0].Name != "a" || !rows[0].Retired {
		t.Fatalf("tenant rows %+v, want one retired row for a", rows)
	}
	if rows[0].Meter != ta.Meter() || rows[0].Meter.Total() == 0 {
		t.Fatal("retired tenant lost its meter")
	}
}

// A successor session compiles its own plans on the machine's shape rows:
// at the retiree's base and at another one, its first compile hits the
// row the retiree traced and returns a plan of its own that runs — never
// the retired tenant's plan.
func TestTenantCloseEvictsOwnedPlans(t *testing.T) {
	for _, pad := range []int{0, 1 << 10} {
		c := tenantTestComm(t, 1<<13)
		ta, err := c.NewTenant(servingTenantCfg("a", 0, ShedReject))
		if err != nil {
			t.Fatal(err)
		}
		old, err := ta.Compile(servingCollective)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := ta.Compile(servingCollective); err != nil || again.planEntry != old.planEntry {
			t.Fatalf("recompile = %p, %v; want a plan on the row %p", again, err, old.planEntry)
		}
		if err := ta.Close(); err != nil {
			t.Fatal(err)
		}
		if pad > 0 { // the successor lands behind the pad
			if _, err := c.NewTenant(TenantConfig{Name: "pad", ArenaBytes: pad}); err != nil {
				t.Fatal(err)
			}
		}
		tb, err := c.NewTenant(servingTenantCfg("b", 0, ShedReject))
		if err != nil {
			t.Fatal(err)
		}
		if base, _ := tb.Arena(); base != pad {
			t.Fatalf("pad %d: successor at base %d", pad, base)
		}
		before := c.Snapshot().PlanCache
		cp, err := tb.Compile(servingCollective)
		if err != nil {
			t.Fatal(err)
		}
		st := c.Snapshot().PlanCache
		if st.TraceHits != before.TraceHits+1 || st.TraceMisses != 1 || st.CachedTraces != 1 {
			t.Errorf("pad %d: successor compile booked %+v after %+v, want a hit on the retiree's row", pad, st, before)
		}
		if cp == old || cp.owner != tb || &cp.tr != &old.tr {
			t.Errorf("pad %d: successor plan %p (owner %q), retiree's %p: want a plan of its own on the shared trace", pad, cp, cp.owner.name, old)
		}
		if f := cp.Submit(); f.Err() != nil {
			t.Fatalf("pad %d: successor plan failed: %v", pad, f.Err())
		}
	}
}

// After churn empties and removes a bucket, a successor tenant's fresh
// bucket must rejoin the weighted-fair scheduler at the current virtual
// clock — no burst credit accumulated while it did not exist.
func TestEmptyBucketRejoinsAtVclockAfterChurn(t *testing.T) {
	c := tenantTestComm(t, 1<<13)
	ta, err := c.NewTenant(servingTenantCfg("a", 0, ShedReject))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := c.NewTenant(servingTenantCfg("b", 0, ShedReject))
	if err != nil {
		t.Fatal(err)
	}
	// Drive b's virtual time forward, then churn a (idle the whole
	// time): the successor at a's base must join at the clock, not at 0.
	for i := 0; i < 8; i++ {
		f, err := tb.Submit(servingCollective)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Err(); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	if err := ta.Close(); err != nil {
		t.Fatal(err)
	}
	tc, err := c.NewTenant(servingTenantCfg("c", 0, ShedReject))
	if err != nil {
		t.Fatal(err)
	}
	fc, err := tc.Submit(servingCollective)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.Err(); err != nil {
		t.Fatal(err)
	}
	c.asyncMu.Lock()
	vb, vc := tb.sq.vtime, tc.sq.vtime
	c.asyncMu.Unlock()
	if vc == 0 {
		t.Errorf("successor bucket kept zero vtime (burst credit); want join at vclock ~%v", vb)
	}
}

// A Compile racing Close may return a plan, but that plan never runs: the
// last plan the loop compiled fails Run and Submit with ErrTenantClosed
// after Close and charges no meter. Meaningful under -race.
func TestCloseRacingCompileLeavesNoRunnablePlan(t *testing.T) {
	c := tenantTestComm(t, 1<<13)
	for round := 0; round < 50; round++ {
		ten, err := c.NewTenant(servingTenantCfg("racer", 0, ShedReject))
		if err != nil {
			t.Fatal(err)
		}
		started, done := make(chan struct{}), make(chan error, 1)
		var last *CompiledPlan
		go func() {
			d := servingCollective
			for k := 0; ; k++ { // distinct keys, Dst clear of Src
				d.Dst.Off = servingCollective.Dst.Off + 8*(k%256)
				cp, err := ten.Compile(d)
				if err != nil {
					done <- err
					return
				}
				if last = cp; k == 0 {
					close(started)
				}
			}
		}()
		<-started
		if err := ten.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; !errors.Is(err, ErrTenantClosed) {
			t.Fatalf("round %d: compile loop ended with %v, want ErrTenantClosed", round, err)
		}
		machine := c.Meter().Snapshot()
		if _, err := last.Run(); !errors.Is(err, ErrTenantClosed) {
			t.Errorf("round %d: Run of a plan compiled while closing = %v, want ErrTenantClosed", round, err)
		}
		if err := last.Submit().Err(); !errors.Is(err, ErrTenantClosed) {
			t.Errorf("round %d: Submit of a plan compiled while closing = %v, want ErrTenantClosed", round, err)
		}
		if c.Meter().Snapshot() != machine || ten.Meter() != (cost.Breakdown{}) {
			t.Errorf("round %d: a closed session's plan charged a meter", round)
		}
	}
}
