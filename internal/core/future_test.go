package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
)

// Tests of the Future's completion path (an atomic flag plus the comm's
// one wait, waitLocked) and of its storage (carved from a per-Comm chunk,
// never reused).

// gatherDesc is a rooted Gather over asyncTestComm's 32 PEs: on the
// functional backend its future carries detached result bytes.
var gatherDesc = Collective{Prim: Gather, Dims: "1", Src: Span(0, 64), Level: IM}

// pollLocked yields until cond, evaluated under c's asyncMu, holds.
func pollLocked(t *testing.T, c *Comm, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		c.asyncMu.Lock()
		ok := cond()
		c.asyncMu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// waitForWaiter returns once a goroutine has parked on f's comm: a waiter
// that must block counts itself in parked under asyncMu.
func waitForWaiter(t *testing.T, f *Future) {
	t.Helper()
	c := f.cp.owner.c
	pollLocked(t, c, "a waiter blocks on the future", func() bool { return c.parked > 0 })
}

// The steady-state serving trip — SubmitOpts, the policy's pick, the
// placement, the charge replay under the tenant's recorder, completion —
// allocates nothing: only the chunk refill, once per futureChunk
// submissions, which AllocsPerRun's whole-object average rounds away.
func TestSubmitStepDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, pol := range []SchedPolicy{SchedWFQ, SchedEDF, SchedLookahead} {
		c := tenantTestCommWith(t, 1<<14, Config{Sched: pol})
		var plans []*CompiledPlan
		for _, name := range []string{"a", "b"} {
			ten, err := c.NewTenant(servingTenantCfg(name, 8, ShedReject))
			if err != nil {
				t.Fatal(err)
			}
			cp, err := ten.Compile(servingCollective)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, cp)
		}
		now := cost.Seconds(0)
		round := func() {
			for _, cp := range plans {
				cp.SubmitOpts(SubmitOptions{NotBefore: now, Deadline: now + 1})
			}
			for range plans {
				f := c.Step()
				if f == nil || !f.Done() || f.Err() != nil {
					t.Fatalf("%v: Step returned %v", pol, f)
				}
				_, now = f.Window()
			}
		}
		for i := 0; i < 1000; i++ { // past the frontier bound and the timeline's growth
			round()
		}
		if got := testing.AllocsPerRun(640, round); got != 0 {
			t.Errorf("%v: a round of two submissions and two steps allocates %v objects, want 0", pol, got)
		}
	}
}

// Eight goroutines blocked in every accessor of one future all wake once
// and read the same values, and the same results of its plan.
func TestFutureConcurrentAccessorsAgree(t *testing.T) {
	c := asyncTestComm(t, false)
	fillPEs(c, 0, 64, 5)
	cp, err := c.Compile(gatherDesc)
	if err != nil {
		t.Fatal(err)
	}
	c.execMu.Lock() // the first waiter picks the plan and stops here
	f := cp.Submit()
	type seen struct {
		bd         cost.Breakdown
		err, err2  error
		start, end cost.Seconds
		out        []byte
	}
	got := make([]seen, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(s *seen) {
			defer wg.Done()
			s.bd, s.err = f.Wait()
			s.err2 = f.Err()
			s.start, s.end = f.Window()
			s.out = f.Plan().Results()[0]
		}(&got[i])
	}
	waitForWaiter(t, f)
	if f.Done() {
		t.Fatal("the future completed while its plan could not execute")
	}
	c.execMu.Unlock()
	wg.Wait()
	want := got[0]
	if want.err != nil || want.bd != cp.Cost() || want.end <= want.start || len(want.out) != 32*64 {
		t.Fatalf("waiter 0 saw %+v", want)
	}
	for i, s := range got {
		if s.bd != want.bd || s.err != nil || s.err2 != nil || s.start != want.start || s.end != want.end || !bytes.Equal(s.out, want.out) {
			t.Errorf("waiter %d saw %+v, waiter 0 %+v", i, s, want)
		}
	}
	if bd := f.Cost(); bd != want.bd || !f.Done() {
		t.Errorf("after completion: Cost %v, Done %v", bd, f.Done())
	}
}

// A goroutine blocked in Wait on a queued future that ShedOldest drops is
// released with ErrOverloaded, a zero breakdown and a zero window.
func TestBlockedWaiterReleasedByDrop(t *testing.T) {
	c := tenantTestCommWith(t, 1<<13, Config{})
	ten, err := c.NewTenant(servingTenantCfg("a", 2, ShedOldest))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ten.Compile(servingCollective)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		bd  cost.Breakdown
		err error
	}

	// Two in flight of two allowed — the first picked by a helper's Wait,
	// which cannot finish it, f queued behind it — so a third submission
	// sheds f while f's waiter is parked.
	c.execMu.Lock()
	first := cp.Submit()
	firstErr := make(chan error, 1)
	go func() { firstErr <- first.Err() }()
	pollLocked(t, c, "the helper has picked the first plan", func() bool { return len(ten.sq.q) == 0 })
	f := cp.Submit()
	res := make(chan result, 1)
	go func() {
		bd, err := f.Wait()
		res <- result{bd, err}
	}()
	waitForWaiter(t, f)
	newer := cp.Submit()
	if !f.Done() {
		c.execMu.Unlock()
		t.Fatal("the third submission left f queued")
	}
	if r := <-res; !errors.Is(r.err, ErrOverloaded) || r.bd != (cost.Breakdown{}) {
		t.Fatalf("dropped future: Wait = %v, %v; want a zero breakdown and %v", r.bd, r.err, ErrOverloaded)
	}
	if s, e := f.Window(); s != 0 || e != 0 || !f.Done() {
		t.Fatalf("dropped future: window [%v, %v), Done %v", s, e, f.Done())
	}
	c.execMu.Unlock()
	if err := <-firstErr; err != nil {
		t.Fatal(err)
	}
	if err := newer.Err(); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if got := c.Pending(); got != 0 {
		t.Fatalf("after the drop: Pending %d", got)
	}
}

// Picked plans execute one at a time, in pick order, whichever
// goroutines drain the queue. While a waiter's pick is blocked on the held
// execMu, a Flush from a second goroutine parks instead of picking the
// plan queued behind it: that plan depends on the first (the same plan
// again, a write-after-write hazard), and a second picker could take
// execMu first and run it before the plan it must follow.
func TestConcurrentDrainersKeepPickOrder(t *testing.T) {
	c := withSession(t, tenantTestCommWith(t, 1<<13, Config{}))
	cp, err := c.Compile(servingCollective)
	if err != nil {
		t.Fatal(err)
	}
	c.execMu.Lock()
	first, second := cp.Submit(), cp.Submit()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); first.Wait() }()
	pollLocked(t, c.Comm, "the first waiter has picked its plan", func() bool { return len(c.s.sq.q) == 1 })
	go func() { defer wg.Done(); c.Flush() }()
	pollLocked(t, c.Comm, "the flush parks or picks", func() bool { return c.parked > 0 || len(c.s.sq.q) == 0 })
	c.asyncMu.Lock()
	queued := len(c.s.sq.q)
	c.asyncMu.Unlock()
	c.execMu.Unlock()
	wg.Wait()
	if queued != 1 {
		t.Fatal("a second drainer picked a plan while the first pick was still executing")
	}
	_, e1 := first.Window()
	if s2, _ := second.Window(); s2 < e1 {
		t.Fatalf("the dependent plan started at %v, before the plan it follows ended at %v", s2, e1)
	}
}

// A submission racing Close either runs or fails with ErrTenantClosed,
// and none is left queued: submit checks the closed flag in the section
// that enqueues, and Close sets it before its drain. One goroutine
// submits 64 times while another closes the tenant; once both return,
// every future is complete and nothing is pending.
func TestSubmitRacingCloseDrains(t *testing.T) {
	c := tenantTestCommWith(t, 1<<13, Config{})
	for round := 0; round < 50; round++ {
		ten, err := c.NewTenant(TenantConfig{Name: "racer", ArenaBytes: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := ten.Compile(servingCollective)
		if err != nil {
			t.Fatal(err)
		}
		fs := make([]*Future, 64)
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			for i := range fs {
				fs[i] = cp.Submit()
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			if err := ten.Close(); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		for i, f := range fs {
			if !f.Done() {
				t.Fatalf("round %d: submission %d is still queued after Close", round, i)
			}
			if err := f.Err(); err != nil && !errors.Is(err, ErrTenantClosed) {
				t.Fatalf("round %d: submission %d failed with %v", round, i, err)
			}
		}
		if got := c.Pending(); got != 0 {
			t.Fatalf("round %d: Pending %d after Close", round, got)
		}
	}
}

// A future rejected at admission is complete when submit returns: no
// accessor blocks.
func TestRejectedFutureIsDone(t *testing.T) {
	c := tenantTestCommWith(t, 1<<13, Config{})
	ten, err := c.NewTenant(TenantConfig{Name: "capped", ArenaBytes: 1 << 12, Quota: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ten.Compile(servingCollective)
	if err != nil {
		t.Fatal(err)
	}
	f := cp.Submit()
	if !f.Done() {
		t.Fatal("a quota-rejected future is not Done on return")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		bd, err := f.Wait()
		s, e := f.Window()
		if !errors.Is(err, ErrQuotaExceeded) || !errors.Is(f.Err(), ErrQuotaExceeded) ||
			bd != (cost.Breakdown{}) || f.Cost() != bd || s != 0 || e != 0 || f.Plan() != cp {
			t.Errorf("rejected future: %v, %v, window [%v, %v)", bd, err, s, e)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an accessor of a rejected future blocked")
	}
	if c.Pending() != 0 {
		t.Fatalf("the rejection left %d pending", c.Pending())
	}
}

// Done polled from a second goroutine while the first steps flips from
// false to true once, and the poller then reads the final window.
func TestDonePolledWhileStepping(t *testing.T) {
	c := withSession(t, tenantTestCommWith(t, 1<<13, Config{}))
	cp, err := c.Compile(servingCollective)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		f := cp.Submit()
		sawFalse := make(chan struct{})
		type polled struct {
			flips      int
			start, end cost.Seconds
		}
		res := make(chan polled, 1)
		go func() {
			var p polled
			last := f.Done()
			if last {
				t.Error("the future was Done before anyone stepped")
			}
			close(sawFalse)
			for i := 0; i < 1000 || !last; i++ { // keep polling past the flip
				if d := f.Done(); d != last {
					p.flips++
					last = d
				}
			}
			p.start, p.end = f.Window()
			res <- p
		}()
		<-sawFalse
		stepped := c.Step()
		if stepped != f {
			t.Fatal("Step served another future")
		}
		s, e := stepped.Window()
		if p := <-res; p.flips != 1 || p.start != s || p.end != e || e <= s {
			t.Fatalf("round %d: the poller saw %d flips and window [%v, %v), Step's future has [%v, %v)",
				round, p.flips, p.start, p.end, s, e)
		}
	}
}

// Carving is not pooling: a held handle keeps its plan, window and error
// while the comm carves on through that chunk and three more, and no
// later submission is handed the same Future. Its plan's results are the
// latest run's: every run overwrites them.
func TestCarvedFutureOutlivesItsChunk(t *testing.T) {
	c := asyncTestComm(t, false)
	fillPEs(c, 0, 64, 5)
	cp, err := c.Compile(gatherDesc)
	if err != nil {
		t.Fatal(err)
	}
	held := cp.Submit() // the first future of the comm's first chunk
	if err := held.Err(); err != nil {
		t.Fatal(err)
	}
	if len(c.futs) != futureChunk-1 {
		t.Fatalf("the first submission left %d futures in the chunk, want %d", len(c.futs), futureChunk-1)
	}
	start, end := held.Window()
	out := append([]byte(nil), cp.Results()[0]...)

	fillPEs(c, 0, 64, 6) // later runs gather other bytes
	for i := 0; i < 200; i++ {
		f := cp.Submit()
		if f == held {
			t.Fatalf("submission %d was handed the held future", i)
		}
		if err := f.Err(); err != nil {
			t.Fatal(err)
		}
	}
	s, e := held.Window()
	if held.Plan() != cp || s != start || e != end || held.Err() != nil {
		t.Fatalf("the held future changed: plan %p, window [%v, %v) was [%v, %v), err %v",
			held.Plan(), s, e, start, end, held.Err())
	}
	if bytes.Equal(cp.Results()[0], out) {
		t.Fatal("the later runs did not overwrite the plan's results")
	}
}
