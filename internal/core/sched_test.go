package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/dram"
)

// Tests for the schedulers table and the policies behind the
// pickLocked funnel: name round-trips, the lookahead policy's
// makespan-aware reordering and starvation bound, the configurable
// candidate window, and the funnel's bit-identical-to-serial contract
// under every policy.

// Every policy name must round-trip through ParseSchedPolicy
// and String, and the four built-ins must be present under their
// documented names.
func TestParseSchedPolicyRoundTrip(t *testing.T) {
	pols := SchedPolicies()
	if len(pols) < 4 {
		t.Fatalf("table has %d policies, want at least the 4 built-ins", len(pols))
	}
	for _, p := range pols {
		got, err := ParseSchedPolicy(p.String())
		if err != nil {
			t.Fatalf("ParseSchedPolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("round trip %v -> %q -> %v", p, p.String(), got)
		}
	}
	for name, want := range map[string]SchedPolicy{
		"wfq": SchedWFQ, "edf": SchedEDF, "fifo": SchedFIFO, "lookahead": SchedLookahead,
	} {
		if got, err := ParseSchedPolicy(name); err != nil || got != want {
			t.Errorf("ParseSchedPolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseSchedPolicy("nope"); err == nil {
		t.Error("unknown policy name parsed")
	} else if !strings.Contains(err.Error(), "wfq") {
		t.Errorf("parse error %q does not list the valid names", err)
	}
	if s := SchedPolicy(97).String(); s != "SchedPolicy(97)" {
		t.Errorf("out-of-table policy prints %q", s)
	}
}

// New validates the serving half of its Config once: a lookahead window
// out of range or a policy outside the schedulers table is an error
// there, not a fallback at pick time; 0 means the default window.
func TestNewValidatesLookaheadAndPolicy(t *testing.T) {
	if got := tenantTestComm(t, 1<<13).lookahead; got != DefaultLookahead {
		t.Errorf("default lookahead %d, want %d", got, DefaultLookahead)
	}
	if got := tenantTestCommWith(t, 1<<13, Config{Lookahead: 4}).lookahead; got != 4 {
		t.Errorf("lookahead %d at Config.Lookahead 4", got)
	}
	geo := dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 13}
	for _, bad := range []Config{
		{Lookahead: -1}, {Lookahead: MaxPendingPlans + 1},
		{Sched: SchedPolicy(-1)}, {Sched: SchedPolicy(len(schedulers))},
	} {
		if _, err := New(geo, []int{16}, bad); err == nil {
			t.Errorf("New accepted %+v", bad)
		}
	}
}

// fakeSegFuture is fakeFuture with an explicit charge-trace lane
// profile, so the lookahead policy's projection has real segments to
// dry-place.
func fakeSegFuture(seq uint64, segs []cost.Segment) *Future {
	var tot cost.Seconds
	for _, s := range segs {
		tot += s.Dur
	}
	m := cost.NewMeter()
	m.Add(cost.PEMem, tot)
	return &Future{seq: seq, cp: &CompiledPlan{planEntry: &planEntry{tr: chargeTrace{total: m.Snapshot(), segs: segs}}}}
}

// The lookahead policy reorders independent queue-mates by projected
// makespan: a bus-only plan submitted second runs first when doing so
// lets the CPU+bus plan hide its CPU pass under the bus streaming
// (joint makespan 3 vs 4 time units), even though every other policy
// would serve the earlier submission.
func TestLookaheadPicksMakespanMinimizer(t *testing.T) {
	cpuThenBus := fakeSegFuture(1, []cost.Segment{
		{Lane: cost.LaneCPU, Dur: 1}, {Lane: cost.LaneBus, Dur: 1}})
	busOnly := fakeSegFuture(2, []cost.Segment{{Lane: cost.LaneBus, Dur: 2}})
	c := &Comm{sched: &lookaheadSched{}, lookahead: DefaultLookahead}
	bareBuckets(c, 1)[0].q = []*Future{cpuThenBus, busOnly}

	c.asyncMu.Lock()
	first := c.pickLocked()
	second := c.pickLocked()
	c.asyncMu.Unlock()
	if first != busOnly || second != cpuThenBus {
		t.Errorf("pick order %d, %d; want 2 (bus-only first), 1", first.seq, second.seq)
	}
}

// The lookahead starvation bound: a bucket the policy's tie-break never
// favors (no deadline, against a deep bucket of deadlined plans) is
// still served once the favored bucket's virtual time falls
// lookaheadSlack weighted shares ahead — within a bounded number of
// picks, not after the whole backlog.
func TestLookaheadStarvationBound(t *testing.T) {
	c := &Comm{sched: &lookaheadSched{}, lookahead: DefaultLookahead}
	qs := bareBuckets(c, 1, 1)
	a, b := qs[0], qs[1]
	for i := 0; i < 32; i++ {
		f := fakeFuture(1)
		f.seq = uint64(i + 1)
		f.deadline = cost.Seconds(i + 1) // ties go to A on every pick
		a.q = append(a.q, f)
	}
	starved := fakeFuture(1)
	starved.seq = 33
	b.q = append(b.q, starved)

	servedAt := 0
	for i := 1; i <= 34; i++ {
		c.asyncMu.Lock()
		f := c.pickLocked()
		c.asyncMu.Unlock()
		if f == nil {
			t.Fatalf("queue dry after %d picks", i-1)
		}
		if f == starved {
			servedAt = i
			break
		}
	}
	if servedAt == 0 {
		t.Fatal("deadline-free bucket starved behind the whole backlog")
	}
	if servedAt <= 2 {
		t.Errorf("starved plan served at pick %d — bound test exerts no pressure", servedAt)
	}
	if servedAt > lookaheadSlack+4 {
		t.Errorf("starved plan served at pick %d, want within %d (slack %d shares)",
			servedAt, lookaheadSlack+4, lookaheadSlack)
	}
}

// schedPropertyPlans compiles the property-test workload on c: two
// tenants with 2:1 weights, each submitting three rounds over two
// independent region sets. Repeats of a region set chain on a data
// hazard; the two sets (and the two tenants) are independent, so a
// reordering policy has real freedom while hazard chains pin the rest.
func schedPropertyPlans(t *testing.T, c *Comm) []*CompiledPlan {
	t.Helper()
	const m = 16 * 8
	ta, err := c.NewTenant(TenantConfig{Name: "a", ArenaBytes: 1 << 12, Weight: 2})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := c.NewTenant(TenantConfig{Name: "b", ArenaBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ten *Tenant, base int) *CompiledPlan {
		cp, err := ten.Compile(Collective{Prim: AlltoAll, Dims: "1",
			Src: Span(base, m), Dst: At(base + 2*m), Level: CM})
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	sets := []*CompiledPlan{mk(ta, 0), mk(ta, 1024), mk(tb, 0), mk(tb, 1024)}
	var plans []*CompiledPlan
	for round := 0; round < 3; round++ {
		plans = append(plans, sets...)
	}
	return plans
}

// Every policy preserves hazard order and stays bit-identical
// to a serial replay in the order it chose: per-future breakdowns and
// the machine meter must match the twin's bit for bit. Runs the whole
// table, so a new row is held to the same contract.
func TestSchedulersBitIdenticalToSerialReplay(t *testing.T) {
	for _, pol := range SchedPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			c := tenantTestCommWith(t, 1<<13, Config{Sched: pol, Lookahead: 4})
			plans := schedPropertyPlans(t, c)
			idx := map[*Future]int{}
			for i, cp := range plans {
				f := cp.SubmitOpts(SubmitOptions{Deadline: cost.Seconds(i + 1)})
				idx[f] = i
			}
			var picked []*Future
			for f := c.Step(); f != nil; f = c.Step() {
				if err := f.Err(); err != nil {
					t.Fatal(err)
				}
				picked = append(picked, f)
			}
			if len(picked) != len(plans) {
				t.Fatalf("drained %d futures, submitted %d", len(picked), len(plans))
			}
			// Hazard order: repeats of one compiled plan conflict, so their
			// submission indices must drain in increasing order.
			last := map[*CompiledPlan]int{}
			for _, f := range picked {
				i := idx[f]
				cp := plans[i]
				if prev, ok := last[cp]; ok && i < prev {
					t.Fatalf("%v reordered a hazard chain: submission %d after %d", pol, i, prev)
				}
				last[cp] = i
			}
			// Bit-identity: replay on a serial twin in the picked order.
			twin := tenantTestComm(t, 1<<13)
			tp := schedPropertyPlans(t, twin)
			for _, f := range picked {
				bd, err := tp[idx[f]].Run()
				if err != nil {
					t.Fatal(err)
				}
				if f.Cost() != bd {
					t.Fatalf("%v broke bit-identical replay at submission %d: %v vs serial %v",
						pol, idx[f], f.Cost(), bd)
				}
			}
			if got, want := c.Meter().Snapshot(), twin.Meter().Snapshot(); got != want {
				t.Errorf("%v machine meter %v, serial twin %v", pol, got, want)
			}
		})
	}
}

// Every policy drains a queue cleanly while submissions race in: a
// second goroutine steps the queue as the first submits, which puts the
// funnel's locking under the race detector for each policy.
func TestSchedulersConcurrentDrain(t *testing.T) {
	for _, pol := range SchedPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			c := tenantTestCommWith(t, 1<<13, Config{Sched: pol})
			plans := schedPropertyPlans(t, c)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range plans {
					c.Step()
				}
			}()
			var fs []*Future
			for _, cp := range plans {
				fs = append(fs, cp.Submit())
			}
			wg.Wait()
			c.Flush()
			for i, f := range fs {
				if err := f.Err(); err != nil {
					t.Fatalf("submission %d: %v", i, err)
				}
			}
		})
	}
}
