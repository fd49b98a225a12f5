package serve

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/cost"
	"repro/pidcomm"
)

func mustScenario(t *testing.T, pol pidcomm.SchedPolicy, rho float64, n int) Config {
	t.Helper()
	cfg, err := Scenario(pol, rho, n)
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	return cfg
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestPercentileNearestRank pits Percentile against a brute-force
// restatement of the nearest-rank definition — the smallest element
// covering fraction p of the population — over random populations with
// duplicates.
func TestPercentileNearestRank(t *testing.T) {
	brute := func(xs []cost.Seconds, p float64) cost.Seconds {
		for i := range xs {
			if float64(i+1) >= p*float64(len(xs)) {
				return xs[i]
			}
		}
		return xs[len(xs)-1]
	}
	rng := rand.New(rand.NewSource(7))
	ps := []float64{0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		xs := make([]cost.Seconds, n)
		v := cost.Seconds(0)
		for i := range xs {
			if rng.Float64() < 0.7 { // duplicates are common in quantized sojourns
				v += cost.Seconds(rng.Float64())
			}
			xs[i] = v
		}
		for _, p := range ps {
			if got, want := Percentile(xs, p), brute(xs, p); got != want {
				t.Fatalf("trial %d n=%d p=%v: Percentile=%v brute=%v", trial, n, p, got, want)
			}
		}
	}
	if got := Percentile(nil, 0.99); got != 0 {
		t.Fatalf("empty population: got %v, want 0", got)
	}
}

// TestRunDeterminism pins the driver's replay guarantee: identical
// configs with identical seeds produce bit-identical per-request
// outcomes, and a different seed produces a different trace. Covers the
// plain, churning and fused variants under both policies.
func TestRunDeterminism(t *testing.T) {
	for _, pol := range []pidcomm.SchedPolicy{pidcomm.SchedWFQ, pidcomm.SchedEDF} {
		base := mustScenario(t, pol, 0.9, 400)
		for name, mutate := range map[string]func(*Config){
			"plain": func(*Config) {},
			"churn": func(c *Config) { c.ChurnEvery = 40 },
			"fused": func(c *Config) { c.Fused = true },
		} {
			cfg := base
			mutate(&cfg)
			a, b := mustRun(t, cfg), mustRun(t, cfg)
			if !reflect.DeepEqual(a.Requests, b.Requests) {
				t.Fatalf("%v/%s: replay diverged", pol, name)
			}
			if a.Breakdown != b.Breakdown || a.Makespan != b.Makespan {
				t.Fatalf("%v/%s: aggregate replay diverged", pol, name)
			}
		}
		reseeded := base
		reseeded.Seed = base.Seed + 1
		if reflect.DeepEqual(mustRun(t, base).Requests, mustRun(t, reseeded).Requests) {
			t.Fatalf("%v: different seeds produced identical traces", pol)
		}
	}
}

// TestHazardOrdering asserts the scheduler never violates data hazards,
// EDF included: one tenant's requests reuse the same arena regions, so
// their placed windows must serialize in arrival order no matter how
// the policy reorders picks across tenants. Also pins NotBefore — no
// request may start before it arrived ("future leak").
func TestHazardOrdering(t *testing.T) {
	for _, pol := range []pidcomm.SchedPolicy{pidcomm.SchedWFQ, pidcomm.SchedEDF} {
		for _, churn := range []int{0, 40} {
			cfg := mustScenario(t, pol, 0.9, 600)
			cfg.ChurnEvery = churn
			res := mustRun(t, cfg)
			lastEnd := make([]cost.Seconds, len(cfg.Tenants))
			for i, r := range res.Requests {
				if r.Shed {
					continue
				}
				if r.Start < r.Arrival {
					t.Fatalf("%v churn=%d req %d: started %v before arrival %v", pol, churn, i, r.Start, r.Arrival)
				}
				if r.End <= r.Start {
					t.Fatalf("%v churn=%d req %d: empty window [%v,%v]", pol, churn, i, r.Start, r.End)
				}
				if r.Start < lastEnd[r.Tenant] {
					t.Fatalf("%v churn=%d req %d: hazard violated — starts %v before tenant %d frontier %v",
						pol, churn, i, r.Start, r.Tenant, lastEnd[r.Tenant])
				}
				lastEnd[r.Tenant] = r.End
			}
		}
	}
}

// TestEDFBeatsWFQGate is the acceptance pin behind the benchmark gate:
// at the canonical rho=0.9 operating point EDF must miss zero deadlines
// and deliver at least 1.2x lower SLO-population p99 than plain WFQ on
// the same arrival trace, without losing throughput.
func TestEDFBeatsWFQGate(t *testing.T) {
	wfq := mustRun(t, mustScenario(t, pidcomm.SchedWFQ, 0.9, 800))
	edf := mustRun(t, mustScenario(t, pidcomm.SchedEDF, 0.9, 800))
	if edf.Missed != 0 {
		t.Fatalf("EDF missed %d deadlines below saturation", edf.Missed)
	}
	if edf.Completed != wfq.Completed || edf.Shed != 0 || wfq.Shed != 0 {
		t.Fatalf("policies diverged on work done: edf %d/%d wfq %d/%d",
			edf.Completed, edf.Shed, wfq.Completed, wfq.Shed)
	}
	if float64(wfq.SLO.P99) < 1.2*float64(edf.SLO.P99) {
		t.Fatalf("EDF p99 advantage below 1.2x gate: wfq=%v edf=%v (%.3fx)",
			wfq.SLO.P99, edf.SLO.P99, float64(wfq.SLO.P99)/float64(edf.SLO.P99))
	}
	if diff := float64(wfq.Makespan - edf.Makespan); diff > 0.01*float64(wfq.Makespan) || -diff > 0.01*float64(wfq.Makespan) {
		t.Fatalf("makespans diverged: wfq=%v edf=%v", wfq.Makespan, edf.Makespan)
	}
}

// TestWFQvsEDFDifferential widens the gate across loads and seeds: EDF
// never trails WFQ on SLO p99 or deadline misses on the same trace.
func TestWFQvsEDFDifferential(t *testing.T) {
	for _, rho := range []float64{0.6, 0.75, 1.1} {
		for _, seed := range []int64{42, 1234} {
			wcfg := mustScenario(t, pidcomm.SchedWFQ, rho, 500)
			ecfg := mustScenario(t, pidcomm.SchedEDF, rho, 500)
			wcfg.Seed, ecfg.Seed = seed, seed
			wfq, edf := mustRun(t, wcfg), mustRun(t, ecfg)
			if edf.SLO.P99 > wfq.SLO.P99 {
				t.Errorf("rho=%v seed=%d: EDF p99 %v worse than WFQ %v", rho, seed, edf.SLO.P99, wfq.SLO.P99)
			}
			if edf.Missed > wfq.Missed {
				t.Errorf("rho=%v seed=%d: EDF missed %d > WFQ %d", rho, seed, edf.Missed, wfq.Missed)
			}
		}
	}
}

// TestPreemptionPoints pins why the driver submits per-segment plans by
// default: fusing a request into one plan removes the scheduler's
// preemption points, so the tight-SLO chat tenant's tail grows even
// though fusion lowers total work.
func TestPreemptionPoints(t *testing.T) {
	seg := mustRun(t, mustScenario(t, pidcomm.SchedEDF, 0.9, 600))
	fcfg := mustScenario(t, pidcomm.SchedEDF, 0.9, 600)
	fcfg.Fused = true
	fused := mustRun(t, fcfg)
	if fused.Completed != seg.Completed {
		t.Fatalf("fused completed %d != segmented %d", fused.Completed, seg.Completed)
	}
	if fused.Tenants[0].Stats.P99 <= seg.Tenants[0].Stats.P99 {
		t.Fatalf("expected fused chat p99 above segmented: fused=%v segmented=%v",
			fused.Tenants[0].Stats.P99, seg.Tenants[0].Stats.P99)
	}
}

// TestChurnRun pins the tenant-churn invariants at the driver level:
// churn changes neither the work done nor (beyond float fold order) the
// attributed cost, every tenant actually cycles, and the allocator ends
// re-coalesced to the same free state as a churn-free run — with one
// retired row per tenant generation in the final snapshot (pidcomm's
// TestServeChurnSnapshot holds the same run to every snapshot invariant).
func TestChurnRun(t *testing.T) {
	cfg := mustScenario(t, pidcomm.SchedEDF, 0.9, 600)
	plain := mustRun(t, cfg)
	cfg.ChurnEvery = 50
	churned := mustRun(t, cfg)
	generations := len(cfg.Tenants)
	for _, ts := range churned.Tenants {
		generations += ts.Churns
	}
	if rows := churned.Snapshot.Tenants; len(rows) != generations || !rows[generations-1].Retired ||
		len(plain.Snapshot.Tenants) != len(cfg.Tenants) || churned.Snapshot.Meter != churned.Breakdown {
		t.Fatalf("%d tenant rows after churn and %d without, want %d and %d, all retired and summing to the breakdown",
			len(rows), len(plain.Snapshot.Tenants), generations, len(cfg.Tenants))
	}
	if churned.Completed != plain.Completed || churned.Shed != 0 {
		t.Fatalf("churn changed work done: %d/%d vs %d", churned.Completed, churned.Shed, plain.Completed)
	}
	for i, ts := range churned.Tenants {
		if ts.Churns == 0 {
			t.Fatalf("tenant %d never churned", i)
		}
	}
	if !reflect.DeepEqual(churned.FreeSpans, plain.FreeSpans) {
		t.Fatalf("allocator did not re-coalesce after churn: %v vs %v", churned.FreeSpans, plain.FreeSpans)
	}
	if len(plain.FreeSpans) != 1 || plain.FreeSpans[0].Base != 0 {
		t.Fatalf("expected one full free span, got %v", plain.FreeSpans)
	}
	got, want := float64(churned.Breakdown.Total()), float64(plain.Breakdown.Total())
	if diff := got - want; diff > 1e-9*want || -diff > 1e-9*want {
		t.Fatalf("churn changed attributed cost: %v vs %v", got, want)
	}
}

// TestRunAllocsPerRequest is the allocation gate of the serving path: a
// run's heap traffic is its fixed tables, the cold compiles and — with
// churn — the tenant recreations, not anything per request. Over the 785
// requests of this scenario that fixed cost reads about 0.45 objects and
// 490 B per request (0.68 objects with churn, whose recreated sessions
// lower nothing); a future, a recorder closure or a slice per request
// would each add 1 to 3.
func TestRunAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range []struct {
		churnEvery int
		maxObjects float64
	}{{0, 1.0}, {50, 0.85}} {
		cfg := mustScenario(t, pidcomm.SchedEDF, 0.9, 800)
		cfg.ChurnEvery = tc.churnEvery
		mustRun(t, cfg) // warm-up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := mustRun(t, cfg)
		runtime.ReadMemStats(&after)
		n := float64(res.Submitted)
		objects := float64(after.Mallocs-before.Mallocs) / n
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
		if objects > tc.maxObjects || bytes > 700 {
			t.Errorf("ChurnEvery=%d: %.2f objects and %.0f B per request over %d requests, want at most %.2f and 700",
				tc.churnEvery, objects, bytes, res.Submitted, tc.maxObjects)
		}
	}
}

// TestOverloadShed drives the scenario far past each tenant's pending
// budget and checks admission control: requests shed with zero windows,
// and accounting stays closed (submitted = completed + shed).
func TestOverloadShed(t *testing.T) {
	for _, shed := range []pidcomm.ShedPolicy{pidcomm.ShedReject, pidcomm.ShedOldest} {
		cfg := mustScenario(t, pidcomm.SchedEDF, 0.9, 500)
		for i := range cfg.Tenants {
			cfg.Tenants[i].Rate *= 4
			cfg.Tenants[i].MaxPending = 4
			cfg.Tenants[i].Shed = shed
		}
		cfg.MaxRequests = 8000
		res := mustRun(t, cfg)
		if res.Shed == 0 {
			t.Fatalf("%v: overload run shed nothing", shed)
		}
		if res.Completed+res.Shed != res.Submitted {
			t.Fatalf("%v: accounting leak: %d completed + %d shed != %d submitted",
				shed, res.Completed, res.Shed, res.Submitted)
		}
		for i, r := range res.Requests {
			if r.Shed && (r.End != 0 || r.Start != 0 || r.Missed) {
				t.Fatalf("%v: shed request %d carries a window: %+v", shed, i, r)
			}
		}
	}
}

// genArrivals' unstable sort by (t, tenant) returns what a stable sort of
// the same arrivals does: bursty clumps share t, but two arrivals equal
// in (t, tenant) are equal values. The check is not vacuous: the config
// draws clumps and both tenants interleave.
func TestGenArrivalsMatchesStableSort(t *testing.T) {
	cfg := Config{Seed: 3, Horizon: 0.5, Tenants: []TenantSpec{
		{Name: "a", Model: MLP, Arrivals: Bursty, Rate: 4000, Burst: 6},
		{Name: "b", Model: GNN, Arrivals: Bursty, Rate: 3000},
		{Name: "c", Model: DLRM, Rate: 2000},
	}}
	got, err := genArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(got)
	rand.New(rand.NewSource(1)).Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	sort.SliceStable(want, func(a, b int) bool {
		if want[a].t != want[b].t {
			return want[a].t < want[b].t
		}
		return want[a].tenant < want[b].tenant
	})
	if !slices.Equal(got, want) {
		t.Fatal("genArrivals differs from the stable sort of its arrivals")
	}
	clumped, switches := 0, 0
	for i := 1; i < len(got); i++ {
		if got[i].t == got[i-1].t {
			clumped++
		}
		if got[i].tenant != got[i-1].tenant {
			switches++
		}
	}
	if clumped < 100 || switches < 100 {
		t.Fatalf("%d arrivals, %d share t with their predecessor and %d switch tenant: want clumps and interleaving", len(got), clumped, switches)
	}
}

// TestConfigErrors pins the driver's input validation.
func TestConfigErrors(t *testing.T) {
	good := TenantSpec{Name: "t", Model: MLP, Rate: 100}
	cases := map[string]Config{
		"no tenants":   {Horizon: 1},
		"zero horizon": {Tenants: []TenantSpec{good}},
		"bad shape":    {Horizon: 1, Tenants: []TenantSpec{good}, Shape: []int{8, 8, 8}},
		"bad rate":     {Horizon: 1, Tenants: []TenantSpec{{Name: "t", Model: MLP}}},
		"too many":     {Horizon: 1, Tenants: []TenantSpec{{Name: "t", Model: MLP, Rate: 1e6}}, MaxRequests: 10},
	}
	for name, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted a bad config", name)
		}
	}
}
