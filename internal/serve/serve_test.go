package serve

import (
	"fmt"
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

// lookaheadMix is the 12-tenant serving mix of the serve_lookahead
// benchmark workload: 4 each DLRM/GNN/MLP, the odd ones bursty, rates
// calibrated for rho 0.95 split evenly, deadline 30x own cost + 4x DLRM
// cost, MaxPending 256, under SchedLookahead, at the given arrival count.
func lookaheadMix(t *testing.T, requests int) Config {
	t.Helper()
	cfg := Config{Seed: 42, Policy: pidcomm.SchedLookahead, Horizon: 1, MaxRequests: requests + requests/2}
	models := []Model{DLRM, GNN, MLP}
	for i := 0; i < 12; i++ {
		sp := TenantSpec{Name: fmt.Sprintf("%v-%d", models[i%3], i/3), Model: models[i%3], Rate: 1, MaxPending: 256}
		if i%2 == 1 {
			sp.Arrivals, sp.Burst = Bursty, 6
		}
		cfg.Tenants = append(cfg.Tenants, sp)
	}
	costs, err := Calibrate(cfg)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	total := 0.0
	for i := range cfg.Tenants {
		cfg.Tenants[i].Rate = 0.95 / 12 / float64(costs[i])
		cfg.Tenants[i].Deadline = 30*costs[i] + 4*costs[0]
		total += cfg.Tenants[i].Rate
	}
	cfg.Horizon = cost.Seconds(float64(requests) / total)
	return cfg
}

// TestRunAllocsPerRequest is the allocation gate of the serving path: a
// run's heap traffic is its fixed tables, the cold compiles and — with
// churn — the tenant recreations, not anything per request. Over the 785
// requests of this scenario that fixed cost reads about 0.45 objects and
// 490 B per request (0.68 objects with churn, whose recreated sessions
// lower nothing); a future, a recorder closure or a slice per request
// would each add 1 to 3. The 12-tenant lookahead row (734 requests) read
// 0.585 objects and 574 B per request when its bounds were set, which
// leave 4% of margin: it is the shape where a buffer per tenant in the
// arrival merge or the percentile summary shows.
func TestRunAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	steady := mustScenario(t, pidcomm.SchedEDF, 0.9, 800)
	churn := steady
	churn.ChurnEvery = 50
	for _, tc := range []struct {
		name                 string
		cfg                  Config
		maxObjects, maxBytes float64
	}{
		{"ChurnEvery=0", steady, 1.0, 700},
		{"ChurnEvery=50", churn, 0.85, 700},
		{"lookahead 12 tenants", lookaheadMix(t, 800), 0.61, 600},
	} {
		cfg := tc.cfg
		mustRun(t, cfg) // warm-up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := mustRun(t, cfg)
		runtime.ReadMemStats(&after)
		n := float64(res.Submitted)
		objects := float64(after.Mallocs-before.Mallocs) / n
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
		if objects > tc.maxObjects || bytes > tc.maxBytes {
			t.Errorf("%s: %.3f objects and %.0f B per request over %d requests, want at most %.2f and %.0f",
				tc.name, objects, bytes, res.Submitted, tc.maxObjects, tc.maxBytes)
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

// drawThenSort is the generator genArrivals replaced, kept as its
// oracle: it draws every tenant's whole stream, tenant after tenant,
// tenant i's from a PRNG seeded with seed(i), then stably sorts every
// arrival by (t, tenant).
func drawThenSort(cfg Config, seed func(i int) int64) ([]arrival, error) {
	maxReqs := cfg.MaxRequests
	if maxReqs <= 0 {
		maxReqs = 20000
	}
	var all []arrival
	for i, sp := range cfg.Tenants {
		if sp.Rate <= 0 {
			return nil, fmt.Errorf("serve: tenant %q rate %v must be positive", sp.Name, sp.Rate)
		}
		rng := rand.New(rand.NewSource(seed(i)))
		burst := sp.Burst
		if burst <= 0 {
			burst = 4
		}
		for t := cost.Seconds(0); ; {
			k := 1
			if sp.Arrivals == Bursty {
				t += cost.Seconds(rng.ExpFloat64() / (sp.Rate / float64(burst)))
				if t >= cfg.Horizon {
					break
				}
				for rng.Float64() > 1.0/float64(burst) {
					k++
				}
			} else {
				t += cost.Seconds(rng.ExpFloat64() / sp.Rate)
				if t >= cfg.Horizon {
					break
				}
			}
			for ; k > 0; k-- {
				all = append(all, arrival{t: t, tenant: i})
			}
			if len(all) > maxReqs {
				return nil, fmt.Errorf("serve: more than %d arrivals over horizon %v — lower the rates or the horizon", maxReqs, cfg.Horizon)
			}
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].t != all[b].t {
			return all[a].t < all[b].t
		}
		return all[a].tenant < all[b].tenant
	})
	return all, nil
}

// genArrivals, which merges the tenants' streams as it draws them,
// returns exactly what drawing them whole and sorting does: the same
// arrivals in the same order, and the same error. The checks are not
// vacuous: the first config draws clumps and its tenants interleave, and
// the second gives two tenants one PRNG seed, so every clump of one
// shares its t with a clump of the other.
func TestGenArrivalsMatchesStableSort(t *testing.T) {
	cfg := Config{Seed: 3, Horizon: 0.5, Tenants: []TenantSpec{
		{Name: "a", Model: MLP, Arrivals: Bursty, Rate: 4000, Burst: 6},
		{Name: "b", Model: GNN, Arrivals: Bursty, Rate: 3000},
		{Name: "c", Model: DLRM, Rate: 2000},
	}}
	seed := func(i int) int64 { return cfg.Seed*1000003 + int64(i)*7919 + 1 }
	got, err := genArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := drawThenSort(cfg, seed)
	if !slices.Equal(got, want) {
		t.Fatal("genArrivals differs from the stable sort of the drawn streams")
	}
	drawn := len(want)
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

	twin := Config{Horizon: 0.5, MaxRequests: 20000, Tenants: []TenantSpec{
		{Name: "a", Arrivals: Bursty, Rate: 3000, Burst: 5},
		{Name: "b", Arrivals: Bursty, Rate: 3000, Burst: 5},
		{Name: "c", Rate: 2000},
	}}
	twinSeed := func(i int) int64 { return int64(i/2) + 17 } // a and b share one
	var ss []stream
	for i, sp := range twin.Tenants {
		ss = append(ss, newStream(sp, twinSeed(i)))
	}
	if got, err = merge(ss, twin.Horizon, twin.MaxRequests); err != nil {
		t.Fatal(err)
	}
	want, _ = drawThenSort(twin, twinSeed)
	if !slices.Equal(got, want) {
		t.Fatal("merging two streams whose clumps share t differs from the stable sort")
	}
	shared := 0
	for i := 1; i < len(got); i++ {
		if got[i].t == got[i-1].t && got[i].tenant == 1 && got[i-1].tenant == 0 {
			shared++
		}
	}
	if shared < 100 {
		t.Fatalf("%d arrivals, %d clumps of tenant 1 follow one of tenant 0 at the same t: want the clumps to tie", len(got), shared)
	}

	// Overflow, at the limit and past it, a bad rate, and an overflow of
	// the tenants drawn before a bad rate, which comes first.
	atLimit, overLimit := cfg, cfg
	atLimit.MaxRequests, overLimit.MaxRequests = drawn, drawn-1
	if got, err := genArrivals(atLimit); err != nil || len(got) != drawn {
		t.Errorf("%d arrivals at MaxRequests %d: got %d, error %v", drawn, drawn, len(got), err)
	}
	flood := TenantSpec{Name: "f", Model: MLP, Rate: 1e6}
	bad := TenantSpec{Name: "z", Model: MLP}
	for name, c := range map[string]Config{
		"over the limit":      overLimit,
		"overflow":            {Horizon: 1, Tenants: []TenantSpec{flood}, MaxRequests: 10},
		"split overflow":      {Horizon: 1, Tenants: []TenantSpec{{Name: "a", Rate: 8}, {Name: "b", Rate: 8}}, MaxRequests: 10},
		"bad rate":            {Horizon: 1, Tenants: []TenantSpec{{Name: "a", Rate: 8}, bad, flood}, MaxRequests: 10},
		"overflow before bad": {Horizon: 1, Tenants: []TenantSpec{flood, bad}, MaxRequests: 10},
	} {
		_, err := genArrivals(c)
		_, want := drawThenSort(c, func(i int) int64 { return c.Seed*1000003 + int64(i)*7919 + 1 })
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %v, want %v", name, err, want)
		}
	}
	if _, err := genArrivals(Config{Horizon: 1, Tenants: []TenantSpec{flood}, MaxRequests: 10}); err == nil ||
		err.Error() != "serve: more than 10 arrivals over horizon 1 — lower the rates or the horizon" {
		t.Errorf("overflow error text %q", err)
	}
}

// refSummarize is the per-population summary summarize replaced, kept as
// its oracle: it sorts the completed sojourns of the requests keep
// selects on their own.
func refSummarize(reqs []RequestStat, keep func(RequestStat) bool) Percentiles {
	var s Percentiles
	var sojourns []cost.Seconds
	var sum cost.Seconds
	for _, r := range reqs {
		if !keep(r) {
			continue
		}
		s.Count++
		if r.Deadline > 0 {
			s.DeadlineCarrying++
		}
		if r.Shed {
			s.Shed++
			continue
		}
		s.Completed++
		if r.Missed {
			s.Missed++
		}
		sojourns = append(sojourns, r.Sojourn)
		sum += r.Sojourn
	}
	slices.Sort(sojourns)
	s.P50 = Percentile(sojourns, 0.50)
	s.P99 = Percentile(sojourns, 0.99)
	s.P999 = Percentile(sojourns, 0.999)
	if s.Completed > 0 {
		s.Mean = sum / cost.Seconds(s.Completed)
	}
	return s
}

// summarize, one sort per partition and nearest ranks read across
// partitions, gives every population the summary of sorting it alone,
// field for field. The random runs hold shed and missed requests,
// sojourns that tie and sojourns whose sum rounds differently in another
// order, a tenant without deadlines, one with deadlines on some requests
// only, one that completes nothing, runs of one request and of none, and
// more tenants than summarize's stack buffer covers.
func TestSummaryMatchesPerSubsetSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		nt := 1 + rng.Intn(6)
		if trial%10 == 9 {
			nt = 20 + rng.Intn(8)
		}
		n := rng.Intn(600)
		if trial < 4 {
			n = trial % 2 // runs of none and of one request
		}
		reqs := make([]RequestStat, n)
		for i := range reqs {
			ti := rng.Intn(nt)
			r := RequestStat{Tenant: ti, Arrival: cost.Seconds(i)}
			switch ti % 3 { // 0: no deadlines, 1: every request, 2: some
			case 1:
				r.Deadline = r.Arrival + 1
			case 2:
				if rng.Intn(2) == 0 {
					r.Deadline = r.Arrival + 1
				}
			}
			if rng.Float64() < 0.1 || (nt > 1 && ti == nt-1) {
				r.Shed = true
			} else {
				r.Sojourn = cost.Seconds(rng.Intn(50)) * 0.125 // ties are common
				if rng.Intn(2) == 0 {                          // and sums depend on their order
					r.Sojourn = cost.Seconds(rng.Float64() * 6)
				}
				if r.Deadline > 0 && r.Sojourn > 4 {
					r.Missed = true
				}
			}
			reqs[i] = r
		}
		res := Result{Requests: reqs, Tenants: make([]TenantStats, nt)}
		res.summarize()
		check := func(name string, got Percentiles, keep func(RequestStat) bool) {
			if want := refSummarize(reqs, keep); got != want {
				t.Fatalf("trial %d (%d requests, %d tenants) %s: got %+v, want %+v", trial, n, nt, name, got, want)
			}
		}
		check("All", res.All, func(RequestStat) bool { return true })
		check("SLO", res.SLO, func(r RequestStat) bool { return r.Deadline > 0 })
		for i := range res.Tenants {
			check(fmt.Sprint("tenant ", i), res.Tenants[i].Stats, func(r RequestStat) bool { return r.Tenant == i })
		}
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
