package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/serve"
	"repro/pidcomm"
)

// serveRun is one serve.Run configuration of a serving pass, with the
// outcome of its most recent execution.
type serveRun struct {
	name string
	span string // "serve.run/<name>", built once so that a pass allocates nothing of its own
	cfg  serve.Config
	// want is the first execution's per-request outcome: every later pass
	// must reproduce it exactly (serve.Run is a pure function of cfg).
	want []serve.RequestStat
	last serve.Result
	wall time.Duration // host time of the most recent serve.Run call
}

// serving is the part the two serving workloads share: a pass executes
// every run once; an op is one request. On the host clock the pass is a
// closed loop with one client (this goroutine, calling serve.Run back to
// back). In simulated time each run is open loop — seeded Poisson/bursty
// arrivals at a fixed fraction of simulated capacity — and a request's
// sojourn is measured from its scheduled arrival, so generator lateness
// is zero by construction.
type serving struct {
	runs      []serveRun
	requests  int           // op count of a pass: arrivals over all runs
	calibrate time.Duration // host time of rate calibration in setup
}

func (s *serving) ops() int { return s.requests }

// requestCount is the arrival target of one run.
func requestCount(e *env) int {
	if e.smoke {
		return 200
	}
	return 4000
}

// pass executes every run once, timing each serve.Run call.
func (s *serving) pass(e *env) error {
	for i := range s.runs {
		r := &s.runs[i]
		e.tr.nextOp()
		sp := e.tr.begin(r.span)
		t0 := time.Now()
		last, err := serve.Run(r.cfg)
		r.last, r.wall = last, time.Since(t0)
		e.tr.end(sp)
		if err != nil {
			return fmt.Errorf("serve.Run %s: %w", r.name, err)
		}
	}
	return nil
}

// warm runs the first pass and pins its requests as the replay surface.
func (s *serving) warm(e *env) error {
	if err := s.pass(e.untraced()); err != nil {
		return err
	}
	s.requests = 0
	for i := range s.runs {
		r := &s.runs[i]
		r.want = r.last.Requests
		s.requests += r.last.Submitted
	}
	return nil
}

// outcome pools the pass's runs: total is the simulated time the runs
// charged (machine meters), p99 the nearest-rank p99 sojourn over every
// completed SLO request; a shed or late request is a simulated failure,
// a request that differs from the first pass a host one.
func (s *serving) outcome() passSim {
	var total float64
	var sojourns, ends []float64
	failed, simFailed := 0, 0
	for i := range s.runs {
		r := &s.runs[i]
		total += float64(r.last.Breakdown.Total())
		simFailed += r.last.Shed + r.last.Missed
		if len(r.last.Requests) != len(r.want) {
			failed += len(r.want)
			continue
		}
		for j, q := range r.last.Requests {
			if q != r.want[j] {
				failed++
			}
			ends = append(ends, float64(q.End))
			if q.Deadline > 0 && !q.Shed {
				sojourns = append(sojourns, float64(q.Sojourn))
			}
		}
	}
	sort.Float64s(sojourns)
	return passSim{failed: failed,
		sim: simOutcome{Total: total, P99: nearestRank(sojourns, 0.99), Failed: simFailed, Checksum: checksumFloats(ends)}}
}

// finish has nothing left to check: every pass was compared with the
// first request by request.
func (s *serving) finish() (int, error) { return 0, nil }

// reproduceServingBaseline recomputes the serving/* values of
// bench_baseline.json (canonical scenario, seed 42, 800 requests, rho
// 0.9) through serve.Scenario and serve.Run and requires them bit for
// bit.
func reproduceServingBaseline() error {
	base, err := readBaseline()
	if err != nil {
		return err
	}
	point := func(pol pidcomm.SchedPolicy, churn int) (serve.Result, error) {
		cfg, err := serve.Scenario(pol, 0.9, 800)
		if err != nil {
			return serve.Result{}, err
		}
		cfg.ChurnEvery = churn
		return serve.Run(cfg)
	}
	wfq, err := point(pidcomm.SchedWFQ, 0)
	if err != nil {
		return err
	}
	edf, err := point(pidcomm.SchedEDF, 0)
	if err != nil {
		return err
	}
	churn, err := point(pidcomm.SchedEDF, 50)
	if err != nil {
		return err
	}
	var bad []string
	for key, got := range map[string]float64{
		"serving/wfq_p99":       float64(wfq.SLO.P99),
		"serving/edf_p99":       float64(edf.SLO.P99),
		"serving/edf_p999":      float64(edf.SLO.P999),
		"serving/edf_churn_p99": float64(churn.SLO.P99),
		"serving/makespan":      float64(edf.Makespan),
	} {
		if want, ok := base[key]; !ok || want != got {
			bad = append(bad, fmt.Sprintf("%s = %v, baseline %v", key, got, want))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("bench_baseline.json not reproduced bit for bit: %v", bad)
	}
	return nil
}

// serveSteady is the serve_steady workload: serve.Run on
// serve.Scenario(policy, 0.9, 4000) with Seed = seed. A pass is EDF,
// then WFQ, then EDF with ChurnEvery=50 — the trio bench_baseline.json
// gates. Steady state of the serving path: cached plans, SubmitOpts,
// Step, cost.Timeline placement, charge replay and the meters.
type serveSteady struct{ serving }

const steadyRho = 0.9

func (w *serveSteady) setup(e *env) error {
	if err := reproduceServingBaseline(); err != nil {
		return err
	}
	n := requestCount(e)
	for _, v := range []struct {
		name  string
		pol   pidcomm.SchedPolicy
		churn int
	}{{"edf", pidcomm.SchedEDF, 0}, {"wfq", pidcomm.SchedWFQ, 0}, {"edf_churn", pidcomm.SchedEDF, 50}} {
		t0 := time.Now()
		cfg, err := serve.Scenario(v.pol, steadyRho, n)
		w.calibrate += time.Since(t0)
		if err != nil {
			return err
		}
		cfg.Seed, cfg.ChurnEvery = e.seed, v.churn
		w.runs = append(w.runs, serveRun{name: v.name, span: "serve.run/" + v.name, cfg: cfg})
	}
	return w.warm(e)
}

// serveLookahead is the serve_lookahead workload: 12 tenants (4 each
// DLRM/GNN/MLP, the odd ones bursty), rates calibrated for rho 0.95
// split evenly, deadline 30x own cost + 4x DLRM cost, MaxPending 256,
// under SchedLookahead at the default window. The same core queue and
// cost.Timeline as serve_steady used the opposite way: Timeline.Clone
// plus dry placement per candidate dominates.
//
// A pass is the run on lookaheadSamples arrival samples drawn from the
// seed, not on one: at rho 0.95 the queue sits at the knee, and one
// sample of 4000 bursty arrivals swings the work per request (queue
// depth, hence candidates scored and bytes allocated per pick) by +-20%
// from seed to seed. Sixteen samples cut that to a quarter, so that runs
// on different seeds measure the same thing.
type serveLookahead struct{ serving }

const (
	lookaheadTenants = 12
	lookaheadRho     = 0.95
	lookaheadSamples = 16
)

// lookaheadConfig builds the 12-tenant configuration (its Seed is the
// caller's to set); the returned duration is the host time of
// serve.Calibrate.
func lookaheadConfig(requests int) (serve.Config, time.Duration, error) {
	cfg := serve.Config{Policy: pidcomm.SchedLookahead, Horizon: 1,
		MaxRequests: requests + requests/2}
	models := []serve.Model{serve.DLRM, serve.GNN, serve.MLP}
	for i := 0; i < lookaheadTenants; i++ {
		sp := serve.TenantSpec{Name: fmt.Sprintf("%v-%d", models[i%3], i/3), Model: models[i%3],
			Arrivals: serve.Poisson, Rate: 1, MaxPending: 256}
		if i%2 == 1 {
			sp.Arrivals, sp.Burst = serve.Bursty, 6
		}
		cfg.Tenants = append(cfg.Tenants, sp)
	}
	t0 := time.Now()
	costs, err := serve.Calibrate(cfg)
	took := time.Since(t0)
	if err != nil {
		return serve.Config{}, 0, err
	}
	total := 0.0
	for i := range cfg.Tenants {
		cfg.Tenants[i].Rate = lookaheadRho / lookaheadTenants / float64(costs[i])
		cfg.Tenants[i].Deadline = 30*costs[i] + 4*costs[0] // tenant 0 is a DLRM
		total += cfg.Tenants[i].Rate
	}
	cfg.Horizon = cost.Seconds(float64(requests) / total)
	return cfg, took, nil
}

func (w *serveLookahead) setup(e *env) error {
	if err := reproduceServingBaseline(); err != nil {
		return err
	}
	cfg, took, err := lookaheadConfig(requestCount(e))
	if err != nil {
		return err
	}
	w.calibrate = took
	for j := int64(0); j < lookaheadSamples; j++ {
		cfg.Seed = e.seed*lookaheadSamples + j
		name := fmt.Sprintf("lookahead%d", j)
		w.runs = append(w.runs, serveRun{name: name, span: "serve.run/" + name, cfg: cfg})
	}
	return w.warm(e)
}

// sweepRhos are the offered loads of the simulated rate sweep: below,
// near and past the knee (1.05 is deliberate overload).
var sweepRhos = []float64{0.60, 0.75, 0.90, 1.05}

// replicaReps is how many times the traced round alternates serve.Run
// with its replicas. Host noise between two measurements taken seconds
// apart is larger than serve's own share of the time, so the ratio is
// built from adjacent measurements; only the first repetition's spans
// are kept in the trace file. replicaRuns bounds how many runs of a pass
// are replayed (all three of serve_steady, the first three arrival
// samples of serve_lookahead).
const (
	replicaReps = 3
	replicaRuns = 3
)

// servingLayers fills the per-layer metrics both serving workloads
// provide. stepName is the metric the replica's mean Step time is
// reported under (core.step_us or core.step_lookahead_us).
func (s *serving) servingLayers(e *env, m metrics, stepName string) error {
	tr := e.tr
	reps := replicaReps
	if e.smoke {
		reps = 1
	}
	runs := s.runs[:min(replicaRuns, len(s.runs))]
	var runWall, submitNs, stepNs, fifoStepNs, compileNs float64
	var policy, fifo replicaResult
	var firstPlacements []placement
	for rep := 0; rep < reps; rep++ {
		mark := tr.mark()
		for i := range runs {
			r := &runs[i]
			t0 := time.Now()
			if _, err := serve.Run(r.cfg); err != nil {
				return err
			}
			runWall += float64(time.Since(t0))
			// The replica under the run's own policy must reproduce serve.Run.
			got, err := runReplica(tr, "", r.cfg, r.want, r.cfg.Policy, true)
			if err != nil {
				return fmt.Errorf("replica of %s: %w", r.name, err)
			}
			if got.mismatches > 0 {
				return fmt.Errorf("replica of %s: %d of %d requests end at a different simulated time than in serve.Run: the replica did not measure the same work",
					r.name, got.mismatches, len(r.want))
			}
			policy.add(got)
			if firstPlacements == nil {
				firstPlacements = got.placements
			}
			// The same arrivals under FIFO: what a Step costs when the pick
			// is trivial.
			base, err := runReplica(tr, "fifo:", r.cfg, r.want, pidcomm.SchedFIFO, false)
			if err != nil {
				return fmt.Errorf("FIFO replica of %s: %w", r.name, err)
			}
			fifo.add(base)
		}
		submitNs += tr.totalSince(mark, "pidcomm.submit")
		stepNs += tr.totalSince(mark, "pidcomm.step")
		fifoStepNs += tr.totalSince(mark, "fifo:pidcomm.step")
		compileNs += tr.totalSince(mark, "pidcomm.compile")
		if rep > 0 {
			tr.truncate(mark)
		}
	}
	// replayed counts the requests of the replayed runs, the per-pass
	// counters cover the whole pass.
	var replayed, requests, shed, missed int
	for i := range s.runs {
		if i < len(runs) {
			replayed += s.runs[i].last.Submitted
		}
		requests += s.runs[i].last.Submitted
		shed += s.runs[i].last.Shed
		missed += s.runs[i].last.Missed
	}
	n := float64(reps)
	scale := float64(requests) / float64(replayed) // replayed runs -> whole pass
	stepMean := stepNs / float64(policy.stepCalls)
	fifoMean := fifoStepNs / float64(fifo.stepCalls)
	m["core.submit_us"] = submitNs / float64(policy.submits) / 1e3
	m[stepName] = stepMean / 1e3
	m["core.step_fifo_us"] = fifoMean / 1e3
	m["core.pick_overhead_us"] = (stepMean - fifoMean) / 1e3
	m["core.queue_depth_mean"] = float64(policy.depthSum) / float64(policy.stepCalls)
	m["core.steps"] = float64(policy.steps) / n * scale
	m["core.replays"] = float64(policy.steps) / n * scale
	m["core.plans_compiled"] = float64(policy.compiles) / n * scale
	m["core.compile_share"] = compileNs / runWall
	if churns := tr.durations("serve.churn"); len(churns) > 0 {
		m["core.tenant_churn_us"] = meanOf(churns) / 1e3
	}
	m["serve.run_us_per_req"] = runWall / n / float64(replayed) / 1e3
	m["serve.self_share"] = 1 - (submitNs+stepNs)/runWall
	m["serve.calibrate_ms"] = float64(s.calibrate) / 1e6
	m["serve.requests"] = float64(requests)
	m["serve.shed"] = float64(shed)
	m["serve.missed"] = float64(missed)

	timelineDriver(e, m, firstPlacements)
	meterDriver(e, m)
	_, arenaBytes, _, _ := servingLayout(s.runs[0].cfg)
	if err := carveDriver(e, m, arenaBytes, len(s.runs[0].cfg.Tenants)); err != nil {
		return err
	}
	return replayCostDriver(e, m, s.runs[0].cfg)
}

// add pools another replica run's counters.
func (a *replicaResult) add(b replicaResult) {
	a.depthSum += b.depthSum
	a.stepCalls += b.stepCalls
	a.steps += b.steps
	a.submits += b.submits
	a.compiles += b.compiles
}

// replayCostDriver measures a cached cost-only replay: Run on the
// serving machine's own request plans (tenant 0's segments), which
// re-applies the precomputed charge trace to the machine and tenant
// meters and appends the segments to the timeline.
func replayCostDriver(e *env, m metrics, cfg serve.Config) error {
	_, arenaBytes, _, shape := servingLayout(cfg)
	mach, err := pidcomm.NewMachine(pidcomm.PaperSystem((len(cfg.Tenants)+1)*arenaBytes), shape, pidcomm.CostOnly())
	if err != nil {
		return err
	}
	t, err := openReplicaTenant(nil, "", mach, cfg, 0, 0)
	if err != nil {
		return err
	}
	var rerr error
	ns := perCall(e, 20000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := t.plans[i%len(t.plans)].Run(); err != nil {
				rerr = err
				return
			}
		}
	})
	m["core.replay_cost_us"] = ns / 1e3
	return rerr
}

// rateSweep runs the canonical scenario under EDF at each offered load
// (seeded like the workload) and reports the simulated SLO p99 at each
// rate and the highest rate with zero shed and zero missed requests.
func rateSweep(e *env, m metrics) error {
	maxRho := 0.0
	for _, rho := range sweepRhos {
		cfg, err := serve.Scenario(pidcomm.SchedEDF, rho, requestCount(e))
		if err != nil {
			return err
		}
		cfg.Seed = e.seed
		res, err := serve.Run(cfg)
		if err != nil {
			return fmt.Errorf("rate sweep at rho %.2f: %w", rho, err)
		}
		m[fmt.Sprintf("serve.sim_p99_rho%03.0f", rho*100)] = float64(res.SLO.P99)
		if res.Shed == 0 && res.Missed == 0 && rho > maxRho {
			maxRho = rho
		}
	}
	m["serve.sim_max_rho"] = maxRho
	return nil
}

func (w *serveSteady) layers(e *env, m metrics) error {
	if err := w.servingLayers(e, m, "core.step_us"); err != nil {
		return err
	}
	return rateSweep(e, m)
}

func (w *serveLookahead) layers(e *env, m metrics) error {
	return w.servingLayers(e, m, "core.step_lookahead_us")
}
