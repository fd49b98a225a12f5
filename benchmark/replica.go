package main

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/serve"
	"repro/pidcomm"
)

// serve.Run is a single call, so no span can be put inside it from here.
// The replica driver is the benchmark's way in: it takes the requests an
// untraced serve.Run produced (tenant, arrival, deadline, in arrival
// order), rebuilds the machine and tenants through pidcomm — NewMachine,
// NewTenant, Compile, SubmitOpts, Step, Flush — with a span around each
// call, and must reproduce every request's End bit for bit: the proof
// that it measured the same work. The loop below mirrors serve.Run's
// discrete-event loop statement for statement; only the arrival
// generator is replaced by the recorded arrivals.

// placement is one executed plan in pick order: what the timeline
// drivers replay.
type placement struct {
	segs       []cost.Segment
	start, end cost.Seconds
}

// replicaResult is what one replica run observed.
type replicaResult struct {
	ends       []cost.Seconds // per request, 0 when shed
	shed       []bool
	mismatches int         // requests whose End or Shed differs from serve.Run's
	placements []placement // executed plans in pick order
	depthSum   int64       // sum of Pending() sampled before each Step call
	stepCalls  int64       // Step calls, including the ones that found the queue empty
	steps      int64       // Step calls that executed a plan
	submits    int64
	compiles   int64
}

// replicaTenant is one live tenant session of the replica.
type replicaTenant struct {
	comm  *pidcomm.Comm
	plans []*pidcomm.CompiledPlan
}

// servingLayout mirrors serve's machine sizing: the base payload rounded
// so every model's blocks stay burst-aligned, four payloads of arena per
// tenant, and the group size of dims "10".
func servingLayout(cfg serve.Config) (base, arenaBytes, n int, shape []int) {
	shape = cfg.Shape
	if shape == nil {
		shape = []int{32, 32}
	}
	n = shape[0]
	base = cfg.BytesPerPE
	if base <= 0 {
		base = 4096
	}
	align := 4 * n * dram.BankBurstBytes
	if r := base % align; r != 0 {
		base += align - r
	}
	return base, 4 * base, n, shape
}

// modelSegments is the request pipeline of a serving model as Collective
// literals: DLRM is AlltoAll (CM) feeding ReduceScatter (IM) at the full
// payload, GNN AllGather feeding AllReduce (IM) at half, MLP one
// AllReduce (IM) at a quarter.
func modelSegments(model serve.Model, base, n int) []pidcomm.Collective {
	switch model {
	case serve.GNN:
		mp := base / 2
		s := mp / n
		return []pidcomm.Collective{
			{Prim: pidcomm.AllGather, Dims: "10", Src: pidcomm.Span(0, s), Dst: pidcomm.At(s), Level: pidcomm.IM},
			{Prim: pidcomm.AllReduce, Dims: "10", Src: pidcomm.Span(s, mp), Dst: pidcomm.At(s + mp),
				Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM},
		}
	case serve.MLP:
		mp := base / 4
		return []pidcomm.Collective{
			{Prim: pidcomm.AllReduce, Dims: "10", Src: pidcomm.Span(0, mp), Dst: pidcomm.At(mp),
				Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM},
		}
	}
	mp := base
	return []pidcomm.Collective{
		{Prim: pidcomm.AlltoAll, Dims: "10", Src: pidcomm.Span(0, mp), Dst: pidcomm.At(mp), Level: pidcomm.CM},
		{Prim: pidcomm.ReduceScatter, Dims: "10", Src: pidcomm.Span(mp, mp), Dst: pidcomm.At(2 * mp),
			Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM},
	}
}

// openReplicaTenant creates (or, after churn, recreates) one tenant and
// compiles its request plans.
func openReplicaTenant(tr *tracer, prefix string, mach *pidcomm.Machine, cfg serve.Config, i, gen int) (*replicaTenant, error) {
	base, arenaBytes, n, _ := servingLayout(cfg)
	sp := cfg.Tenants[i]
	maxPending := sp.MaxPending
	if maxPending <= 0 {
		maxPending = 64
	}
	name := sp.Name
	if gen > 0 {
		name = fmt.Sprintf("%s#%d", sp.Name, gen)
	}
	id := tr.begin(prefix + "pidcomm.new_tenant")
	comm, err := mach.NewTenant(pidcomm.TenantConfig{Name: name, ArenaBytes: arenaBytes,
		Weight: sp.Weight, MaxPending: maxPending, Shed: sp.Shed})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	t := &replicaTenant{comm: comm}
	for _, d := range modelSegments(sp.Model, base, n) {
		id := tr.begin(prefix + "pidcomm.compile")
		cp, err := comm.Compile(d)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		t.plans = append(t.plans, cp)
	}
	return t, nil
}

// runReplica replays reqs on a fresh machine under policy; prefix is put
// before every span name, so two replicas can share a tracer. When check is
// set the policy is the one serve.Run used and every request's End and
// Shed must match; otherwise (the FIFO comparison run) only the timings
// are of interest.
func runReplica(tr *tracer, prefix string, cfg serve.Config, reqs []serve.RequestStat, policy pidcomm.SchedPolicy, check bool) (replicaResult, error) {
	_, arenaBytes, _, shape := servingLayout(cfg)
	opts := []pidcomm.MachineOption{pidcomm.CostOnly(), pidcomm.WithStepped(true), pidcomm.WithSched(policy)}
	if cfg.Lookahead != 0 {
		opts = append(opts, pidcomm.WithLookahead(cfg.Lookahead))
	}
	id := tr.begin(prefix + "pidcomm.new_machine")
	mach, err := pidcomm.NewMachine(pidcomm.PaperSystem((len(cfg.Tenants)+1)*arenaBytes), shape, opts...)
	tr.end(id)
	if err != nil {
		return replicaResult{}, err
	}
	tenants := make([]*replicaTenant, len(cfg.Tenants))
	gens := make([]int, len(cfg.Tenants))
	for i := range cfg.Tenants {
		if tenants[i], err = openReplicaTenant(tr, prefix, mach, cfg, i, 0); err != nil {
			return replicaResult{}, err
		}
	}

	res := replicaResult{ends: make([]cost.Seconds, len(reqs)), shed: make([]bool, len(reqs))}
	for _, t := range tenants {
		res.compiles += int64(len(t.plans))
	}
	futures := make([][]*pidcomm.Future, 0, len(reqs))
	completedAt := make([]int, len(cfg.Tenants))
	segsOf := map[*pidcomm.CompiledPlan][]cost.Segment{}
	reqOf := map[*pidcomm.Future]int{} // which request a stepped plan belongs to
	opBase := tr.reserveOps(len(reqs))
	processed := 0

	// process folds the oldest outstanding requests whose futures have all
	// completed and returns a tenant due for churn, as serve.Run does.
	process := func() int {
		churn := -1
		for processed < len(futures) {
			done := true
			for _, f := range futures[processed] {
				if !f.Done() {
					done = false
					break
				}
			}
			if !done {
				break
			}
			shed := false
			var end cost.Seconds
			for _, f := range futures[processed] {
				if f.Err() != nil {
					shed = true
					continue
				}
				if _, e := f.Window(); e > end {
					end = e
				}
			}
			ti := reqs[processed].Tenant
			if shed {
				res.shed[processed] = true
			} else {
				res.ends[processed] = end
				completedAt[ti]++
				if cfg.ChurnEvery > 0 && completedAt[ti]%cfg.ChurnEvery == 0 && churn < 0 {
					churn = ti
				}
			}
			futures[processed] = nil
			processed++
		}
		return churn
	}

	clock := cost.Seconds(0)
	next := 0
	for next < len(reqs) || mach.Pending() > 0 {
		if mach.Pending() == 0 && next < len(reqs) && reqs[next].Arrival > clock {
			clock = reqs[next].Arrival
		}
		for next < len(reqs) && reqs[next].Arrival <= clock {
			a := reqs[next]
			fs := make([]*pidcomm.Future, 0, len(tenants[a.Tenant].plans))
			for _, cp := range tenants[a.Tenant].plans {
				id := tr.begin(prefix + "pidcomm.submit")
				f := cp.SubmitOpts(pidcomm.SubmitOptions{NotBefore: a.Arrival, Deadline: a.Deadline})
				tr.end(id)
				tr.setOp(id, opBase+next)
				res.submits++
				reqOf[f] = next
				fs = append(fs, f)
				if f.Done() && f.Err() != nil {
					break // rejected: drop the request's remaining segments
				}
			}
			futures = append(futures, fs)
			next++
		}
		res.depthSum += int64(mach.Pending())
		res.stepCalls++
		id := tr.begin(prefix + "pidcomm.step")
		f := mach.Step()
		tr.end(id)
		if f == nil {
			if mach.Pending() > 0 {
				return replicaResult{}, fmt.Errorf("replica: scheduler stalled with %d plans pending", mach.Pending())
			}
			if next < len(reqs) {
				clock = reqs[next].Arrival
			}
			continue
		}
		res.steps++
		tr.setOp(id, opBase+reqOf[f])
		delete(reqOf, f)
		start, end := f.Window()
		segs, ok := segsOf[f.Plan()]
		if !ok {
			segs = f.Plan().LaneSegments()
			segsOf[f.Plan()] = segs
		}
		res.placements = append(res.placements, placement{segs: segs, start: start, end: end})
		if start > clock {
			clock = start
		}
		if ti := process(); ti >= 0 {
			churnID := tr.begin(prefix + "serve.churn")
			id := tr.begin(prefix + "pidcomm.close_tenant")
			err := mach.CloseTenant(tenants[ti].comm)
			tr.end(id)
			if err != nil {
				return replicaResult{}, err
			}
			gens[ti]++
			if tenants[ti], err = openReplicaTenant(tr, prefix, mach, cfg, ti, gens[ti]); err != nil {
				return replicaResult{}, err
			}
			tr.end(churnID)
			res.compiles += int64(len(tenants[ti].plans))
			if e := mach.Elapsed(); e > clock {
				clock = e
			}
			process()
		}
	}
	id = tr.begin(prefix + "pidcomm.flush")
	mach.Flush()
	tr.end(id)
	process()

	if check {
		for i, q := range reqs {
			if res.shed[i] != q.Shed || res.ends[i] != q.End {
				res.mismatches++
			}
		}
	}
	return res, nil
}
