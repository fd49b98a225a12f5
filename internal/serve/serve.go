package serve

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/pidcomm"
)

// Model selects the request shape a serving tenant emits. Each model is
// a short pipeline of collectives over the tenant's arena, scaled off
// the driver's base payload; consecutive requests of one tenant chain
// on their data hazards (they reuse the same regions), while different
// tenants' requests overlap freely on the shared timeline.
type Model int

const (
	// DLRM is the embedding-exchange pipeline: AlltoAll (CM) feeding a
	// ReduceScatter (IM) — the paper's headline workload, full payload.
	DLRM Model = iota
	// GNN is neighbor aggregation: AllGather (IM) feeding an AllReduce
	// (IM), at half payload.
	GNN
	// MLP is gradient synchronization: one AllReduce (IM) at quarter
	// payload — the short, latency-sensitive request.
	MLP
)

// String names the model for tables.
func (m Model) String() string {
	switch m {
	case DLRM:
		return "dlrm"
	case GNN:
		return "gnn"
	case MLP:
		return "mlp"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// ArrivalKind selects a tenant's arrival process.
type ArrivalKind int

const (
	// Poisson draws i.i.d. exponential inter-arrival times at the
	// tenant's rate.
	Poisson ArrivalKind = iota
	// Bursty draws Poisson burst epochs at rate Rate/Burst, each
	// releasing a geometrically-sized clump (mean Burst) of simultaneous
	// requests — same mean rate as Poisson, far heavier tail.
	Bursty
)

// String names the arrival process for tables.
func (k ArrivalKind) String() string {
	if k == Bursty {
		return "bursty"
	}
	return "poisson"
}

// TenantSpec configures one serving tenant of the driver.
type TenantSpec struct {
	// Name labels the tenant; Model picks its request pipeline.
	Name  string
	Model Model
	// Arrivals and Rate define the open-loop arrival process (mean
	// requests per simulated second); Burst is the mean clump size for
	// Bursty (0 = 4).
	Arrivals ArrivalKind
	Rate     float64
	Burst    int
	// Weight is the tenant's weighted-fair scheduler share (0 = 1).
	Weight float64
	// Deadline is the per-request relative SLO (absolute deadline =
	// arrival + Deadline); 0 = best-effort. The EDF policy schedules
	// against it, and a completion past it counts as a miss.
	Deadline cost.Seconds
	// MaxPending bounds the tenant's in-flight submissions (0 = 64);
	// beyond it, submissions shed per Shed with ErrOverloaded.
	MaxPending int
	Shed       pidcomm.ShedPolicy
}

// Config parameterizes one serving run.
type Config struct {
	// Seed drives every per-tenant arrival PRNG: equal configs with
	// equal seeds replay bit-identically.
	Seed int64
	// Horizon is the arrival window [0, Horizon) in simulated seconds.
	Horizon cost.Seconds
	// Tenants are the serving sessions sharing the machine.
	Tenants []TenantSpec
	// Policy is the submission scheduling policy (SchedWFQ default).
	// SchedLookahead composes with deadlines: equal-makespan picks fall
	// back to EDF order, so the reordering stays deadline-aware.
	Policy pidcomm.SchedPolicy
	// Lookahead overrides the candidate window of the window-scanning
	// policies (0 = pidcomm.DefaultLookahead).
	Lookahead int
	// BytesPerPE is the base request payload (default 4096); rounded up
	// so every model's blocks align at the machine's group size.
	BytesPerPE int
	// Geometry and Shape size the simulated machine. Zero values give a
	// machine just big enough for the tenant arenas on the paper's
	// 1024-PE testbed (shape 32x32). Shape must be two-dimensional.
	Geometry dram.Geometry
	Shape    []int
	// Fused submits each request as one fused CompileSequence plan
	// instead of per-segment plans. The default (false) keeps the
	// segment boundaries as preemption points: the scheduler can place
	// an urgent plan between a long request's segments.
	Fused bool
	// ChurnEvery, if positive, retires and recreates a tenant after
	// every ChurnEvery completed requests of it — runtime tenant churn:
	// the arena goes back to the free-list allocator and the successor
	// re-carves (first-fit) from the coalesced pool.
	ChurnEvery int
	// MaxRequests caps the total generated arrivals (default 20000);
	// Run fails rather than truncate, so rates/horizons stay honest.
	MaxRequests int
}

// RequestStat is the per-request outcome of a run.
type RequestStat struct {
	// Tenant indexes Config.Tenants; Arrival is the request's simulated
	// arrival time and Deadline its absolute deadline (0 = none).
	Tenant   int
	Arrival  cost.Seconds
	Deadline cost.Seconds
	// Start is the placement start of the request's first segment, End
	// the completion time of its last; Sojourn = End - Arrival. All
	// zero when shed.
	Start   cost.Seconds
	End     cost.Seconds
	Sojourn cost.Seconds
	// Shed marks a request dropped by overload admission; Missed a
	// completed request that finished past its deadline.
	Shed   bool
	Missed bool
}

// Percentiles is a sojourn-time summary over one request population.
type Percentiles struct {
	Count            int
	P50, P99, P999   cost.Seconds
	Mean             cost.Seconds
	Completed, Shed  int
	Missed           int
	DeadlineCarrying int
}

// TenantStats aggregates one tenant's outcomes.
type TenantStats struct {
	Name  string
	Stats Percentiles
	// Churns counts teardown/recreate cycles the driver performed.
	Churns int
}

// Result is the outcome of one serving run.
type Result struct {
	// Submitted counts generated arrivals; Completed/Shed/Missed are
	// the global outcome counts.
	Submitted, Completed, Shed, Missed int
	// Makespan is the machine's final elapsed time; Throughput is
	// Completed/Makespan in requests per simulated second.
	Makespan   cost.Seconds
	Throughput float64
	// All aggregates every request; SLO only the deadline-carrying ones
	// (the population the p99 gate pins).
	All, SLO Percentiles
	// Tenants are the per-tenant aggregates in Config order.
	Tenants []TenantStats
	// Requests are the per-request outcomes in arrival order — the
	// deterministic replay surface the property tests compare.
	Requests []RequestStat
	// Snapshot is the machine's state after the final teardown; Breakdown
	// and FreeSpans below are its Meter and FreeSpans, kept for their readers.
	Snapshot pidcomm.Snapshot
	// Breakdown is the machine-total attributed cost (live + retired
	// tenant meters).
	Breakdown pidcomm.Breakdown
	// FreeSpans is the allocator's free list after every tenant was
	// closed at the end of the run: a churn-clean run re-coalesces to
	// one span covering all of MRAM.
	FreeSpans []dram.Arena
}

// Percentile returns the nearest-rank p-quantile (0 < p <= 1) of the
// ascending-sorted xs: the smallest element whose rank covers p of the
// population. Zero for an empty slice.
func Percentile(xs []cost.Seconds, p float64) cost.Seconds {
	if len(xs) == 0 {
		return 0
	}
	return xs[nearestRank(len(xs), p)-1]
}

// nearestRank is the 1-based rank Percentile reads in a population of
// n > 0.
func nearestRank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n))), 1), n)
}

// tally counts r into s, summing its sojourn into s.Mean (summarize
// divides it by Completed at the end).
func (s *Percentiles) tally(r RequestStat) {
	s.Count++
	if r.Deadline > 0 {
		s.DeadlineCarrying++
	}
	if r.Shed {
		s.Shed++
		return
	}
	s.Completed++
	if r.Missed {
		s.Missed++
	}
	s.Mean += r.Sojourn
}

// summarize fills res.All, res.SLO and every res.Tenants[i].Stats from
// res.Requests. One pass in request order counts the populations and
// sums their sojourns, so every Mean adds the same operands in the same
// order as a pass over the population alone. A second lays the
// completed sojourns out in one scratch buffer, partitioned by tenant
// and by deadline (partition 2*tenant+1 holds the deadline-carrying
// ones); each partition is sorted once, and a population's percentiles
// are nearest ranks in the union of its partitions: All is every
// partition, SLO the odd ones, tenant i partitions 2i and 2i+1.
func (res *Result) summarize() {
	nt := len(res.Tenants)
	var stack [128]int // off and cur for up to 21 tenants
	idx := stack[:]
	if 6*nt+1 > len(idx) {
		idx = make([]int, 6*nt+1)
	}
	// off[k] is where partition k starts (off[2*nt] the end); until the
	// prefix sum below, off[k+1] counts partition k.
	off := idx[:2*nt+1]
	for _, r := range res.Requests {
		res.All.tally(r)
		if r.Deadline > 0 {
			res.SLO.tally(r)
		}
		res.Tenants[r.Tenant].Stats.tally(r)
		if !r.Shed {
			off[partition(r)+1]++
		}
	}
	for k := 1; k <= 2*nt; k++ {
		off[k] += off[k-1]
	}
	ps := parts{xs: make([]cost.Seconds, off[2*nt]), off: off, cur: idx[2*nt+1:]}
	fill := ps.cur[:2*nt]
	copy(fill, off)
	for _, r := range res.Requests {
		if !r.Shed {
			k := partition(r)
			ps.xs[fill[k]] = r.Sojourn
			fill[k]++
		}
	}
	for k := range 2 * nt {
		slices.Sort(ps.xs[off[k]:off[k+1]])
	}
	ps.rank(&res.All, 0, 1, 2*nt)
	ps.rank(&res.SLO, 1, 2, nt)
	for i := range res.Tenants {
		ps.rank(&res.Tenants[i].Stats, 2*i, 1, 2)
	}
}

// partition is the scratch partition a completed request's sojourn
// lands in.
func partition(r RequestStat) int {
	if r.Deadline > 0 {
		return 2*r.Tenant + 1
	}
	return 2 * r.Tenant
}

// parts is summarize's partitioned scratch: partition k is
// xs[off[k]:off[k+1]], sorted; cur has room for two ints per partition.
type parts struct {
	xs       []cost.Seconds
	off, cur []int
}

// rank sets s's percentiles and divides its sojourn sum into its Mean.
// s's population is the union of the count partitions first,
// first+step, ..., whose sizes add up to s.Completed.
func (ps *parts) rank(s *Percentiles, first, step, count int) {
	if s.Completed == 0 {
		return
	}
	// live lists (partition, cursor) pairs of the non-empty partitions.
	live := ps.cur[:0]
	for k := first; count > 0; k, count = k+step, count-1 {
		if ps.off[k] < ps.off[k+1] {
			live = append(live, k, 0)
		}
	}
	n := s.Completed
	s.P50 = ps.nth(live, n, nearestRank(n, 0.50))
	s.P99 = ps.nth(live, n, nearestRank(n, 0.99))
	s.P999 = ps.nth(live, n, nearestRank(n, 0.999))
	s.Mean /= cost.Seconds(n)
}

// nth returns the r-th smallest (1-based) of the n sojourns in the live
// partitions: the element itself when one partition holds them all,
// otherwise the (n-r+1)-th step of a k-way walk down from the top of the
// union, each step past the greatest tail (cmp.Less orders as slices.Sort
// does). The ranks summarize reads are at or above the median, so no
// walk takes more than n/2+1 steps. It overwrites live's cursors.
func (ps *parts) nth(live []int, n, r int) cost.Seconds {
	if len(live) == 2 {
		return ps.xs[ps.off[live[0]]+r-1]
	}
	for j := 0; j < len(live); j += 2 {
		live[j+1] = ps.off[live[j]+1]
	}
	var x cost.Seconds
	for r = n - r + 1; r > 0; r-- {
		best := -1
		for j := 0; j < len(live); j += 2 {
			if c := live[j+1]; c > ps.off[live[j]] && (best < 0 || cmp.Less(x, ps.xs[c-1])) {
				best, x = j, ps.xs[c-1]
			}
		}
		live[best+1]--
	}
	return x
}

// arrival is one generated request arrival.
type arrival struct {
	t      cost.Seconds
	tenant int
}

// stream is one tenant's arrival process, drawn lazily from its own
// PRNG: t is its next arrival time and run the arrivals left at t (a
// bursty clump's size, 1 for Poisson), 0 once t passed the horizon.
type stream struct {
	rng  rand.Rand
	rate float64 // of the draws: Rate, or Rate/Burst for bursty clump epochs
	geo  float64 // bursty: the geometric clump's stop probability, 1/Burst
	t    cost.Seconds
	run  int
}

// draw advances s to its next arrival time and clump.
func (s *stream) draw(horizon cost.Seconds) {
	s.t += cost.Seconds(s.rng.ExpFloat64() / s.rate)
	if s.t >= horizon {
		s.run = 0
		return
	}
	s.run = 1
	if s.geo > 0 {
		// Geometric clump with mean Burst.
		for s.rng.Float64() > s.geo {
			s.run++
		}
	}
}

// genArrivals draws every tenant's arrival process over [0, Horizon)
// from its own seeded PRNG and merges the streams as it draws them: each
// is in time order, so the next arrival is always the head with the
// least (t, tenant), ties going to the lower tenant index.
func genArrivals(cfg Config) ([]arrival, error) {
	maxReqs := cfg.MaxRequests
	if maxReqs <= 0 {
		maxReqs = 20000
	}
	var buf [16]stream // up to 16 tenants' streams allocate nothing
	ss := buf[:0]
	for i, sp := range cfg.Tenants {
		if sp.Rate <= 0 {
			// The tenants before a bad rate are drawn first: their
			// overflow is the error, if they have one.
			if _, err := merge(ss, cfg.Horizon, maxReqs); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("serve: tenant %q rate %v must be positive", sp.Name, sp.Rate)
		}
		ss = append(ss, newStream(sp, cfg.Seed*1000003+int64(i)*7919+1))
	}
	return merge(ss, cfg.Horizon, maxReqs)
}

// newStream returns sp's arrival stream drawn from a PRNG seeded with
// seed, before its first draw.
func newStream(sp TenantSpec, seed int64) stream {
	s := stream{rng: *rand.New(rand.NewSource(seed)), rate: sp.Rate}
	if sp.Arrivals == Bursty {
		burst := sp.Burst
		if burst <= 0 {
			burst = 4
		}
		s.rate, s.geo = sp.Rate/float64(burst), 1.0/float64(burst)
	}
	return s
}

// merge drains the streams ss (stream i is tenant i's) in (t, tenant)
// order, failing once they yield more than maxReqs arrivals.
func merge(ss []stream, horizon cost.Seconds, maxReqs int) ([]arrival, error) {
	// The output is sized once: the arrival count's mean, Σ Rate × horizon,
	// plus four standard deviations, clamped to the overflow bound. Each
	// stream is compound Poisson: rate × horizon epochs of one arrival, or
	// of a geometric clump X (E[X] = 1/geo, E[X²] = (2-geo)/geo²).
	mean, variance := 0.0, 0.0
	for i := range ss {
		s := &ss[i]
		epochs, x, x2 := s.rate*float64(horizon), 1.0, 1.0
		if s.geo > 0 {
			x, x2 = 1/s.geo, (2-s.geo)/(s.geo*s.geo)
		}
		mean += epochs * x
		variance += epochs * x2
		s.draw(horizon)
	}
	n := 0
	if c := mean + 4*math.Sqrt(variance) + 16; c > 0 {
		n = int(min(c, float64(maxReqs+1)))
	}
	all := make([]arrival, 0, n)
	for {
		j := -1
		for i := range ss {
			if ss[i].run > 0 && (j < 0 || ss[i].t < ss[j].t) {
				j = i
			}
		}
		if j < 0 {
			return all, nil
		}
		for s := &ss[j]; s.run > 0; s.run-- {
			all = append(all, arrival{t: s.t, tenant: j})
		}
		if len(all) > maxReqs {
			return nil, fmt.Errorf("serve: more than %d arrivals over horizon %v — lower the rates or the horizon", maxReqs, horizon)
		}
		ss[j].draw(horizon)
	}
}

// payload returns a model's per-PE payload off the base m.
func (m Model) payload(base int) int {
	switch m {
	case GNN:
		return base / 2
	case MLP:
		return base / 4
	}
	return base
}

// segments returns a model's request pipeline as arena-relative
// descriptors. n is the machine's group size; m the model payload.
// Chained segments share regions (RAW), so the scheduler always keeps
// them in order, and the last segment always finishes last.
func (m Model) segments(mp, n int) []pidcomm.Collective {
	switch m {
	case GNN:
		s := mp / n
		return []pidcomm.Collective{
			{Prim: pidcomm.AllGather, Dims: "10",
				Src: pidcomm.Span(0, s), Dst: pidcomm.At(s), Level: pidcomm.IM},
			{Prim: pidcomm.AllReduce, Dims: "10",
				Src: pidcomm.Span(s, mp), Dst: pidcomm.At(s + mp),
				Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM},
		}
	case MLP:
		return []pidcomm.Collective{
			{Prim: pidcomm.AllReduce, Dims: "10",
				Src: pidcomm.Span(0, mp), Dst: pidcomm.At(mp),
				Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM},
		}
	}
	return []pidcomm.Collective{
		{Prim: pidcomm.AlltoAll, Dims: "10",
			Src: pidcomm.Span(0, mp), Dst: pidcomm.At(mp), Level: pidcomm.CM},
		{Prim: pidcomm.ReduceScatter, Dims: "10",
			Src: pidcomm.Span(mp, mp), Dst: pidcomm.At(2 * mp),
			Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM},
	}
}

// resolve fills config defaults and derives the machine sizing.
func (cfg *Config) resolve() (base, arenaBytes, n int, err error) {
	if len(cfg.Tenants) == 0 {
		return 0, 0, 0, fmt.Errorf("serve: no tenants configured")
	}
	if cfg.Horizon <= 0 {
		return 0, 0, 0, fmt.Errorf("serve: horizon %v must be positive", cfg.Horizon)
	}
	if cfg.Shape == nil {
		cfg.Shape = []int{32, 32}
	}
	if len(cfg.Shape) != 2 {
		return 0, 0, 0, fmt.Errorf("serve: shape must be two-dimensional, got %v", cfg.Shape)
	}
	// Dims "10" selects axis 0, so the collectives run over groups of
	// the first shape dimension.
	n = cfg.Shape[0]
	base = cfg.BytesPerPE
	if base <= 0 {
		base = 4096
	}
	// Round the base payload up so every model's block size stays
	// burst-aligned: MLP runs at base/4 over groups of n.
	align := 4 * n * dram.BankBurstBytes
	if r := base % align; r != 0 {
		base += align - r
	}
	// The largest per-tenant footprint is DLRM's 3 windows of the full
	// payload (GNN needs s+2*mp < 3*mp too); one extra payload of slack.
	arenaBytes = 4 * base
	return base, arenaBytes, n, nil
}

// machineFor builds the serving machine: cost-only, under the configured
// scheduling policy, with MRAM sized for the tenant arenas.
func machineFor(cfg *Config, arenaBytes int) (*pidcomm.Machine, error) {
	geo := cfg.Geometry
	if geo == (dram.Geometry{}) {
		geo = pidcomm.PaperSystem((len(cfg.Tenants) + 1) * arenaBytes)
	}
	opts := []pidcomm.MachineOption{
		pidcomm.CostOnly(),
		pidcomm.WithSched(cfg.Policy),
	}
	if cfg.Lookahead != 0 {
		opts = append(opts, pidcomm.WithLookahead(cfg.Lookahead))
	}
	return pidcomm.NewMachine(geo, cfg.Shape, opts...)
}

// tenantState is the driver's handle on one live tenant session.
type tenantState struct {
	comm  *pidcomm.Comm
	plans []*pidcomm.CompiledPlan
}

// requests returns every tenant's request pipeline (Model.segments), made
// once per run: churn reopens a tenant on the same descriptors.
func (cfg *Config) requests(base, n int) [][]pidcomm.Collective {
	out := make([][]pidcomm.Collective, len(cfg.Tenants))
	for i, sp := range cfg.Tenants {
		out[i] = sp.Model.segments(sp.Model.payload(base), n)
	}
	return out
}

// openTenant creates (or recreates, after churn) tenant i's session and
// precompiles its request plans from ds, its request pipeline.
func openTenant(mach *pidcomm.Machine, cfg *Config, i, arenaBytes, gen int, ds []pidcomm.Collective) (*tenantState, error) {
	sp := cfg.Tenants[i]
	maxPending := sp.MaxPending
	if maxPending <= 0 {
		maxPending = 64
	}
	name := sp.Name
	if gen > 0 {
		name += "#" + strconv.Itoa(gen)
	}
	comm, err := mach.NewTenant(pidcomm.TenantConfig{
		Name: name, ArenaBytes: arenaBytes, Weight: sp.Weight,
		MaxPending: maxPending, Shed: sp.Shed,
	})
	if err != nil {
		return nil, err
	}
	st := &tenantState{comm: comm, plans: make([]*pidcomm.CompiledPlan, 0, len(ds))}
	if cfg.Fused && len(ds) > 1 {
		cp, err := comm.CompileSequence(ds...)
		if err != nil {
			return nil, err
		}
		st.plans = append(st.plans, cp)
	} else {
		for _, d := range ds {
			cp, err := comm.Compile(d)
			if err != nil {
				return nil, err
			}
			st.plans = append(st.plans, cp)
		}
	}
	return st, nil
}

// Calibrate returns each tenant's predicted single-request cost (the
// sum of its segment plans' predicted charges) on the configured
// machine — the service demand offered-load sweeps calibrate rates
// against.
func Calibrate(cfg Config) ([]cost.Seconds, error) {
	base, arenaBytes, n, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	mach, err := machineFor(&cfg, arenaBytes)
	if err != nil {
		return nil, err
	}
	out := make([]cost.Seconds, len(cfg.Tenants))
	for i, ds := range cfg.requests(base, n) {
		st, err := openTenant(mach, &cfg, i, arenaBytes, 0, ds)
		if err != nil {
			return nil, err
		}
		for _, cp := range st.plans {
			out[i] += cp.Cost().Total()
		}
	}
	return out, nil
}

// Run drives one open-loop serving simulation: it generates every
// tenant's seeded arrival process, submits each arrival's segment plans
// with its arrival time and deadline, and steps the machine's scheduler
// one pick at a time in a single-threaded discrete-event loop — the
// simulated clock advances to the next arrival when the queue idles and
// to each placement's start otherwise, so admission order is a pure
// function of the config and the run replays bit-identically.
func Run(cfg Config) (Result, error) {
	base, arenaBytes, n, err := cfg.resolve()
	if err != nil {
		return Result{}, err
	}
	arrivals, err := genArrivals(cfg)
	if err != nil {
		return Result{}, err
	}
	mach, err := machineFor(&cfg, arenaBytes)
	if err != nil {
		return Result{}, err
	}
	reqs := cfg.requests(base, n)
	tenants := make([]*tenantState, len(cfg.Tenants))
	gens := make([]int, len(cfg.Tenants))
	width := 0 // the longest request pipeline, in plans
	for i := range cfg.Tenants {
		if tenants[i], err = openTenant(mach, &cfg, i, arenaBytes, 0, reqs[i]); err != nil {
			return Result{}, err
		}
		width = max(width, len(tenants[i].plans))
	}

	res := Result{Submitted: len(arrivals)}
	res.Requests = make([]RequestStat, 0, len(arrivals))
	// One flat future table for the whole run: request i's futures are
	// futures[bounds[i]:bounds[i+1]], so the bookkeeping is a fixed number
	// of objects however many requests arrive.
	futures := make([]*pidcomm.Future, 0, len(arrivals)*width)
	bounds := make([]int, 1, len(arrivals)+1)
	completedAt := make([]int, len(cfg.Tenants)) // completions seen per tenant
	churns := make([]int, len(cfg.Tenants))      // churn cycles per tenant
	processed := 0                               // requests fully accounted in res.Requests[..processed)

	// process sweeps the oldest outstanding requests whose futures have
	// all completed, folding their outcome into the stats; it returns
	// the index of a tenant due for churn, if any.
	process := func() int {
		churn := -1
		for processed < len(res.Requests) {
			r := &res.Requests[processed]
			fs := futures[bounds[processed]:bounds[processed+1]]
			done := true
			for _, f := range fs {
				if !f.Done() {
					done = false
					break
				}
			}
			if !done {
				break
			}
			shed := false
			var start, end cost.Seconds
			for fi, f := range fs {
				if f.Err() != nil {
					shed = true
					continue
				}
				s, e := f.Window()
				if fi == 0 || s < start {
					start = s
				}
				if e > end {
					end = e
				}
			}
			if shed {
				r.Shed = true
				res.Shed++
			} else {
				r.Start = start
				r.End = end
				r.Sojourn = end - r.Arrival
				res.Completed++
				completedAt[r.Tenant]++
				if r.Deadline > 0 && end > r.Deadline {
					r.Missed = true
					res.Missed++
				}
				if cfg.ChurnEvery > 0 && completedAt[r.Tenant]%cfg.ChurnEvery == 0 && churn < 0 {
					churn = r.Tenant
				}
			}
			clear(fs) // drop the handles: each pins its chunk of futures
			processed++
		}
		return churn
	}

	clock := cost.Seconds(0)
	next := 0
	for next < len(arrivals) || mach.Pending() > 0 {
		if mach.Pending() == 0 && next < len(arrivals) && arrivals[next].t > clock {
			clock = arrivals[next].t
		}
		// Admit every arrival at or before the clock.
		for next < len(arrivals) && arrivals[next].t <= clock {
			a := arrivals[next]
			sp := cfg.Tenants[a.tenant]
			var deadline cost.Seconds
			if sp.Deadline > 0 {
				deadline = a.t + sp.Deadline
			}
			for _, cp := range tenants[a.tenant].plans {
				f := cp.SubmitOpts(pidcomm.SubmitOptions{NotBefore: a.t, Deadline: deadline})
				futures = append(futures, f)
				if f.Done() && f.Err() != nil {
					break // rejected: drop the request's remaining segments
				}
			}
			res.Requests = append(res.Requests, RequestStat{Tenant: a.tenant, Arrival: a.t, Deadline: deadline})
			bounds = append(bounds, len(futures))
			next++
		}
		f := mach.Step()
		if f == nil {
			if mach.Pending() > 0 {
				return Result{}, fmt.Errorf("serve: scheduler stalled with %d plans pending", mach.Pending())
			}
			if next < len(arrivals) {
				clock = arrivals[next].t
			}
			continue
		}
		if s, _ := f.Window(); s > clock {
			clock = s
		}
		if ti := process(); ti >= 0 {
			// Churn: retire the tenant (drains the machine) and recreate
			// it over the re-coalesced arena pool.
			if err := mach.CloseTenant(tenants[ti].comm); err != nil {
				return Result{}, err
			}
			gens[ti]++
			churns[ti]++
			if tenants[ti], err = openTenant(mach, &cfg, ti, arenaBytes, gens[ti], reqs[ti]); err != nil {
				return Result{}, err
			}
			if e := mach.Elapsed(); e > clock {
				clock = e
			}
			process() // the drain may have completed more requests
		}
	}
	mach.Flush()
	process()

	res.Makespan = mach.Elapsed()
	if res.Makespan > 0 {
		res.Throughput = float64(res.Completed) / float64(res.Makespan)
	}
	res.Tenants = make([]TenantStats, len(cfg.Tenants))
	for i, sp := range cfg.Tenants {
		res.Tenants[i] = TenantStats{Name: sp.Name, Churns: churns[i]}
	}
	res.summarize()
	// Tear every tenant down: the arenas must coalesce back into the
	// free pool (the churn invariant the fuzz scenario pins).
	for _, st := range tenants {
		if err := mach.CloseTenant(st.comm); err != nil {
			return Result{}, err
		}
	}
	res.Snapshot = mach.Snapshot()
	res.Breakdown, res.FreeSpans = res.Snapshot.Meter, res.Snapshot.FreeSpans
	return res, nil
}

// Scenario builds the canonical serving mix the benchmark gate and the
// property tests pin: a latency-sensitive "chat" tenant (MLP, tight
// SLO), a "feed" tenant (GNN, bursty arrivals, looser SLO) and a
// best-effort "batch" tenant (DLRM, no deadline) sharing the paper
// machine. Rates are calibrated against each tenant's predicted request
// cost so the offered load is rho (fraction of machine capacity) split
// 20/20/60 across the tenants, and the SLOs leave room for one
// non-preemptible batch segment of head-of-line blocking — below
// saturation an EDF schedule meets every deadline.
func Scenario(policy pidcomm.SchedPolicy, rho float64, requests int) (Config, error) {
	cfg := Config{
		Seed:    42,
		Policy:  policy,
		Horizon: 1, // placeholder until rates are known
		Tenants: []TenantSpec{
			{Name: "chat", Model: MLP, Arrivals: Poisson, Rate: 1},
			{Name: "feed", Model: GNN, Arrivals: Bursty, Burst: 6, Rate: 1},
			{Name: "batch", Model: DLRM, Arrivals: Poisson, Rate: 1},
		},
		MaxRequests: requests + requests/2,
	}
	costs, err := Calibrate(cfg)
	if err != nil {
		return Config{}, err
	}
	shares := []float64{0.2, 0.2, 0.6}
	total := 0.0
	for i := range cfg.Tenants {
		cfg.Tenants[i].Rate = rho * shares[i] / float64(costs[i])
		total += cfg.Tenants[i].Rate
	}
	// Tight-but-feasible SLOs: service demand, plus one batch request of
	// blocking (EDF cannot preempt a placed segment), plus slack for the
	// tenant's own hazard-serialized backlog (feed's bursts clump).
	cfg.Tenants[0].Deadline = 6*costs[0] + costs[2]
	cfg.Tenants[1].Deadline = 40*costs[1] + 2*costs[2]
	cfg.Horizon = cost.Seconds(float64(requests) / total)
	return cfg, nil
}
