// Package serve is the online-serving harness over the pidcomm machine:
// a deterministic open-loop workload driver with SLO accounting, built
// to exercise the asynchronous scheduler the way an inference cluster
// would — many tenants, mixed request shapes, deadlines, overload and
// churn — entirely on the simulated timeline.
//
// # The driver
//
// Run takes a Config naming the tenants (model mix, arrival process,
// rate, SLO, overload budget) and simulates one serving session as a
// single-threaded discrete-event loop: each tenant's arrivals are drawn
// from its own seeded PRNG (Poisson or bursty), the streams merged into
// time order as they are drawn, submitted as compiled plans carrying
// their arrival time (NotBefore) and absolute deadline, and scheduled by
// stepping the machine one pick at a time. The simulated clock chases
// placements and idles forward to the next arrival, so the whole run —
// admission order, placements, shedding — is a pure function of the
// Config and replays bit-identically. The driver's own bookkeeping is a
// fixed number of objects, whatever the request count: one flat future
// table with a bounds index, one request table, one percentile scratch
// buffer. Each piece of it is done once: a cost-only replay adds its
// charge trace to the machine's and the tenant's meters without a
// per-charge callback, and the summary sorts every completed sojourn
// once, in its tenant's partition of the scratch, reading All's and
// SLO's percentiles across the partitions.
//
// Requests are short collective pipelines modeled on the paper's
// workloads (DLRM embedding exchange, GNN aggregation, MLP gradient
// sync). By default each pipeline stage is submitted as its own plan,
// keeping the stage boundaries as preemption points for the scheduler;
// Fused collapses a request into one fused plan for contrast.
//
// # Outcomes
//
// Result reports nearest-rank sojourn percentiles (p50/p99/p99.9) over
// all requests, over the deadline-carrying (SLO) population and per
// tenant, plus throughput, deadline misses, shed counts, the attributed
// cost breakdown and the allocator's final free list. Requests keeps
// the per-request trace the property tests diff across runs.
//
// Scenario builds the canonical chat/feed/batch mix with rates
// calibrated against predicted request cost so load is a fraction rho
// of machine capacity; `pidbench -exp serving` sweeps it into a
// throughput-vs-p99 curve and the CI gate pins EDF's p99 advantage on
// it. ChurnEvery recycles tenants mid-run (retire, free the arena,
// recreate over the coalesced pool), pinning the allocator and meter
// invariants under churn.
package serve
