// Package core implements PID-Comm: the virtual-hypercube communication
// model (§ IV) and the optimized multi-instance collective communication
// library (§ V) for the simulated PIM-enabled DIMM system.
//
// # Role
//
// core is the engine of the reproduction. It provides the eight
// collective primitives of Figure 2 (AlltoAll, ReduceScatter, AllReduce,
// AllGather, Scatter, Gather, Reduce, Broadcast) at four cumulative
// optimization levels — Baseline, +PE-assisted reordering (PR, § V-A1),
// +in-register modulation (IM, § V-A2), +cross-domain modulation (CM,
// § V-A3) — over user-selected hypercube dimensions. Every functional
// execution moves real bytes through the simulated banks and registers
// and must produce bit-identical results; tests verify all levels against
// an independent reference model (reference.go).
//
// # Configured at construction
//
// New(geo, shape, Config) and NewCluster(hosts, geo, shape, Config), which
// builds its hosts with New on one shape table, are the only constructors:
// New builds the (phantom or real) system, the hypercube and the Comm,
// validates the Config once and resolves the scheduler once. Backend, cost
// parameters, fusion level, worker count, scheduling policy and lookahead
// window are fixed for the Comm's life; the Auto objective
// (SetAutoObjective) is the one runtime setting.
//
// A Comm is the machine: it hosts sessions and runs nothing itself.
// Every collective compiles and runs in a session (Tenant: NewTenant's
// carved arena, or Session's whole free window), its plan's owner.
//
// # The Collective descriptor
//
// Every collective call is described by one Collective value
// (collective.go): primitive, dims bitmap, arena-relative Region
// handles, element type/operator, level (zero value = Auto) and host
// payloads. Exactly three entry points of a session consume it —
// Compile, Run, Submit — and nothing else does. Everything that
// distinguishes the eight primitives (names, Table II levels, which
// regions they use, the sizes those imply, whether they reduce or run in
// place, the cluster leg row) is one row of one static table, shapes,
// read by the one validation path (specIn), the cluster layer (a global
// call is the same row on H×P ranks) and the autotuner.
//
// # Pipeline
//
// A collective call flows through four stages: validate, lower to the
// schedule IR, compile to a plan, execute. Compilation is one path:
// descriptor → specIn (validation, Auto resolution, the resolved call) →
// compiled (a new plan on the shape table's row, keyed by the members'
// arena-relative signatures; a collective is a sequence of one) →
// buildLocked (lower → concatenate → fuse → trace, on a row miss). The
// shape table is the one compile cache: Auto's dry builds and a cluster's
// role rows (cluster.go) fill it too.
//
//   - Hypercube (hypercube.go) holds the virtual shape of § IV-B and
//     produces communication groups (the cube slices of Figure 5) from a
//     dims bitmap.
//   - Schedule (schedule.go) is the typed IR every collective lowers to:
//     StepRotateBlocks (the PE-assisted reorder kernel), StepBulk (a
//     conventional staged host pass), StepColumnStream (one streaming
//     epoch of the optimized engine), StepHostCompute (host charges over
//     Rounds equal rounds), StepNetTransfer (a cluster's inter-host network
//     leg) and StepSync. Each step carries both the declarative counts
//     and charges it books and the functional closures that move its
//     bytes. A schedule holds no comm and no run state: its closures take
//     the comm that executes them, so one schedule serves every comm of
//     its shape.
//   - Booking and moving are apart (exec.go). One booking loop,
//     executeOn, books a schedule when its row is traced; every run, on
//     either backend, books the row's charge trace. Backend is then only
//     what a run moves: the functional backend walks the schedule with
//     movers that move real bytes and book nothing; the cost-only backend
//     moves nothing, on a phantom system — the engine for paper-scale
//     sweeps and Auto dry runs. The two cannot disagree on a cost, and
//     the closed-form tables of oracle_test.go hold the booking itself.
//   - CompiledPlan (plan.go) is the plan/execute split: a call signature
//     compiled once and replayed many times. A plan is its shape row —
//     signature, members, arena-relative footprint, fused schedule at
//     arena-relative offsets, charge trace, fusion report, member costs:
//     the machine's, shared by every session at every base — bound to its
//     session's arena base and host buffers (Hosts, which Scatter and
//     Broadcast read and Gather and Reduce write), which a functional run
//     reads off the comm's running plan. A plan that finds its row (a
//     successor tenant's, Auto's winner) lowers and traces nothing on
//     either backend (Snapshot.PlanCache instruments the rows).
//   - Fusion (fuse.go): before tracing, peephole passes rewrite the
//     lowered schedule — adjacent same-region rotations compose (inverse
//     pairs cancel), back-to-back streaming epochs coalesce, no-ops and
//     interior syncs drop. On by default (Config.Fuse, one level per
//     Comm); CompileSequence compiles whole multi-collective
//     pipelines through the fuser, where the cross-collective rewrites
//     pay off. Fused execution is byte-identical to unfused (pinned by
//     fuse_test.go and the fuzz harness) — only the charge trace, which
//     is regenerated from the fused schedule, shrinks.
//   - Algorithms (algorithm.go): one static table row per (primitive,
//     algorithm) says when a lowering applies and how it lowers. The
//     reference rows are the paper's lowerings (schedule.go); five
//     alternatives (lowering.go) are classic MPI shapes emulated on the
//     host path at the Baseline level, byte-identical to the reference.
//     Ring AllReduce: 2(n-1) staged rounds of one 1/n block per PE (n-1
//     reduce-scatter hops, n-1 allgather hops) — bandwidth-optimal hops.
//     Tree AllReduce: a binomial tree, ceil(log2 n) reduce-up plus as
//     many broadcast-down rounds of the full payload — fewest rounds.
//     Rsag AllReduce: the Rabenseifner composition, the staged passes of
//     the Baseline ReduceScatter and the multi-group AllGather themselves
//     — block-parallel host reduction for one extra bus round trip of a
//     block. Ring and tree Broadcast: the same staged shapes delivering
//     the host payload through the bulk path instead of the driver's
//     single-DT broadcast.
//     The ring and tree rows also carry the rounds × bytes of a cluster
//     AllReduce's host-level wire leg (cluster.go).
//   - Autotuning (auto.go): a descriptor left at Level Auto and/or
//     AlgoAuto dry-builds every applicable (algorithm, level) row of that
//     table into the comm's shape rows, at the caller's offsets — tracing
//     runs on a scratch cost-only host whatever the backend — and caches
//     the winner per call signature.
//     SetAutoObjective selects what wins: the meter total (serial cost,
//     default) or the pipelined dry-placed makespan (overlapped elapsed
//     time). Ties keep the reference lowering at the lowest level, so an
//     alternative is picked only when strictly better.
//
// # Parallel functional execution
//
// The functional backend shards every moving step across a worker pool
// (internal/par): rotations split the PE list, each shard rotating its
// PEs' regions through a slab of its own, column-stream epochs split
// their column range onto per-shard
// streaming contexts (engine.go), and staged bulk passes split their
// communication groups, each shard staging one group at a time in a
// scratch slab of its own (Comm.stage; a plan with fewer groups than
// workers splits each group's member copies instead). Staging never
// holds more than one group per shard: the machine is not copied whole.
// Config.ExecWorkers sizes the pool (default
// GOMAXPROCS; purely a simulator-throughput knob). The determinism
// contract is structural: shards only write disjoint regions and book
// nothing — a run's meter additions and bus statistics are its row's
// trace, booked on the executing goroutine before any shard starts — so
// results, breakdowns, and bus statistics are bit-for-bit identical at
// any worker count (parallel_test.go pins this, and the fuzz harness
// randomizes the knob). Replay of a warmed CompiledPlan is also
// allocation-free, streaming and staged: scratch lives in per-shard
// slabs and contexts, and rooted results in the plan's Hosts
// (TestReplayAllocs*).
//
// # Asynchronous execution
//
// Submit (async.go) enqueues a plan on its session's bucket of the
// Comm's submission queue and returns a Future. The queue drains on
// demand, on the calling goroutine (Step, Flush, a Future's blocking
// accessors, Submit's backpressure); no goroutine runs it in the
// background. Plans execute in submission order — results are
// bit-identical to serial replay — but elapsed-time accounting is
// overlap-aware: each plan is placed on a four-lane cost.Timeline (host
// CPU, external bus, PE array, NIC), plans with disjoint MRAM footprints
// overlap, and plans with data hazards (RAW/WAR/WAW on a per-PE region)
// are ordered. Comm.Elapsed reports the makespan; Comm.Flush is the
// barrier. A submission allocates nothing of its own: its Future is
// carved from a per-Comm chunk (never reused, so a held handle stays
// valid), completion is an atomic flag stored on the one completion
// path, which broadcasts the one condition every blocked waiter parks
// on, and every run adds its charge trace to the machine's and the
// tenant's meters directly. The bench "async" experiment measures
// the overlap speedup on a DLRM-style pipeline.
//
// # Tenants and weighted-fair scheduling
//
// Tenant sessions (tenant.go) let many workloads share one Comm: each
// tenant owns a disjoint per-PE MRAM arena its descriptors are resolved
// against, a meter that books every run of its plans as the machine's
// does (bit-identical to running alone), a weight, and an optional simulated-time quota
// enforced at admission. The whole lifecycle lives there: NewTenant
// carves the arena from the system's free-list allocator and registers
// the session, Close retires it and frees the arena —
// pidcomm re-exports the type as its Comm. The submission queue is
// per-tenant buckets served by start-time weighted fair queuing
// (async.go); within a bucket FIFO order — and with it hazard order — is
// preserved, while across tenants the disjoint arenas guarantee
// hazard-freedom and the shared timeline overlaps the streams. The bench
// "multitenant" experiment measures the serving win.
//
// # Submission scheduling
//
// Which queued plan runs next is a policy behind one funnel (sched.go,
// pickLocked in async.go): the funnel enumerates the hazard-free
// candidates near every bucket's head and the active Scheduler's Pick
// chooses among them. Hazard ordering, weighted-fair virtual-time
// bookkeeping and queue removal are funnel invariants — a policy only
// reorders independent plans, so results stay bit-identical to a serial
// replay in the chosen order. The schedulers table has four rows: WFQ
// (default), EDF, FIFO and Lookahead, a makespan-aware list scheduler
// that dry-places candidate charge traces on a projection cost.Timeline
// and serves the one minimizing the projected joint makespan, under a
// WFQ virtual-time starvation bound. ParseSchedPolicy and
// SchedPolicy.String round-trip every name. Config.Lookahead bounds the
// candidate window of the window-scanning policies. The bench "reorder"
// experiment measures the lookahead payoff on an adversarial submission
// order.
//
// # Concurrency
//
// A machine has three locks, one per concern: execMu for execution,
// asyncMu for submission and the session lifecycle, and its shape table's
// compMu for compilation, which a cluster's hosts share and a compile
// takes once. The one nesting is a Cluster's execMu before a host's
// locks: a cluster run (Submit is one) takes asyncMu or execMu under it,
// a cluster shard's Close both, and a functional cluster run holds every
// host's execMu at once, taken in host order, each after flushing that
// host. compMu is never held with asyncMu or execMu, and only leaf locks,
// such as a meter's, are taken inside it.
//
// # Inspecting a run
//
// Run-time state has one read path (snapshot.go): Comm.Snapshot returns a
// value — clock and lanes, tenant-attributed meter, plan-cache, fusion and
// Auto caches, tenant rows, free list — that Snapshot.String renders, and
// Cluster.Snapshot rolls the hosts up; after collective-only work its
// Meter equals Comm.Meter bit for bit. Beside it only Pending and
// Elapsed, polled per request by serving loops, have getters.
//
// # Paper map
//
//	Figure 2      Primitive (level.go): the rows of shapes (collective.go)
//	Figures 5, 6  Hypercube, Groups (hypercube.go)
//	Figure 7      lowerAlltoAll (schedule.go)
//	Figure 8      lowerReduceScatter / lowerAllReduce / lowerAllGather
//	Figure 9      streamCtx.shift (engine.go): one 8-byte lane per PE per
//	              column, in lane order (lane c = bank c's bytes), so a
//	              run of columns is one copy per PE and the bus
//	              interleave and its DT are charges, not byte moves
//	Table I       TableI (support.go)
//	Table II      the levels field of the shapes rows, rendered by TableII
//	§ V-A1        (*Comm).rotate (engine.go)
package core
