// Package host models the host CPU side of the PIM-DIMM system: the
// staging memory, the AVX-512 vector unit, the driver's domain-transfer
// engine, and the burst-level transfer engine between host and entangled
// groups (with rank-level parallelism).
//
// # Role
//
// Every byte that moves between PEs moves through the Host — PEs have no
// interconnect (§ II-A) — so this package is the chokepoint both designs
// share. All functional data movement is real: bursts move actual bytes
// between the simulated bank MRAMs and host buffers/registers. Costs are
// charged to a cost.Meter in the categories of the paper's breakdowns.
//
// # Key types and seams
//
//   - Host owns the attached dram.System, the cost parameters, and the
//     meter. Single-owner state (core.Comm serializes executions on it),
//     except Stats and Meter, which may be polled concurrently.
//   - Shards (host.go) are the worker-pool seam of BulkRead/BulkWrite:
//     each shard holds its own burst/channel tallies so workers move
//     disjoint groups concurrently, and MergeShards folds the tallies
//     back deterministically (shard order, then channel order) on the
//     executing goroutine before the epoch closes. The concurrency
//     contract is exactly that — shards touch disjoint MRAM, all shared
//     counters merge single-threaded — so worker count never changes any
//     statistic. SetWorkers sizes the sharded bulk paths (core.New
//     mirrors Config.ExecWorkers here).
//   - Transfer epochs (BeginXfer/EndXfer): burst traffic is tallied per
//     channel and charged at epoch end as the *maximum* per-channel time
//     — channels transfer in parallel, as on real hardware; without
//     RankParallel the effective bandwidth halves (§ VIII ablation).
//   - TallyAllGroups books a column stream's bursts (§ V-A2): the
//     optimized engine streams 64-byte bursts in lane order — lane c is
//     bank c's 8 bytes, the burst after its domain transfer — each column
//     one burst on every entangled group. core books a streaming step
//     with it when it records a row's charge trace, and its functional
//     run moves the columns, one copy per PE between banks or host
//     buffers, without tallying them again. The bus-order interleave
//     (dram's ReadBurst/WriteBurst) is never computed on this path, and
//     the domain transfers a level performs are charged by its schedule
//     steps.
//   - ChargeBulkRead/ChargeBulkWrite price the conventional
//     UPMEM-SDK-style staged paths of the baseline design (§ III-A,
//     Figure 3a): bus + automatic domain transfer + staging-memory
//     traffic, in one charge order (bulk). core books a staged step with
//     them when it records a row's charge trace; its functional run then
//     moves the bytes one communication group at a time, through
//     per-worker scratch of its own. BulkRead/BulkWrite are the same charge order
//     with the bytes moved through the host's machine-sized staging
//     slab, PE-major, one contiguous copy per PE (dram's
//     ReadSpan/WriteSpan) after one span check and one tally per group;
//     core no longer calls them, only the benchmark's host layer does.
//   - DomainTransfer is the driver's 8x8 byte transpose between PIM and
//     host byte domains (§ II-B, Figure 1).
//   - Charge prices a Work — one host-side class (DT, scalar/local/SIMD
//     modulation, reductions, staging traffic) — from one table of
//     categories and cost.Params throughput fields.
//   - Booking seams: TallyBursts, TallyAllGroups, ChargeBulkRead,
//     ChargeBulkWrite and ApplyStats account traffic without moving
//     bytes. core's booking loop covers the whole machine, so it books
//     with TallyAllGroups (ChargeBulk* too), one sum per channel: its
//     cost does not grow with the group count. Every run of a row books
//     the recorded trace's statistics with ApplyStats.
//
// XferStats (stats.go) summarizes cumulative bus traffic for tests and
// cmd/pidtrace.
//
// # Paper map
//
//	Figure 1, § II-B  DomainTransfer
//	Figure 3a, § III  ChargeBulkRead / ChargeBulkWrite (baseline staging;
//	                  BulkRead / BulkWrite move the bytes too)
//	§ V-A2            TallyAllGroups (column streaming)
//	§ VIII-D          the ScalarReduce / LocalReduce rows of the Work table
package host
