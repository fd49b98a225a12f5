// Package cost provides the timing model of the simulated PIM-enabled
// DIMM system: the hardware parameters, the accounting meter that
// produces the per-category execution-time breakdowns of the paper's
// evaluation, and the overlap-aware timeline used by asynchronous plan
// execution.
//
// # Role
//
// The simulator separates *what happens* (bytes moving through
// internal/dram, internal/host, internal/dpu) from *what it costs* (this
// package). The model is deliberately parametric: the paper's claims are
// about the shape of results — which design wins, by what factor, where
// crossovers fall — and those shapes are determined by bandwidth and
// throughput ratios, not absolute hardware speeds. All parameters live in
// Params (params.go), documented with the real-hardware values they
// approximate (Xeon Gold 5215 host, four channels of four-rank UPMEM
// DIMMs).
//
// # Key types
//
//   - Category classifies where simulated time goes, mirroring the
//     breakdown categories of Figure 17 (DomainTransfer, HostMod,
//     HostMem, PEMem, PEMod, Other) plus Kernel and Network for the
//     application and multi-host studies (Figures 4, 13, 21, 23b).
//   - Meter accumulates Seconds per category, thread-safely; Breakdown
//     is its immutable snapshot. The meter never influences functional
//     data movement — the simulator moves real bytes and reports costs
//     here. A meter can record its additions (SetRecorder), which is how
//     core captures a compiled plan's charge trace (a Recorder's
//     TraceEntry runs); a cost-only replay re-applies the trace to each
//     meter it charges in one AddTrace call, bit for bit the additions it
//     recorded, in the same order within each category. A step's charges
//     reach the meter the same way: priced once, then one AddRounds call
//     adds them under one lock, round-major, calling the recorder once
//     per addition.
//   - Timeline (timeline.go) is elapsed-time accounting for overlapped
//     execution: work is placed on one of four lanes (LaneCPU, LaneBus,
//     LanePE, LaneNet — the independently-clocked resources of the
//     machine), lanes run in parallel, and Elapsed is the makespan. The
//     meter sums work; the timeline answers "when would this finish":
//     serial execution makes them equal, asynchronous submission of
//     independent plans makes Elapsed smaller. Mark and Rollback bracket
//     a what-if: placements between them are journaled and undone
//     exactly, which is how the lookahead scheduler scores candidates on
//     its projection without copying it. SetFloor prunes each lane by
//     moving a head index past the intervals the floor retired, and
//     Check states the timeline's invariants: on every lane
//     0 ≤ head ≤ len, the intervals before head exactly those ending at
//     or before the floor, every live one ending after it, and the dead
//     prefix invisible to Clone and to every placement.
//   - NetParams (net.go) parameterizes the inter-host network of the
//     cluster layer: link bandwidth/latency, efficiency, NIC striping,
//     switch tiers and deterministic skew, combined by RoundTime into
//     the cost of one overlapped exchange round.
//
// # Paper map
//
//	Figure 4, 13  Category (Kernel vs communication split)
//	Figure 17     Category breakdowns, Breakdown.String
//	§ VIII-A      Params / DefaultParams (testbed calibration)
//	§ IX-B        Params.DSAOffload (DSA what-if)
//	§ IX-A        Params.Net (NetParams, multi-host network)
package cost
