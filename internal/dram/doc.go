// Package dram simulates the memory side of a commodity PIM-enabled DIMM
// system (UPMEM-like, § II-A, Figure 1).
//
// # The entangled-group constraint
//
// The hierarchy is channel -> rank -> chip -> bank. The 8 chips of a rank
// share the 64-bit channel bus, 8 bits each, and operate in unison: a
// 64-byte DDR4 burst addressed to bank b of a rank is striped byte-wise
// across bank b of all 8 chips. The set of banks {bank b of chips 0..7}
// is an *entangled group*; its 8 banks (and the PEs attached to them)
// must be accessed together to draw full bus bandwidth. This striping is
// also why host and PEs see different byte orders — the domain-transfer
// problem of § II-B that cross-domain modulation (§ V-A3) attacks.
//
// The package stores real bytes in per-bank MRAM arrays and implements
// the physical striping exactly: burst byte i lands in chip i%8 at local
// offset base+i/8. Everything above (domain transfer, collectives) builds
// on this layout, so data placement bugs surface as data corruption in
// tests rather than as silent cost-model drift.
//
// # Bus order and lane order (§ II-B)
//
// Bus order — ReadBurst/WriteBurst, byte i of the burst in chip i%8 — is
// the model: it is what the channel carries, and the oracle the tests
// hold every other access to. The simulator moves bytes in lane order
// instead: lane c (bytes 8c..8c+7) of a burst is bank c's, which is the
// bus-order burst after its 8x8 domain transfer. ReadLanes/WriteLanes
// move one lane-order burst, eight 8-byte word copies; ReadSpan/WriteSpan
// are runs of lane-order bursts regrouped by bank, one copy per bank, the
// host's bulk paths. core's column stream moves its runs of lane-order
// bursts between banks with the same per-bank copies, through BankBytes.
// ReadBurst/WriteBurst are lane order plus one transpose, so both orders
// share one set of checks.
//
// # Key types
//
//   - Geometry sizes a system (channels, ranks, banks, MRAM per bank);
//     PaperGeometry returns the paper's 1024-PE testbed (§ VIII-A).
//   - System allocates the banks and implements burst striping
//     (ReadBurst/WriteBurst, ReadLanes/WriteLanes, ReadSpan/WriteSpan)
//     and exposes each bank (BankBytes), PE linearization (PEFromLinear) and the group-to-rank mapping
//     (RankOfGroup).
//   - NewPhantomSystem allocates a geometry-only system with no backing
//     MRAM: topology and size queries work, byte access panics. Combined
//     with the cost-only backend it makes paper-scale sweeps allocation-
//     free.
//   - Arena / CarveArena / FreeArena carve each bank's MRAM into
//     disjoint, burst-aligned per-tenant windows — the provisioning
//     substrate of the multi-tenant session layer (core.Tenant is
//     the one caller). Allocation is first-fit over a coalescing free
//     list, so tenant churn (create/teardown at runtime,
//     Tenant.Close) returns windows to the pool instead of
//     fragmenting MRAM; FreeSpans and LargestFree expose the pool state.
//
// # Concurrency
//
// System holds no locks: MRAM is plain memory. Concurrent access is
// safe exactly when the bursts touched are disjoint, which is the
// discipline the parallel functional executor (internal/par, core's
// worker pool) maintains by construction — workers shard column ranges
// and PE lists so no two shards ever address the same burst. Anything
// less disciplined must serialize externally; the race detector enforces
// this in CI.
//
// # Paper map
//
//	Figure 1, § II-A  Geometry, the entangled-group striping
//	§ II-B            the PIM/host byte-domain split: ReadBurst (bus
//	                  order) against ReadLanes (after the transfer)
//	§ VIII-A          PaperGeometry (4 ch x 4 ranks x 8 chips x 8 banks)
package dram
