// Package dpu models the in-DIMM processing elements (DPUs) attached to
// each memory bank (§ II-A): a PE can stream its own bank's MRAM through
// a small WRAM scratchpad and execute simple integer instructions, with
// no path to any other PE — the architectural constraint all of
// PID-Comm's host-mediated communication exists to work around.
//
// # Key types
//
//   - Ctx is a kernel's view of one PE: ReadMram/WriteMram model the DMA
//     engine (and account its traffic), Exec accounts retired
//     instructions, Wram is the 64 KiB scratchpad, and Buf/I32/I64 are
//     the kernel's staging (see "Kernel scratch" below).
//   - Kernel is a Go function run against the real simulated MRAM bytes
//     of one PE; correctness is checked end-to-end by the application
//     tests (bit-exact against CPU references).
//   - Engine launches kernels. Launch runs them concurrently across PEs
//     and charges the cost model with the slowest PE's modeled time (all
//     PEs run in parallel on hardware) plus the host-side launch
//     overhead; per-PE time is max(instruction time, MRAM DMA time),
//     modeling tasklet-level DMA/compute overlap, degraded below
//     SaturatingTasklets (UPMEM guidance: >= 11 tasklets for ~1 IPC).
//   - LaunchCharges is the cost-only seam: it charges a launch whose
//     per-PE work is known analytically, sharing the time arithmetic
//     with Launch so both backends produce bit-identical meters.
//     LaunchChargesUniform is its form for a launch in which every PE
//     does the same work (core's booking of a reorder launch): one PE's
//     time, at any PE count, bit-identical to a constant account. Every
//     launch form ends in one charge, the slowest PE's time then
//     KernelLaunch.
//
// Engine.Launch is safe for concurrent use; application kernels share
// one engine. Callers keep concurrent kernels'
// MRAM regions disjoint, as on real hardware. A kernel panic on any
// worker reaches Launch's caller.
//
// # Kernel scratch
//
// A DPU streams its bank through one fixed scratchpad; it does not obtain
// fresh memory per launch. Kernels therefore take every staging buffer
// from their Ctx — Buf, I32, I64 — and never from make. The contract:
//
//   - Lifetime is one PE's kernel: the launch loop resets the arena before
//     each PE, so a buffer must not outlive the kernel call it was taken in.
//   - Contents are undefined: every PE after a shard's first sees what the
//     previous PE left. Clear what the kernel needs zeroed.
//   - No traffic is charged: the arena models WRAM streaming state, not
//     MRAM. Only ReadMram/WriteMram and Exec reach the cost model.
//   - Slabs are retained with the shard's context: shard k of a launch
//     always runs on context k of the engine's pooled launch descriptor,
//     whichever goroutine claims it. A take that does not fit grows the
//     slab to everything the PE has taken so far (earlier buffers stay
//     valid), so from a shard's second PE on, and on every later launch,
//     nothing is allocated — however many pool helpers happened to be
//     free. An engine holds at most the largest single-PE footprint per
//     launch shard.
//
// # Paper map
//
//	§ II-A    the PE/bank/WRAM architecture Ctx models
//	§ V-A1    the reorder launches core books with Category PEMod
//	§ VII     application kernels (Category Kernel) in internal/apps
package dpu
