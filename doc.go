// Package repro is a from-scratch Go reproduction of "PID-Comm: A Fast
// and Flexible Collective Communication Framework for Commodity
// Processing-in-DIMM Devices" (ISCA 2024), including the UPMEM-like
// PIM-DIMM substrate it runs on.
//
// # Layout
//
// The public API is package pidcomm; everything else is internal:
//
//	pidcomm             stable surface: Machine/Tenant sessions, the
//	                    Collective descriptor with its three entry
//	                    points (Run/Compile/Submit), compiled plans,
//	                    async futures
//	internal/core       the engine: hypercube model, the Collective
//	                    shape table and its one validation path,
//	                    schedule IR, functional + cost-only backends,
//	                    compiled plans, level autotuner, tenant arenas
//	                    + weighted-fair submission scheduling, the
//	                    multi-host cluster layer (§ IX-A)
//	internal/dram       the DIMM hierarchy, entangled-group striping,
//	                    per-bank arena carving
//	internal/host       the host CPU: bulk/staged and burst/streaming
//	                    transfer paths, domain transfer, charge seams
//	internal/dpu        the per-bank PEs and the kernel launch engine
//	internal/cost       the parametric timing model: meter, breakdowns,
//	                    overlap-aware timeline
//	internal/elem, vec  element types/operators and the 64-byte register
//	                    model
//	internal/apps       the five application studies (DLRM, GNN, BFS,
//	                    CC, MLP), bit-exact vs CPU references
//	internal/bench      the evaluation harness (one experiment per paper
//	                    artifact, plus replay and async experiments)
//	internal/fuzz       randomized cross-level consistency checking
//
// Commands: cmd/pidbench regenerates the paper's tables and figures,
// cmd/pidinfo prints configuration/support matrices and plan-cache
// statistics, cmd/pidtrace prints bus-traffic statistics, cmd/pidlayout
// visualizes hypercube mappings, cmd/pidfuzz runs the fuzzer.
//
// Start with the README (architecture diagram, quickstart, async usage),
// then the pidcomm godoc. The root package exists to host bench_test.go,
// which exposes one testing.B benchmark per paper artifact, and
// docs_test.go, which gates CI on every package staying documented.
package repro
