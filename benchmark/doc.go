// Command benchmark is the repository's two-clock benchmark: five named
// workloads, each reporting the same end-to-end metrics, plus a traced
// round and layer drivers that attribute host time to the modules
// (vec, dram, elem, host, dpu, par, cost, algo, core, serve, apps,
// pidcomm, data).
//
// Two clocks, never mixed: a metric whose name starts with sim_ (or whose
// unit starts with sim_) is simulated seconds — the paper's clock,
// deterministic, repeating bit for bit — and every other timing is host
// time of the Go code. A change meant to speed up the simulator must
// leave every simulated value identical.
//
//	go run ./benchmark                         # all workloads, 5 interleaved rounds
//	go run ./benchmark -trace 1                # + traced round, per-layer metrics, span files
//	go run ./benchmark -workload serve_steady  # one workload; last line is one JSON object
//	go run ./benchmark -out a.json             # write the result set
//	go run ./benchmark -compare a.json b.json  # row per workload x metric, with bounds
//
// It measures every layer from outside, through exported functions of
// pidcomm, serve, apps/* and the leaf packages, and changes no product
// code. README.md in this directory is the glossary of every metric and
// explains how a later change states a performance claim in these names.
package main
