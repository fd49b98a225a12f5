GO ?= go

.PHONY: check fmt vet build test race bench-smoke bench-json bench-compare bench-gate benchmark-smoke fuzz-smoke profile staticcheck checkdocs docs loc loc-check

check: fmt vet build test checkdocs loc-check

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The whole suite, then the kernel path, the algorithm differential
# suite, the transfer layers and core's column-stream span kernels again
# at one and four CPUs: the inline and the pooled shard path both see
# reused arena slabs, the panic hand-off, the staged passes sharded
# across communication groups or one group's members, bulk copies
# sharded across group ranges, and column runs split mid-run across
# shards.
test:
	$(GO) test ./...
	$(GO) test -cpu 1,4 ./internal/dpu ./internal/par ./internal/apps/... ./internal/algo ./internal/host ./internal/dram
	$(GO) test -cpu 1,4 -run 'TestParallelDeterminism|TestCostBackendMatchesFunctional|TestColumnStreamRunBoundaries' ./internal/core

# Full suite under the race detector: exercises the concurrent-Comm
# stress test, the shared-engine launch test, and the parallel-executor
# determinism suite (shard overlap would surface as a data race).
race:
	$(GO) test -race ./...

# Fast sanity pass over the evaluation harness (the figures run cost-only).
bench-smoke:
	$(GO) run ./cmd/pidbench -exp fig14,fusion,cluster,algo
	$(GO) run ./cmd/pidbench -exp multitenant

# Regenerate the checked-in benchmark baseline (run after an accepted,
# intentional performance change, and commit the result).
bench-json:
	$(GO) run ./cmd/pidbench -json > bench_baseline.json

# The CI benchmark-regression gate: recollect the metrics and fail on
# any >10% cost/makespan regression against bench_baseline.json.
bench-compare:
	$(GO) run ./cmd/pidbench -compare bench_baseline.json

# The CI allocation gate over the wall-clock benchmark: rerun cost_sweep,
# serve_steady, serve_lookahead and app_mix with the seed, seconds and
# GOMAXPROCS of the newest root BENCH_<n>.json and fail on allocs_per_op
# or bytes_per_op more than 2% above it.
bench-gate:
	$(GO) run ./cmd/benchgate

# A short randomized differential-testing run (fusion enabled — the
# default), the same budget CI uses. Scenarios also randomize the
# parallel executor's worker count. Then five seconds each of the parser,
# descriptor, cluster-descriptor, timeline-rollback and counted-addition
# (AddRounds) fuzz targets.
fuzz-smoke:
	$(GO) run ./cmd/pidfuzz -n 200 -seed 7
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzCollectiveCompile -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzClusterCompile -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzTimelineRollback -fuzztime 5s ./internal/cost
	$(GO) test -run '^$$' -fuzz FuzzAddRounds -fuzztime 5s ./internal/cost

# One quick pass over the wall-clock benchmark (benchmark/, the harness
# BENCHMARK.json declares): every workload runs once with its checks on.
benchmark-smoke:
	$(GO) run ./benchmark -smoke

# Profile the simulator itself: a root benchmark under the standard tool,
# CPU and heap profiles written next to the repo root. BENCH picks it:
# Fig15 (default) runs BFS on a 64k-vertex RMAT graph at Baseline and CM
# on the functional engine (one application, not all five), Fig14 the
# primitives on the cost-only backend, ColdCompileCostOnly every primitive
# × level compiled cold on a fresh cost-only 1024-PE machine (the charge
# tracing every cold compile and Auto candidate pays). Inspect with
# `go tool pprof cpu.pprof` /
# `go tool pprof -sample_index=alloc_space mem.pprof`.
BENCH ?= Fig15

profile:
	$(GO) test -run '^$$' -bench $(BENCH) -cpuprofile cpu.pprof -memprofile mem.pprof .

# Lint with staticcheck if installed (CI installs it pinned).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi

# Documentation gate: every package must carry package-level
# documentation, and every `-run` alternative here and in CI must name a
# declared test (docs_test.go enforces both); `check` runs vet separately.
checkdocs:
	$(GO) test -run 'TestPackageDocs|TestRunPatternsNameDeclaredTests' .

# Serve godoc locally if the godoc tool is installed; otherwise print
# every package's documentation with go doc.
docs:
	@if command -v godoc >/dev/null 2>&1; then \
		echo "serving http://localhost:6060/pkg/repro/"; godoc -http=:6060; \
	else \
		echo "godoc not installed (go install golang.org/x/tools/cmd/godoc@latest); printing package docs:"; \
		for p in $$($(GO) list ./...); do echo; echo "=== $$p"; $(GO) doc $$p; done; \
	fi

# The tracked size of the product: non-test Go lines per package
# (benchmark/ excluded) and in total, plus the exported-method counts of
# the widest types — the machine (core.Comm, pidcomm.Machine), the
# session (core.Tenant, which pidcomm re-exports as Comm), the cluster
# (core.Cluster) and the cluster session (core.ClusterTenant, which
# pidcomm re-exports as ClusterComm). ROADMAP wants these numbers to go
# down.
methods = $(GO) doc $(1) $(2) | grep -c '^func ([a-z]* \*$(2))'

loc:
	@total=0; for d in $$($(GO) list -f '{{.Dir}}' ./... | grep -v '/benchmark$$'); do \
		n=$$(ls $$d/*.go | grep -v '_test\.go$$' | xargs -r cat | wc -l); \
		total=$$((total + n)); \
		[ $$n -gt 0 ] && printf '%7d  %s\n' $$n .$${d#$$PWD}; \
	done; printf '%7d  total non-test Go lines\n' $$total
	@printf '%7d  exported methods on core.Comm\n' $$($(call methods,./internal/core,Comm))
	@printf '%7d  exported methods on pidcomm.Machine\n' $$($(call methods,./pidcomm,Machine))
	@printf '%7d  exported methods on core.Tenant (= pidcomm.Comm)\n' $$($(call methods,./internal/core,Tenant))
	@printf '%7d  exported methods on core.Cluster\n' $$($(call methods,./internal/core,Cluster))
	@printf '%7d  exported methods on core.ClusterTenant (= pidcomm.ClusterComm)\n' $$($(call methods,./internal/core,ClusterTenant))

# The size ratchet: internal/core + pidcomm may not grow past the
# non-test line count of the last PR that shrank them, and the five
# types above may not grow past the exported-method counts of the last PR
# that narrowed them. A shrinking PR lowers the constants to its own
# numbers; raising one needs a reason in CHANGES.md.
LOC_CEILING = 7001
COMM_METHODS_CEILING = 18
MACHINE_METHODS_CEILING = 15
TENANT_METHODS_CEILING = 15
CLUSTER_METHODS_CEILING = 7
CLUSTER_TENANT_METHODS_CEILING = 8

loc-check:
	@n=$$(ls internal/core/*.go pidcomm/*.go | grep -v '_test\.go$$' | xargs cat | wc -l); \
	if [ $$n -gt $(LOC_CEILING) ]; then \
		echo "internal/core + pidcomm have $$n non-test lines, over the ceiling of $(LOC_CEILING) (Makefile LOC_CEILING)"; exit 1; fi; \
	echo "internal/core + pidcomm: $$n non-test lines (ceiling $(LOC_CEILING))"
	@check() { if [ $$2 -gt $$3 ]; then echo "$$1 has $$2 exported methods, over the ceiling of $$3 (Makefile)"; exit 1; fi; \
		echo "$$1: $$2 exported methods (ceiling $$3)"; }; \
	check core.Comm $$($(call methods,./internal/core,Comm)) $(COMM_METHODS_CEILING) && \
	check pidcomm.Machine $$($(call methods,./pidcomm,Machine)) $(MACHINE_METHODS_CEILING) && \
	check core.Tenant $$($(call methods,./internal/core,Tenant)) $(TENANT_METHODS_CEILING) && \
	check core.Cluster $$($(call methods,./internal/core,Cluster)) $(CLUSTER_METHODS_CEILING) && \
	check core.ClusterTenant $$($(call methods,./internal/core,ClusterTenant)) $(CLUSTER_TENANT_METHODS_CEILING)
