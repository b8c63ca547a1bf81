# Repro of "Hadar: Heterogeneity-Aware Optimization-Based Online
# Scheduling for Deep Learning Cluster".
#
# `make check` is the single local entry point and the gate CI runs:
# build, vet, repolint (the repository's domain-aware static-analysis
# suite, see internal/lint), the test suite, the benchmark module's vet
# and tests, and per-package coverage floors. CI additionally runs the suite under the race detector (the
# `race` target) as its own job; run it locally before touching the
# control plane.

GO ?= go

.PHONY: check build vet lint lint-fast lint-deep test bench-module race race-short stress bench-smoke bench profile service-smoke fed-smoke experiments chaos crash-smoke crash-chaos fuzz-smoke fuzz-sync cover

check: build vet lint test bench-module cover

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs go vet plus repolint, the in-tree static-analysis suite
# enforcing determinism (no wall clock, no global rand, no map-order
# dependence in scheduler-path packages), numeric safety, concurrency
# hygiene, and API discipline — in two stages. lint-fast is the cheap
# per-package syntactic rules; lint-deep is the interprocedural pass
# (snapshot escape, goroutine ownership, digest taint, WAL ordering)
# over the whole-module callgraph, run with per-analyzer timing and a
# wall-time budget so it cannot silently blow up CI. `go run
# ./cmd/repolint -rules` lists the rule catalogue; suppress
# site-by-site with `//lint:ignore <rule> <reason>`.
LINTBUDGET ?= 90s
lint: lint-fast lint-deep

lint-fast: vet
	$(GO) run ./cmd/repolint -set fast .

lint-deep:
	$(GO) run ./cmd/repolint -set deep -verbose -budget $(LINTBUDGET) .

test:
	$(GO) test ./...

# bench-module vets and tests cmd/hadarbench, the repository
# benchmark. It is a Go module of its own (replace repro => ../..), so
# the root `./...` patterns never reach it; this keeps an API change in
# the root module from breaking the benchmark's build unseen.
bench-module:
	$(GO) -C cmd/hadarbench vet ./...
	$(GO) -C cmd/hadarbench test ./...

race:
	$(GO) test -race ./...

# race-short runs the concurrent control plane — scheduler service,
# federation (shared clock + copy-on-publish snapshots), web API, load
# generator, live RPC cluster — plus hadard's flag-validation table
# under the race detector in short mode.
# The quick local gate before touching any of those packages; `race` is
# the full-suite version CI runs.
race-short:
	$(GO) test -race -short ./internal/federation ./internal/service ./internal/web ./internal/loadgen ./internal/rpccluster ./cmd/hadard

# stress re-runs the live control plane's suite several times under the
# race detector: the heartbeat/reconnect/chaos paths are the only truly
# concurrent code, and their races only show up across repeated runs.
stress:
	$(GO) test -race -count=5 ./internal/rpccluster

# bench-smoke runs the allocation-state microbenchmarks and the small
# (60/250-node) scalability points once each, then gates the result:
# benchjson fails if any required op is missing from the output or if
# the DP round regressed more than 25% in ns/op against the committed
# BENCH_sim.json baseline. A canary that the hot path still runs at its
# recorded speed, not a measurement.
bench-smoke:
	$(GO) test -run='^$$' \
		-bench='BenchmarkGreedyAllocate$$|BenchmarkScaleRound/(prop|fixed)/nodes=(60|250)$$' \
		-benchtime=1x -benchmem -short . \
		| $(GO) run ./cmd/benchjson -o /tmp/bench-smoke.json \
			-require 'GreedyAllocate,ScaleRound/prop/nodes=60,ScaleRound/prop/nodes=250,ScaleRound/fixed/nodes=60,ScaleRound/fixed/nodes=250'
	$(GO) test -run='^$$' -bench='BenchmarkDPAllocate$$' -benchtime=200x -benchmem . \
		| $(GO) run ./cmd/benchjson -o /tmp/bench-smoke-dp.json \
			-require DPAllocate -baseline BENCH_sim.json -regress-op DPAllocate -regress-pct 25

# bench takes real measurements of the scheduling hot path — the DP
# round, the greedy round, the full 480-job simulation, a single engine
# step, the federation step (1/4/16 members), and the node-count
# scalability sweep (60/250/1k/5k nodes,
# proportional and fixed-backlog job series) — and records them as
# BENCH_sim.json (op, ns/op, allocs/op) via cmd/benchjson for machine
# comparison across commits. The ScaleRound points are also merged into
# results/fig7_scalability.csv alongside the exporter's jobs-sweep
# series.
bench:
	$(GO) test -run='^$$' -bench='BenchmarkDPAllocate$$|BenchmarkGreedyAllocate$$|BenchmarkSimulate480Jobs$$|BenchmarkEngineStep$$|BenchmarkFederationStep$$|BenchmarkScaleRound' -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_sim.json -scale-csv results/fig7_scalability.csv

# profile captures CPU, heap, and execution-trace profiles of a
# paper-scale hadarsim run into profiles/ for go tool pprof / trace.
profile:
	mkdir -p profiles
	$(GO) run ./cmd/hadarsim -jobs 480 \
		-cpuprofile profiles/cpu.out -memprofile profiles/mem.out -exectrace profiles/trace.out
	@echo "profiles written: go tool pprof profiles/cpu.out | go tool trace profiles/trace.out"

# service-smoke boots the long-lived scheduler service (cmd/hadard) in
# smoke mode under the race detector: loadgen drives a seeded bursty
# workload through the bounded admission queue in closed loop, and the
# run fails unless every accepted job completes with zero invariant
# violations inside the budget.
service-smoke:
	$(GO) run -race ./cmd/hadard -smoke -smoke-jobs 80 -smoke-model bursty -smoke-seed 1 -smoke-timeout 120s

# fed-smoke is the federated twin of service-smoke: hadard boots three
# member clusters behind the least-queue router, loadgen drives the same
# closed-loop bursty workload through the shared front door, and the run
# fails unless every accepted job completes across the members with
# federation invariants (single ownership, iteration conservation) clean.
fed-smoke:
	$(GO) run -race ./cmd/hadard -clusters 3 -router least-queue -smoke -smoke-jobs 60 -smoke-model bursty -smoke-seed 1 -smoke-timeout 180s

# fuzz-smoke gives every fuzz target a short budget. Go fuzzes one
# target per invocation, so each gets its own run; FUZZTIME=2m for a
# deeper local session. fuzz-sync guards the list: every Fuzz function
# in the tree must either be wired in below or live under an excluded
# path. The analyzer corpora (internal/lint/testdata) are excluded —
# they are compile-only lint fixtures, and a corpus file is free to
# define FuzzXxx shapes for the analyzers to chew on without becoming
# a real fuzz target.
FUZZ_EXCLUDES := internal/lint/testdata
fuzz-sync:
	@fail=0; \
	for src in $$(grep -rl '^func Fuzz' --include='*.go' internal cmd 2>/dev/null); do \
		skip=0; \
		for ex in $(FUZZ_EXCLUDES); do case $$src in $$ex*) skip=1;; esac; done; \
		[ $$skip -eq 1 ] && continue; \
		for fn in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$src | sed 's/^func //'); do \
			grep -q "$$fn" Makefile || { echo "fuzz-sync: $$fn ($$src) is not wired into fuzz-smoke; add it or extend FUZZ_EXCLUDES"; fail=1; }; \
		done; \
	done; \
	exit $$fail

FUZZTIME ?= 10s
fuzz-smoke: fuzz-sync
	$(GO) test -run='^$$' -fuzz='^FuzzSolve$$' -fuzztime=$(FUZZTIME) ./internal/lp
	$(GO) test -run='^$$' -fuzz='^FuzzReadPhillyCSV$$' -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzReadTraceJSON$$' -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzStateTransactions$$' -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz='^FuzzSimRun$$' -fuzztime=$(FUZZTIME) ./internal/sim

# cover prints per-package statement coverage and enforces floors on
# the packages the correctness story leans on: the Hadar core, the
# simulator, and the invariant oracle itself. Floors sit a few points
# under current coverage so they flag erosion, not noise.
cover:
	@out="$$($(GO) test -cover ./...)" || { printf '%s\n' "$$out"; exit 1; }; \
	printf '%s\n' "$$out"; \
	printf '%s\n' "$$out" | awk ' \
		{ floor = 0 } \
		$$2 == "repro/internal/core"      { floor = 85 } \
		$$2 == "repro/internal/sim"       { floor = 88 } \
		$$2 == "repro/internal/invariant" { floor = 90 } \
		floor > 0 { \
			pct = 0; \
			for (i = 1; i <= NF; i++) if ($$i == "coverage:") pct = $$(i+1) + 0; \
			if (pct < floor) { printf "FAIL coverage floor: %s at %s%% (floor %s%%)\n", $$2, pct, floor; bad = 1 } \
			else { printf "coverage floor ok: %s at %s%% (floor %s%%)\n", $$2, pct, floor } \
		} \
		END { exit bad }'

# experiments regenerates the paper's tables and figures at full scale.
experiments:
	$(GO) run ./cmd/experiments -all

# chaos sweeps the fault-injection harness over a seed matrix: every
# seed runs the live control plane under RPC drops, injected latency,
# and a worker crash + restart, and must still complete every job.
chaos:
	$(GO) test -race -run 'TestChaosMatrix' -count=1 ./internal/rpccluster -args -chaosseeds=5

# crash-smoke is the CI-sized kill/restart loop for the write-ahead
# journal: a race-instrumented hadard is SIGKILLed (and torn mid-append
# via the crash failpoint) at seeded points, restarted with -recover,
# and must lose no acknowledged job, admit no duplicate, and replay to
# byte-identical per-round schedule digests.
crash-smoke:
	$(GO) build -race -o bin/hadard-race ./cmd/hadard
	$(GO) run ./cmd/crashchaos -hadard bin/hadard-race -seeds 4 -jobs 24 -timeout 120s

# crash-chaos is the full sweep: >= 20 seeds, each killing the server
# once or twice at a seed-derived point before finishing cleanly.
crash-chaos:
	$(GO) build -o bin/hadard ./cmd/hadard
	$(GO) run ./cmd/crashchaos -hadard bin/hadard -seeds 20 -jobs 32 -timeout 120s
