GO ?= go

# Minimum acceptable total statement coverage for `make cover`, in percent.
# Measured 81.3% when the floor was set; keep a small margin so unrelated
# refactors don't trip it.
COVER_FLOOR ?= 78

# Where `make bench` generates its design and profiles.
BENCH_DIR ?= /tmp/dpplace-bench

.PHONY: all check fmt fmt-check vet build test race fuzz-smoke cover bench \
	bench-workers bench-kernels bench-congestion bench-smoke bench-diff \
	docs-lint lint lint-github lint-selftest metrics-lint serve-smoke \
	perfbench-smoke

all: check

check: fmt-check vet build docs-lint lint metrics-lint race fuzz-smoke

# Documentation bar: every package carries a package-level doc comment and
# every exported identifier is documented (internal/tools/docslint — no
# external linter dependency).
docs-lint:
	$(GO) run ./internal/tools/docslint

# Determinism and concurrency bar: internal/tools/placelint rejects map-order
# dependence, par-closure discipline violations, wall-clock/rand reach
# (transitive, via the interprocedural facts engine), exact float comparison,
# severed error chains, allocations on //placelint:hotpath functions,
# impure callees inside par worker closures, and stale suppressions. The
# tree must be clean; safe exceptions carry //placelint:ignore <check>
# <reason>, which also clears the underlying fact for every caller.
lint:
	$(GO) run ./internal/tools/placelint

# Same gate, but emitting GitHub Actions ::error workflow commands so each
# finding annotates its line inline on the pull request. Used by the CI lint
# job; locally `make lint` is friendlier.
lint-github:
	$(GO) run ./internal/tools/placelint -github

# Metrics schema bar: the placelint metricnames check alone, run over the
# packages that register metrics. Fails on duplicate metric registration,
# non-snake_case names or labels, and names built at runtime. (Already part
# of `make lint`; this target isolates the failure for CI log clarity.)
metrics-lint:
	$(GO) run ./internal/tools/placelint -only metricnames ./internal/serve ./internal/obs/metrics ./cmd/dpplaced

# Self-test: placelint must still *catch* each violation class. Every seeded
# testdata package has to make it exit nonzero — a linter that passes its own
# tree but misses real hazards is worse than none.
lint-selftest:
	@for d in internal/tools/placelint/testdata/*/; do \
		$(GO) run ./internal/tools/placelint $$d >/dev/null 2>&1; st=$$?; \
		if [ $$st -ne 1 ]; then \
			echo "FAIL: placelint on $$d exited $$st, want 1 (violations)"; exit 1; \
		fi; \
		echo "placelint rejects $$d (as seeded)"; \
	done

# fmt rewrites; fmt-check only reports, so CI never mutates the tree.
fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# perfbench is a nested module, outside the root ./..., so it is vetted
# separately.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Total statement coverage with a floor: fails when coverage regresses below
# COVER_FLOOR%.
cover:
	$(GO) test ./... -coverprofile=coverage.out -covermode=atomic > /dev/null
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f) ? 1 : 0 }' || \
		{ echo "FAIL: coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Benchmarks plus a recorded end-to-end run: the flight recorder's run report
# lands in BENCH_*.json (the machine-readable numbers), the full JSONL trace
# next to it. BenchmarkRecorderDisabled pins the disabled-path cost at
# ns-level and zero allocations.
bench:
	$(GO) test ./internal/obs -run '^$$' -bench 'BenchmarkRecorder' -benchmem
	@mkdir -p $(BENCH_DIR)
	$(GO) run ./cmd/dpgen -name bench -out $(BENCH_DIR) -seed 7 -bits 16 \
		-units adder,regbank -random 600
	$(GO) run ./cmd/dpplace -quiet -mode structure-aware \
		-trace BENCH_structure_aware_trace.jsonl \
		-report BENCH_structure_aware.json $(BENCH_DIR)/bench.aux
	$(GO) run ./cmd/dpplace -quiet -mode baseline \
		-report BENCH_baseline.json $(BENCH_DIR)/bench.aux
	$(GO) run ./cmd/dpplace -quiet -multilevel \
		-report BENCH_multilevel.json $(BENCH_DIR)/bench.aux
	@echo "wrote BENCH_structure_aware.json, BENCH_baseline.json," \
		"BENCH_multilevel.json and BENCH_structure_aware_trace.jsonl"
	$(MAKE) bench-workers
	$(MAKE) bench-kernels
	cp BENCH_kernels_new.json BENCH_kernels.json
	$(MAKE) bench-congestion
	cp BENCH_congestion_new.json BENCH_congestion.json

# SoA solver-kernel microbenchmarks: measure the wirelength and density
# kernels and summarize their ns/op table to BENCH_kernels_new.json
# (dpplace-kernel-bench/v1). `make bench` promotes it to the committed
# BENCH_kernels.json baseline; `make bench-smoke` diffs against that
# baseline instead, failing on a >10% kernel regression.
bench-kernels:
	$(GO) test -run '^$$' -bench 'BenchmarkWAGradSoA' -benchmem \
		./internal/wirelength | tee BENCH_kernels.txt
	$(GO) test -run '^$$' -bench 'BenchmarkDensitySoA' -benchmem \
		./internal/density | tee -a BENCH_kernels.txt
	$(GO) run ./internal/tools/benchsum -kernels BENCH_kernels.txt \
		BENCH_kernels_new.json

# Routability bench: place the bench design with the congestion feedback
# loop on and distill the routed-overflow/HPWL numbers into
# BENCH_congestion_new.json (dpplace-congestion-bench/v1). `make bench`
# promotes it to the committed BENCH_congestion.json baseline;
# `make bench-smoke` diffs against that baseline instead, failing when
# routed overflow regressed >10% at equal-or-better HPWL.
bench-congestion:
	@mkdir -p $(BENCH_DIR)
	$(GO) run ./cmd/dpgen -name bench -out $(BENCH_DIR) -seed 7 -bits 16 \
		-units adder,regbank -random 600
	$(GO) run ./cmd/dpplace -quiet -congestion \
		-report $(BENCH_DIR)/BENCH_congestion_report.json $(BENCH_DIR)/bench.aux
	$(GO) run ./internal/tools/benchsum -congestion \
		$(BENCH_DIR)/BENCH_congestion_report.json BENCH_congestion_new.json

# Worker-count sweep: place the same design at -workers 1,2,4,8, record one
# run report each, then let benchsum fill parallel_speedup (global-stage
# wall clock relative to the workers=1 run) into every report. Placements
# are bit-identical across the sweep, so only the timings move.
bench-workers:
	@mkdir -p $(BENCH_DIR)
	@for w in 1 2 4 8; do \
		$(GO) run ./cmd/dpplace -quiet -workers $$w \
			-report BENCH_workers_$$w.json $(BENCH_DIR)/bench.aux || exit 1; \
	done
	$(GO) run ./internal/tools/benchsum BENCH_workers_1.json BENCH_workers_2.json \
		BENCH_workers_4.json BENCH_workers_8.json

# One iteration of every benchmark: catches bit-rot in benchmark code
# without paying for real measurements. CI runs this on every push. The
# kernel microbenchmarks additionally run for real and gate against the
# committed baseline (>10% ns/op regression on any kernel fails).
bench-smoke:
	$(GO) test ./... -run '^$$' -bench . -benchtime=1x
	$(MAKE) bench-kernels
	$(GO) run ./internal/tools/benchsum -diff BENCH_kernels.json \
		BENCH_kernels_new.json
	$(MAKE) bench-congestion
	$(GO) run ./internal/tools/benchsum -diff BENCH_congestion.json \
		BENCH_congestion_new.json

# Regression gate between two recorded runs: compares OLD and NEW run
# reports (dpplace-run-report/v1, e.g. two BENCH_structure_aware.json from
# different commits) stage by stage and fails when NEW's total stage time
# exceeds OLD's by more than 10%.
bench-diff:
	@test -n "$(OLD)" -a -n "$(NEW)" || \
		{ echo "usage: make bench-diff OLD=old.json NEW=new.json"; exit 2; }
	$(GO) run ./internal/tools/benchsum -diff $(OLD) $(NEW)

# Short smoke run of each native fuzz target (go allows one -fuzz per
# invocation, so they run sequentially).
fuzz-smoke:
	$(GO) test ./internal/bookshelf -run '^$$' -fuzz '^FuzzReadAux$$' -fuzztime=10s
	$(GO) test ./internal/bookshelf -run '^$$' -fuzz '^FuzzReadNodes$$' -fuzztime=10s
	$(GO) test ./internal/bookshelf -run '^$$' -fuzz '^FuzzReadNets$$' -fuzztime=10s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzDecodeSpec$$' -fuzztime=10s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzBuildDesignAux$$' -fuzztime=10s

# Daemon smoke: build dpplaced and run it through two scripted lifetimes.
# Phase 1 places an example netlist end to end over HTTP, validates the
# run-report (metrics_snapshot included) and placement artifacts, scrapes
# /metrics for the core series (two idle scrapes must be byte-identical),
# then SIGTERMs and asserts a clean drain. Phase 2 reboots on the same data
# dir with a short -drain-timeout, SIGTERMs mid-job, and asserts /readyz
# flips to 503 before the job finishes, /metrics serves through the drain,
# and the forced drain exits 3.
serve-smoke:
	@mkdir -p /tmp/dpplaced-smoke
	$(GO) build -o /tmp/dpplaced-smoke/dpplaced ./cmd/dpplaced
	$(GO) run ./internal/tools/servesmoke -bin /tmp/dpplaced-smoke/dpplaced \
		-data /tmp/dpplaced-smoke/data

# Benchmark smoke: the nested perfbench module (outside the root ./...) runs
# every workload at tiny sizes, including daemon jobs checked byte-identical
# against an in-process reference.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...
