GO ?= go

# Where obs-smoke and bench-compare leave their outputs; CI uploads
# this directory as a build artifact.
ARTIFACTS ?= artifacts

.PHONY: all check vet lint lint-json build test race race-concurrency bench bench-json bench-compare obs-smoke chaos overlap-soak loadtest telemetry-smoke clean

all: check

# The full local gate: what CI runs, in order.
check: vet lint build race bench obs-smoke chaos overlap-soak loadtest telemetry-smoke bench-compare

# gofmt gate, then go vet. gofmt -l lists every Go file it would
# rewrite; any output fails the target. Dot-directories (the
# benchmark's .bench_build cache) are skipped.
vet:
	@unformatted=$$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

# Project-specific static analysis (internal/lint via cmd/utlblint):
# the five per-file rules (determinism, obs-safety, units-hygiene,
# goroutine-discipline, printf-purity; DESIGN.md §9) plus the four
# summary-based interprocedural rules (lockdiscipline, atomichygiene,
# allocstatic, staleignore; DESIGN.md §14). Blocking in CI. Timing
# budget: the whole run — compile included — must finish inside 60s
# on the 1-CPU CI container (a warm run takes well under a second;
# the timeout is the canary for an accidental fixpoint blow-up).
lint:
	timeout 60 $(GO) run ./cmd/utlblint ./...

# Machine-readable findings for CI annotations. The redirect (not a
# pipe) preserves utlblint's exit status, so the artifact exists even
# when the gate fails — that is exactly when it is wanted.
lint-json:
	mkdir -p $(ARTIFACTS)
	timeout 60 $(GO) run ./cmd/utlblint -json ./... > $(ARTIFACTS)/lint.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused -race pass over the paths the lockdiscipline rule reasons
# about: the sharded translation service, the telemetry fold/trace
# paths and the serve single-flight/runMu paths. A subset of `race`,
# kept separate so the lint job can run it quickly next to the static
# analysis it backstops.
race-concurrency:
	$(GO) test -race -count=1 ./internal/telemetry ./internal/xlate ./internal/serve

# Short benchmark smoke: one iteration of each tracked benchmark, just
# to prove they still compile and run. Real numbers: see BENCH_baseline.json.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulateUTLB|BenchmarkSimulateInterrupt|BenchmarkSimulateBulkBatch|BenchmarkTraceGen$$|BenchmarkRunAll' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkClassifier|BenchmarkSimRun' -benchtime 1x -benchmem ./internal/sim

# Regenerate the machine-readable numbers for BENCH_pr6.json.
bench-json:
	$(GO) run ./cmd/benchjson

# Bench-regression gate: record fresh numbers and compare them against
# the committed baseline. Blocking in CI: the ns/op threshold absorbs
# shared-runner noise, and the SimRun allocation budget is exact —
# allocs/op is machine-independent, so any increase is a real leak
# back onto the hot path (BENCH_pr6.json carries the budget in its
# allocs_gate field).
bench-compare:
	mkdir -p $(ARTIFACTS)
	$(GO) run ./cmd/benchjson > $(ARTIFACTS)/bench-fresh.json
	$(GO) run ./cmd/benchjson -compare BENCH_pr6.json $(ARTIFACTS)/bench-fresh.json

# Observability smoke: the exporter golden-file tests (any drift in the
# Chrome-trace, Prometheus or analysis output fails the diff), then an
# end-to-end recorded run through the CLI, checked for determinism
# across sequential and parallel execution, and fed back through
# traceinfo. Artifacts stay in $(ARTIFACTS)/obs-smoke so CI can upload
# the trace, metrics and analysis for inspection.
obs-smoke:
	$(GO) test ./internal/obs ./internal/obs/analyze
	rm -rf $(ARTIFACTS)/obs-smoke && mkdir -p $(ARTIFACTS)/obs-smoke
	$(GO) run ./cmd/utlbsim -exp t6 -scale 0.05 -parallel 1 \
		-trace-out $(ARTIFACTS)/obs-smoke/run1.json -metrics-out $(ARTIFACTS)/obs-smoke/m1.txt \
		-analyze-out $(ARTIFACTS)/obs-smoke/analyze1.json >/dev/null
	$(GO) run ./cmd/utlbsim -exp t6 -scale 0.05 -parallel 8 \
		-trace-out $(ARTIFACTS)/obs-smoke/run8.json -metrics-out $(ARTIFACTS)/obs-smoke/m8.txt \
		-analyze-out $(ARTIFACTS)/obs-smoke/analyze8.json >/dev/null
	diff $(ARTIFACTS)/obs-smoke/run1.json $(ARTIFACTS)/obs-smoke/run8.json
	diff $(ARTIFACTS)/obs-smoke/m1.txt $(ARTIFACTS)/obs-smoke/m8.txt
	diff $(ARTIFACTS)/obs-smoke/analyze1.json $(ARTIFACTS)/obs-smoke/analyze8.json
	$(GO) run ./cmd/traceinfo -events $(ARTIFACTS)/obs-smoke/run1.json | head -5

# Chaos soak: the fault-injection sweep at two fault seeds, each run
# sequentially and at width 8, diffed byte-identical — deterministic
# fault schedules are what keep graceful-degradation results
# reproducible (DESIGN.md §10).
chaos:
	rm -rf $(ARTIFACTS)/chaos && mkdir -p $(ARTIFACTS)/chaos
	for seed in 7 1998; do \
		$(GO) run ./cmd/utlbsim -exp chaos -scale 0.5 -fault-seed $$seed -parallel 1 > $(ARTIFACTS)/chaos/s$$seed-p1.txt && \
		$(GO) run ./cmd/utlbsim -exp chaos -scale 0.5 -fault-seed $$seed -parallel 8 > $(ARTIFACTS)/chaos/s$$seed-p8.txt && \
		diff $(ARTIFACTS)/chaos/s$$seed-p1.txt $(ARTIFACTS)/chaos/s$$seed-p8.txt || exit 1; \
	done
	@echo "chaos: byte-identical at widths 1 and 8 for both fault seeds"

# Overlap soak: the discrete-event engine's determinism gate, shaped
# like the chaos soak — the overlap experiment (sequential baseline +
# engine at three DMA pool widths) at two seeds, each run sequentially
# and at width 8, diffed byte-identical. The event kernel's (time, seq)
# dispatch order is what makes this hold (DESIGN.md §15).
overlap-soak:
	rm -rf $(ARTIFACTS)/overlap && mkdir -p $(ARTIFACTS)/overlap
	for seed in 7 1998; do \
		$(GO) run ./cmd/utlbsim -exp overlap -scale 0.3 -seed $$seed -parallel 1 > $(ARTIFACTS)/overlap/s$$seed-p1.txt && \
		$(GO) run ./cmd/utlbsim -exp overlap -scale 0.3 -seed $$seed -parallel 8 > $(ARTIFACTS)/overlap/s$$seed-p8.txt && \
		diff $(ARTIFACTS)/overlap/s$$seed-p1.txt $(ARTIFACTS)/overlap/s$$seed-p8.txt || exit 1; \
	done
	@echo "overlap: byte-identical at widths 1 and 8 for both seeds"

# Load-test smoke: a short utlbload run against an in-process serve
# instance (cmd/utlbload's TestLoad* drive the real client path end to
# end and assert nonzero lookups/sec), plus the translation service's
# own concurrency suites — all under -race. A recorded full run lives
# in BENCH_load.json; render it with `go run ./cmd/benchjson -load`.
loadtest:
	$(GO) test -race -run 'TestLoad' ./cmd/utlbload
	$(GO) test -race ./internal/xlate ./internal/serve

# Live-telemetry smoke: the window-ring/SLO/sampling unit suite and the
# serve-level live-endpoint tests under -race, plus the hot-path
# allocation budgets for the translation service (telemetry disabled
# must stay at zero allocs; always-sampled stays inside its bound).
# DESIGN.md §13 documents the mechanism.
telemetry-smoke:
	$(GO) test -race ./internal/telemetry
	$(GO) test -race -run 'TestLive|TestTelemetry|TestXlate' ./internal/serve ./internal/xlate
	$(GO) test -run 'TestXlateLookupAllocBudget' .

clean:
	$(GO) clean ./...
