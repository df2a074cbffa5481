# Tier-1 verification and development targets for semwebdb.

GO ?= go

# Benchmark settings for the JSON perf snapshot. 0.2s per benchmark
# keeps a full run around a minute while staying reasonably stable.
BENCHTIME ?= 0.2s
BENCH_JSON ?= BENCH_pr10.json
# The newest committed per-PR snapshot is the regression baseline.
BENCH_BASELINE ?= $(shell ls BENCH_pr*.json 2>/dev/null | sort -V | tail -1)

.PHONY: verify check fmt vet lint test test-race test-stress bench-e2e-test serve-smoke metrics-smoke repl-smoke bench bench-json bench-gate fuzz build examples

# Tier-1: must stay green (ROADMAP.md).
verify: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package: the streaming cursor, the
# HTTP layer's concurrent query/load/snapshot/compact interleavings,
# prepared-cache delta maintenance, metric scrapes racing updates and
# the replication follower loop all run here. CI runs this target.
test-race:
	$(GO) test -race -count=1 ./...

# Repeated race-detector runs of the semweb concurrency tests: writers,
# readers and paper operations racing the prepared cache, and cursors
# closed mid-stream. Interleavings vary run to run, so -count=20 gives
# the scheduler twenty chances to find what one pass misses. CI runs
# this after test-race.
test-stress:
	$(GO) test -race -count=20 -run 'Concurrent|StreamClose' ./semweb/...

# The benchmark harness is its own module (cmd/semwebbench/go.mod), so
# `go build ./...` and `go test ./...` at the root never compile it;
# this keeps the APIs it imports from drifting under it.
bench-e2e-test:
	cd cmd/semwebbench && $(GO) test ./...

# End-to-end smoke of the semwebd binary: build it, serve a temp dbdir,
# load the test data over HTTP, stream a query, hit the admin
# endpoints, SIGINT, and require a clean drain + exit 0.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 -v ./cmd/semwebd

# End-to-end smoke of the observability surface: build semwebd with
# JSON logs, pprof and a slow-query threshold, drive traffic, scrape
# /metrics, and validate the Prometheus exposition and structured logs.
metrics-smoke:
	$(GO) test -run TestMetricsSmoke -count=1 -v ./cmd/semwebd

# End-to-end smoke of WAL-shipping replication: build semwebd, run a
# leader and a -follow replica as separate processes, load through the
# leader, watch convergence on /repl/state, query both sides, and
# require clean SIGINT exits.
repl-smoke:
	$(GO) test -run TestReplSmoke -count=1 -v ./cmd/semwebd

# verify + static hygiene + the benchmark harness's own suite + the
# example programs (the only callers of several DB paper operations).
check: verify vet fmt lint bench-e2e-test examples

vet:
	$(GO) vet ./...

# Project-invariant analyzers (internal/lint via cmd/semweblint):
# mutexguard, scratchsafe, obsflush, fsyncrename, senterr, plus the
# stock vet passes (copylocks, lostcancel, unusedresult; nilness when
# golang.org/x/tools is in the module graph). See the README's
# "Linting" section for the annotation and suppression conventions.
lint:
	$(GO) run ./cmd/semweblint ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Benchmark guard: compile and smoke-run every benchmark once so
# bench_test.go can never rot silently.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# Perf trajectory snapshot: run the benchmark families and record
# name -> ns/op, B/op, allocs/op as JSON (see cmd/benchjson).
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson > $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# Benchmark regression gate: run the tracked benchmark families fresh
# and compare against the newest committed BENCH_pr*.json, failing on
# >30% regressions (see cmd/benchjson -compare for the noise floors).
# On hardware other than the baseline's, ns/op comparisons are
# meaningless — set BENCH_GATE_FLAGS=-allocs-only to gate solely on
# the machine-independent allocation counts (CI does).
BENCH_GATE_FLAGS ?=
bench-gate:
	@test -n "$(BENCH_BASELINE)" || { echo "no BENCH_pr*.json baseline found"; exit 2; }
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson > bench_fresh.json
	$(GO) run ./cmd/benchjson -compare $(BENCH_GATE_FLAGS) $(BENCH_BASELINE) bench_fresh.json

# Short fuzz pass over the parsers, the storage codecs and the
# differential delta-closure target (native Go fuzzing; seeds under
# internal/*/testdata/fuzz are always exercised by plain `make test`).
fuzz:
	$(GO) test -fuzz 'FuzzParse$$' -fuzztime 30s ./internal/ntriples/
	$(GO) test -fuzz FuzzParseLine -fuzztime 15s ./internal/ntriples/
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/turtle/
	$(GO) test -fuzz FuzzDecodeSnapshot -fuzztime 30s ./internal/persist/
	$(GO) test -fuzz FuzzReplayWAL -fuzztime 30s ./internal/persist/
	$(GO) test -fuzz FuzzReplStream -fuzztime 30s ./internal/repl/
	$(GO) test -fuzz FuzzDeltaClosure -fuzztime 30s ./internal/closure/

# Run every example program (living API documentation).
examples:
	@for e in quickstart artgallery premises normalforms containment; do \
		echo "== examples/$$e =="; \
		$(GO) run ./examples/$$e || exit 1; \
	done
