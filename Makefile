GO ?= go

.PHONY: all build test vet fmt-check race check bench bench-smoke bench-compare stream-bench fmt-compat fuzz-smoke chaos chaos-race baseline metrics-smoke perfbench-vet lines

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail when any Go file (perfbench included) is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Race-detector pass over the library packages and the commands (the
# parallel harness, the interned decode paths and the drive loop behind
# rostracer run under concurrency).
race:
	$(GO) test -race ./internal/... ./cmd/...

check: fmt-check vet build test race metrics-smoke perfbench-vet

# Vet the end-to-end benchmark against the library. perfbench is a nested
# module (it replaces the root module with ../), so `go build ./...` at
# the root never compiles it; this catches a library change that breaks
# an API the benchmark imports.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

# Go line counts, production (*.go) and tests (*_test.go) separately,
# perfbench excluded: every tracked or new, not ignored, file in the
# working tree.
lines:
	@files="$$(git ls-files --cached --others --exclude-standard -- '*.go' ':!:perfbench/*')"; \
	echo "production Go: $$(echo "$$files" | grep -v '_test\.go$$' | xargs cat 2>/dev/null | wc -l) lines"; \
	echo "test Go:       $$(echo "$$files" | grep '_test\.go$$' | xargs cat 2>/dev/null | wc -l) lines"

# /metrics endpoint smoke: a live short session served over real HTTP and
# scraped concurrently with the drive loop, asserting the Prometheus
# exposition parses and carries the per-topic latency histograms and ring
# accounting. (A test rather than a curl script: the simulator outpaces
# the wall clock, so the binary exits before a shell could scrape it.)
metrics-smoke:
	$(GO) test -run TestMetricsEndpointSmoke -count=1 ./internal/harness

# Full benchmark suite with allocation reporting.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One-iteration structural smoke pass (used by CI).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x .

# Streaming-pipeline microbenchmarks: the ring->sink drain, alone and
# into the online model builder; Algorithm 1 over a collected trace; and
# the trace-store read and query paths, with allocation reporting.
stream-bench:
	$(GO) test -run '^$$' -bench 'Bundle_|Alg1_|Store' -benchmem .

# Run the suite and diff against BENCH_baseline.json: fails on >15% ns/op
# regression of the named hot-path benchmarks (scripts/bench_compare.py).
# -count=5 with min-of-N selection in bench_to_json keeps scheduler noise
# on a loaded machine from tripping the gate: five samples spread over
# the suite's runtime ride out contention bursts that min-of-3 caught.
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=200ms -count=5 . | python3 scripts/bench_to_json.py > /tmp/bench_new.json
	python3 scripts/bench_compare.py BENCH_baseline.json /tmp/bench_new.json

# Cross-version .rtrc compatibility suite (used by CI): v1 <-> v2 decoded
# equivalence at codec and store level, the v2 crash-recovery truncation
# sweep, v2 damage classification, indexed-query correctness against the
# sequential reference (also on damaged segments), and the v1/v2 fuzz
# equivalence seeds.
fmt-compat:
	$(GO) test -run 'TestFormatCompat|TestSegmentWriterFormatKnob|TestSegmentCrashRecovery|TestSalvage|TestFsck|TestQuerySession|FuzzV1V2Equivalence|FuzzV2Cursor|FuzzQueryMatchesStream' -count=1 ./internal/trace

# Short coverage-guided fuzz passes (used by CI): the segment cursor
# (with its re-encode round trip), salvage over damaged segments, a
# query as a filtered stream, and the raw vs decoded equivalence of
# random programs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFileCursor -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzSalvage -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzV2Cursor -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz 'FuzzV1V2Equivalence$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzQueryMatchesStream -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzDecodeEquivalence -fuzztime 10s ./internal/ebpf

# Fault-injection chaos run: the full drain -> store -> synthesis
# pipeline under a seeded fault plan (transport drops, forced ring
# overruns, scripted disk failures) with exact loss accounting and a
# salvage pass over a deterministically damaged store.
chaos:
	$(GO) run ./cmd/experiments -run chaos -runs 1 -duration 5s

# The same chaos run under the race detector (via its harness test).
chaos-race:
	$(GO) test -race -run TestChaosExperiment -count=1 ./internal/harness

# Regenerate the BENCH_baseline.json snapshot future perf PRs compare
# against.
baseline:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=200ms -count=5 . | python3 scripts/bench_to_json.py > BENCH_baseline.json
	@echo wrote BENCH_baseline.json
