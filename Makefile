# Development targets; CI (.github/workflows/ci.yml) runs the same
# commands, so a green `make check` locally means a green CI run.

GO ?= go

# Benchmarks tracked in the BENCH_*.json perf trajectory.
BENCH_TRACKED = BenchmarkParallelPascal|BenchmarkHotPath|BenchmarkPoolReuse|BenchmarkFragmentCache|BenchmarkSustainedLoad|BenchmarkFleet|BenchmarkAdaptive|BenchmarkWarmRestart
BENCH_BASELINE = BENCH_PR10.json

.PHONY: all build test race bench bench-parallel bench-json benchstat bench-gate fuzz lint fmt check figures clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-checked tests: required before touching internal/parallel.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -run 'XXX' -bench . -benchtime 1x ./...

# Real-multicore speedup benchmark only (paper workload, 1/2/4/8 workers).
bench-parallel:
	$(GO) test -run 'XXX' -bench BenchmarkParallelPascal ./...

# Regenerate the committed benchmark baseline for this PR.
bench-json:
	$(GO) run ./cmd/benchjson -bench '$(BENCH_TRACKED)' -benchtime 2s -o $(BENCH_BASELINE)

# Before/after comparison against the committed baseline: measures the
# tracked suite into a scratch file and diffs it. Uses the offline
# benchstat substitute built into cmd/benchjson, so it needs no
# external tools; if you have golang.org/x/perf benchstat installed,
# raw `go test -bench` output still works with it as usual.
benchstat:
	$(GO) run ./cmd/benchjson -bench '$(BENCH_TRACKED)' -benchtime 2s -o /tmp/bench-new.json
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) /tmp/bench-new.json

# The CI regression gate, runnable locally: fails on a >25%% ns/op
# regression against the committed baseline or any allocs/op gained on
# a zero-alloc benchmark.
bench-gate:
	$(GO) run ./cmd/benchjson -bench '$(BENCH_TRACKED)' -benchtime 2s -o /tmp/bench-new.json
	$(GO) run ./cmd/benchjson -compare -fail-over 25 $(BENCH_BASELINE) /tmp/bench-new.json

# Short-budget native fuzzing of the tree-hash, tree-codec,
# Pascal-parser, planning, ship-codec, attribute-codec, disk-recording,
# CAS-frame, fleet-worker RPC, fleet-frame, peephole and static-frame
# invariants.
fuzz:
	$(GO) test ./internal/tree -run XXX -fuzz FuzzHash -fuzztime 30s
	$(GO) test ./internal/tree -run XXX -fuzz FuzzDecode -fuzztime 15s
	$(GO) test ./internal/pascal -run XXX -fuzz FuzzParse -fuzztime 15s
	$(GO) test ./internal/parallel -run XXX -fuzz FuzzPlan -fuzztime 15s
	$(GO) test ./internal/rope -run XXX -fuzz FuzzShipCodec -fuzztime 15s
	$(GO) test ./internal/frame -run XXX -fuzz FuzzCodecs -fuzztime 15s
	$(GO) test ./internal/parallel -run XXX -fuzz FuzzDecodeEntry -fuzztime 15s
	$(GO) test ./internal/cas -run XXX -fuzz FuzzDecodeFile -fuzztime 15s
	$(GO) test ./internal/fleet -run XXX -fuzz FuzzWorkerRPC -fuzztime 15s
	$(GO) test ./internal/fleet -run XXX -fuzz FuzzFleetFrames -fuzztime 15s
	$(GO) test ./internal/vax -run XXX -fuzz FuzzPeephole -fuzztime 15s
	$(GO) test ./internal/eval -run XXX -fuzz FuzzStaticFrames -fuzztime 15s

# vet + gofmt + the repo's own analyzer suite (cmd/paglint:
# determinism, lockdiscipline, sealedio). staticcheck and govulncheck
# run when installed (CI installs them; the targets stay usable on a
# machine without network access).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/paglint ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping"; fi

fmt:
	gofmt -w .

# Everything CI checks, in CI's order.
check: build lint race

# Regenerate every figure and table of the paper (plus Figure 8, the
# real-multicore measurement).
figures:
	$(GO) run ./cmd/benchfig

clean:
	$(GO) clean ./...
