GO ?= go

.PHONY: all build test race vet vet-json size lint fuzz chaos bench bench-core bench-batch clean

# Repetitions per benchmark for bench-core; raise for tighter statistics.
BENCH_COUNT ?= 5

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet runs the stock toolchain checks plus the repo's own analyzer suite
# (floatcmp, errdrop and two concurrency analyzers; copmecs-vet -list):
# the full suite over production code, and the concurrency analyzers again
# with _test.go files loaded (test goroutine storms hit the same lock-
# discipline bugs).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/copmecs-vet ./...
	$(GO) run ./cmd/copmecs-vet -tests -analyzers lockorder,unlockpath ./...

# vet-json regenerates results/VET.json, the tracked machine-readable
# report; CI diffs it so any new finding (or count drift) fails the build.
vet-json:
	@mkdir -p results
	@$(GO) run ./cmd/copmecs-vet -json ./... > results/VET.json; \
		st=$$?; cat results/VET.json; exit $$st

# size regenerates results/SIZE.json: non-test Go lines per package under
# internal/ and cmd/ (test lines reported beside them) plus totals. CI diffs
# it like VET.json, so "least code" has a committed trajectory.
size:
	@./scripts/size.sh > results/SIZE.json; cat results/SIZE.json

# lint is vet plus a formatting gate; it fails if any file needs gofmt.
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# fuzz gives the binary codec, the one-pass JSON scanner's shapes (graph,
# /v1/solve body, /v1/mutate body, each held to encoding/json) and the
# serving-path request decoder a short randomized shake; CI runs the seed
# corpus via plain `go test`, this target digs deeper locally.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=30s ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzGraphJSONMatchesStdlib -fuzztime=30s ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzDeltaPatch -fuzztime=30s ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzDecodeSolveRequest -fuzztime=30s ./internal/serve/
	$(GO) test -run=NONE -fuzz=FuzzSolveRequestMatchesStdlib -fuzztime=30s ./internal/serve/
	$(GO) test -run=NONE -fuzz=FuzzMutateRequestMatchesStdlib -fuzztime=30s ./internal/serve/
	$(GO) test -run=NONE -fuzz=FuzzJournalReplay -fuzztime=30s ./internal/durable/

# bench runs every benchmark in the repo and distils the serving-path
# microbenchmark numbers into results/BENCH_micro.json for cross-commit
# comparison.
bench:
	@mkdir -p results
	$(GO) test -run=NONE -bench=. -benchmem ./... | tee results/bench.txt
	@awk 'BEGIN { print "{"; n = 0 } \
	/^BenchmarkServe/ { \
		if (n++) printf ",\n"; \
		split($$1, name, "-"); \
		printf "  \"%s\": {\"iterations\": %s, \"ns_per_op\": %s}", name[1], $$2, $$3 \
	} \
	END { if (n) printf "\n"; print "}" }' results/bench.txt > results/BENCH_micro.json
	@echo "wrote results/BENCH_micro.json"; cat results/BENCH_micro.json

# bench-core runs the solve hot-path benchmarks the perf CI gate watches —
# the Figure 9 solve, Table I compression, the steady-state allocation
# budget, the fused batch solver (looped vs fused throughput), the
# incremental re-solve (chained 1% edge-churn deltas vs cold solves),
# internal/eigen's dense Fiedler kernel
# against its Jacobi oracle and its Sturm bisection against the QL test
# oracle (the pass it replaced), internal/lpa's round loop against its
# all-rounds reference, internal/graph's one-pass JSON decode against the
# encoding/json path it falls back to and internal/serve's one-pass request
# decode against its decodeStrict fallback (all five interleaved);
# scripts/perf_gate.sh holds the ratio floors. It distils the mean
# ns/op, B/op, allocs/op and, where reported, graphs/sec and speedup_x (or
# decode_x, request_decode_x) per benchmark into results/BENCH_core.json. The
# raw text lands in results/bench_core.txt; regenerate the committed
# regression baseline with
#   make bench-core && cp results/bench_core.txt results/bench_core_baseline.txt
bench-core:
	@mkdir -p results
	$(GO) test -run=NONE -benchmem -count=$(BENCH_COUNT) \
		-bench='^BenchmarkFig9RunningTime/ours-serial/n=1000$$|^BenchmarkTable1Compression/n=1000$$|^BenchmarkSolveAllocs$$|^BenchmarkBatchSolveSmall$$|^BenchmarkIncrementalResolve$$|^BenchmarkDenseFiedlerSpeedup$$|^BenchmarkSturmSpeedup$$|^BenchmarkLPARoundsSpeedup$$|^BenchmarkGraphUnmarshalSpeedup$$|^BenchmarkSolveRequestDecodeSpeedup$$' \
		. ./internal/eigen/ ./internal/lpa/ ./internal/graph/ ./internal/serve/ | tee results/bench_core.txt
	@awk 'BEGIN { print "{"; n = 0 } \
	/^Benchmark/ { \
		name = $$1; sub(/-[0-9]+$$/, "", name); \
		for (i = 2; i <= NF; i++) { \
			if ($$i == "ns/op") sns[name] += $$(i-1); \
			else if ($$i == "B/op") sb[name] += $$(i-1); \
			else if ($$i == "allocs/op") sa[name] += $$(i-1); \
			else if ($$i == "graphs/sec") sg[name] += $$(i-1); \
			else if ($$i == "speedup_x" || $$i == "decode_x" || $$i == "request_decode_x") sx[name] += $$(i-1); \
		} \
		if (!(name in seen)) order[n++] = name; \
		seen[name]++; \
	} \
	END { for (j = 0; j < n; j++) { k = order[j]; c = seen[k]; \
		printf "  \"%s\": {\"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.1f", \
			k, sns[k]/c, sb[k]/c, sa[k]/c; \
		if (k in sg) printf ", \"graphs_per_sec\": %.0f", sg[k]/c; \
		if (k in sx) printf ", \"speedup_x\": %.3f", sx[k]/c; \
		printf "}%s\n", (j < n - 1 ? "," : "") } \
	print "}" }' results/bench_core.txt > results/BENCH_core.json
	@echo "wrote results/BENCH_core.json"; cat results/BENCH_core.json

# bench-batch is the focused loop for the fused batch solver: first the
# exactness tests that pin every entry point to the map-pipeline oracle and
# BatchSolve to N independent Solve calls bit for bit (parallel cut stage
# included), then the batch benchmarks — small-graph looped vs fused
# throughput and the large-graph solve.
bench-batch:
	$(GO) test -count=1 \
		-run 'TestExactnessTable|TestPropertyBatchSolveMatchesLoopedSolve|TestBatchSolveParallelCutStageMatchesSerial' \
		./internal/core/
	$(GO) test -run=NONE -benchmem -count=$(BENCH_COUNT) \
		-bench='^BenchmarkBatchSolveSmall$$|^BenchmarkBatchSolveLarge$$' .

# chaos runs the fault-injection suite — lossy transports, torn journal
# writes, fsync failures — twice under the race detector to shake out
# order-dependent failures in the recovery paths, then the SIGKILL
# scenarios against re-exec'd daemons: crash recovery on a data directory,
# and a fleet backend killed and restarted behind the router.
chaos:
	$(GO) test -race -count=2 ./internal/faultnet/
	$(GO) test -race -count=2 ./internal/durable/
	$(GO) test -race -run 'TestCrashRecovery|TestDaemonDurable|TestFleet' ./cmd/copmecsd/

clean:
	$(GO) clean ./...
	rm -rf results/out
