GO ?= go

.PHONY: all build test race vet size lint fuzz chaos bench bench-core bench-batch clean

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
# discipline bugs). copmecs-vet exits 1 on any finding, which fails the
# target.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/copmecs-vet ./...
	$(GO) run ./cmd/copmecs-vet -tests -analyzers lockorder,unlockpath ./...

# size regenerates results/SIZE.json: non-test Go lines per package under
# internal/ and cmd/ (test lines reported beside them) plus totals. CI diffs
# it against the committed copy, so "least code" has a committed trajectory.
size:
	@./scripts/size.sh > results/SIZE.json; cat results/SIZE.json

# lint is vet plus a formatting gate; it fails if any file needs gofmt.
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# fuzz gives the binary codec, the one-pass JSON scanner's shapes (graph,
# /v1/solve body, /v1/mutate body, each held to encoding/json), delta patches,
# the compiled view's encoding, the decoded lists' record (held to the map
# Graph build) and the view compiled from a record (held to ReadBinary +
# Compile), the component contraction (held to the reference contraction
# it replaced), the serving-path request decoder, journal
# recovery over mutated round and mutate records and the cached-hit reply's
# appender (held to encoding/json) a short randomized shake; CI runs the seed
# corpus via plain `go test`, this target digs deeper locally.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=30s ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzGraphJSONMatchesStdlib -fuzztime=30s ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzDeltaPatch -fuzztime=30s ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzCSRRoundTrip -fuzztime=30s ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzRecordFromLists -fuzztime=30s ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzCompileBinary -fuzztime=30s ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzContract -fuzztime=30s ./internal/lpa/
	$(GO) test -run=NONE -fuzz=FuzzDecodeSolveRequest -fuzztime=30s ./internal/serve/
	$(GO) test -run=NONE -fuzz=FuzzSolveRequestMatchesStdlib -fuzztime=30s ./internal/serve/
	$(GO) test -run=NONE -fuzz=FuzzMutateRequestMatchesStdlib -fuzztime=30s ./internal/serve/
	$(GO) test -run=NONE -fuzz=FuzzRecoverJournal -fuzztime=30s ./internal/serve/
	$(GO) test -run=NONE -fuzz=FuzzRenderHitMatchesStdlib -fuzztime=30s ./internal/serve/
	$(GO) test -run=NONE -fuzz=FuzzJournalReplay -fuzztime=30s ./internal/durable/

# bench runs every benchmark in the repo into results/bench.txt.
bench:
	@mkdir -p results
	$(GO) test -run=NONE -bench=. -benchmem ./... | tee results/bench.txt

# bench-core runs the benchmarks that report an interleaved ratio, the ones
# scripts/perf_gate.sh holds to floors: the incremental re-solve (chained 1%
# edge-churn deltas vs cold solves), the mutate key (the applied map graph's
# fingerprint vs patching the cached view and hashing that), internal/graph's
# fingerprint re-key (a patched view re-hashing its dirty chunks vs a full
# chunked hash of it), internal/core's evaluator state over boundary rows
# against the full-view walk, internal/serve's cached-hit render against
# json.Marshal, internal/eigen's
# dense Fiedler kernel against its Jacobi oracle and its Sturm bisection
# against the QL test oracle (the pass it replaced), internal/lpa's round
# loop against its all-rounds reference and its sort-free contraction
# against the reference contraction, internal/graph's one-pass JSON
# decode against the encoding/json path it falls back to, internal/graph's
# record-and-view decode of scanned lists against the map Graph route, internal/serve's
# one-pass request decode against its decodeStrict fallback, and a
# batch_small-shaped BatchSolve round on the default worker pool against
# Workers 1 (skipped under GOMAXPROCS 1). Each side of a ratio is timed in
# the same process, interleaved, so host speed cancels. The raw text lands in
# results/bench_core.txt; the mean ns/op, B/op, allocs/op and ratio
# (speedup_x, decode_x or request_decode_x) per benchmark are distilled into
# results/BENCH_core.json.
bench-core:
	@mkdir -p results
	$(GO) test -run=NONE -benchmem -count=$(BENCH_COUNT) \
		-bench='^BenchmarkIncrementalResolve$$|^BenchmarkMutateKeySpeedup$$|^BenchmarkFingerprintRekeySpeedup$$|^BenchmarkUserStateBoundarySpeedup$$|^BenchmarkRenderHitSpeedup$$|^BenchmarkBodyKeySpeedup$$|^BenchmarkBatchRoundWorkersSpeedup$$|^BenchmarkDenseFiedlerSpeedup$$|^BenchmarkSturmSpeedup$$|^BenchmarkLPARoundsSpeedup$$|^BenchmarkContractSpeedup$$|^BenchmarkGraphUnmarshalSpeedup$$|^BenchmarkRecordDecodeSpeedup$$|^BenchmarkSolveRequestDecodeSpeedup$$' \
		. ./internal/core/ ./internal/eigen/ ./internal/lpa/ ./internal/graph/ ./internal/serve/ | tee results/bench_core.txt
	@awk 'BEGIN { print "{"; n = 0 } \
	/^Benchmark/ { \
		name = $$1; sub(/-[0-9]+$$/, "", name); \
		for (i = 2; i <= NF; i++) { \
			if ($$i == "ns/op") sns[name] += $$(i-1); \
			else if ($$i == "B/op") sb[name] += $$(i-1); \
			else if ($$i == "allocs/op") sa[name] += $$(i-1); \
			else if ($$i == "speedup_x" || $$i == "decode_x" || $$i == "request_decode_x") sx[name] += $$(i-1); \
		} \
		if (!(name in seen)) order[n++] = name; \
		seen[name]++; \
	} \
	END { for (j = 0; j < n; j++) { k = order[j]; c = seen[k]; \
		printf "  \"%s\": {\"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.1f, \"speedup_x\": %.3f}%s\n", \
			k, sns[k]/c, sb[k]/c, sa[k]/c, sx[k]/c, (j < n - 1 ? "," : "") } \
	print "}" }' results/bench_core.txt > results/BENCH_core.json
	@echo "wrote results/BENCH_core.json"; cat results/BENCH_core.json

# bench-batch is the focused loop for the batch solver: first the exactness
# tests that pin every entry point to the map-pipeline oracle and BatchSolve
# to N independent Solve calls bit for bit (parallel worker pool included),
# then the batch benchmarks — small-graph throughput, looped vs "fused" (one
# BatchSolve pass over the round's per-graph views; the sub-benchmark keeps
# its name so results compare across commits), and the large-graph solve.
bench-batch:
	$(GO) test -count=1 \
		-run 'TestExactnessTable|TestPropertyBatchSolveMatchesLoopedSolve|TestBatchSolveParallelCutStageMatchesSerial|TestBatchSolveStagesAppliedView' \
		./internal/core/
	$(GO) test -run=NONE -benchmem -count=$(BENCH_COUNT) \
		-bench='^BenchmarkBatchSolveSmall$$|^BenchmarkBatchSolveLarge$$' .

# chaos runs the fault-injection suite — lossy transports, torn journal
# writes, fsync failures — and serve's journal, replay, shed and non-finite
# decision tests twice under the race detector to shake out order-dependent
# failures in the recovery and release paths, then the SIGKILL scenarios against re-exec'd daemons:
# crash recovery on a data directory, and a fleet backend killed and
# restarted behind the router.
chaos:
	$(GO) test -race -count=2 ./internal/faultnet/
	$(GO) test -race -count=2 ./internal/durable/
	$(GO) test -race -count=2 -run 'Journal|Replay|Recover|Shed|NonFinite' ./internal/serve/
	$(GO) test -race -run 'TestCrashRecovery|TestDaemonDurable|TestFleet' ./cmd/copmecsd/

clean:
	$(GO) clean ./...
	rm -rf results/out
