#!/bin/sh
# perf_gate.sh OLD.txt NEW.txt [MAX_REGRESSION_PCT] [MIN_SPEEDUP_X] [MIN_INCREMENTAL_X] [MIN_DENSE_X] [MIN_LPA_X] [MIN_DECODE_X] [MIN_REQUEST_DECODE_X]
#
# Compares two `go test -bench` text outputs (e.g. the committed
# results/bench_core_baseline.txt against a fresh results/bench_core.txt),
# averaging ns/op per benchmark name across -count repetitions, and fails
# when any benchmark present in both regresses by more than
# MAX_REGRESSION_PCT (default 15) in ns/op. Benchmarks only present on one
# side are listed but never gate, so adding or retiring a benchmark does not
# break CI. benchstat gives the human-readable statistics in the CI log;
# this script is the machine verdict.
#
# Additionally, any benchmark in the NEW run reporting a speedup_x metric (a
# ratio measured interleaved within one process so host drift cancels) must
# average at least MIN_SPEEDUP_X (default 1.0) unless it has its own floor
# below. These are absolute floors, not relative comparisons. (How the
# floors moved is in CHANGES.md.)
#
# BenchmarkIncrementalResolve/n=5000 gets its own floor MIN_INCREMENTAL_X
# (default 3.75): the incremental re-solve pipeline exists to beat cold
# solves on full-scale graphs under 1% localized churn, so that claim is
# gated directly; a patched view that shares clean components' rows, under
# a pipeline that carries their compression blocks, cuts and templates,
# measures 4.2-4.5x. inc_ns / cold_ns report the two sides. The n=1000 entry
# reports its ratio but is held only to the generic MIN_SPEEDUP_X (small
# graphs amortise less).
#
# BenchmarkDenseFiedlerSpeedup/n=80 (internal/eigen: the dense kernel over
# its Jacobi oracle, interleaved) must average at least MIN_DENSE_X
# (default 5.0); measured ~69x. Its other sizes report their ratios under
# the generic floor.
#
# BenchmarkLPARoundsSpeedup (internal/lpa: component compression of a Table I
# n=5000 graph over the packed heavy-neighbor round loop with its fixed-point
# stop, against the same compression over the all-rounds reference loop kept
# in rounds_test.go, interleaved) must average at least MIN_LPA_X (default
# 1.5); measured ~2.4x.
#
# BenchmarkGraphUnmarshalSpeedup (internal/graph: Graph.UnmarshalJSON's
# one-pass scanner against the encoding/json path it declines to, on an
# n=100 request body and one the size of Table I's n=2000 row, interleaved)
# reports its ratio as decode_x and must average at least MIN_DECODE_X
# (default 2.0) on both bodies; measured ~3.5x and ~3.2x.
#
# BenchmarkSolveRequestDecodeSpeedup (internal/serve: DecodeSolveBody's
# one-pass request scan, graph built in place, against the decodeStrict path
# it declines to — encoding/json delimiting the body and the graph member
# around that same graph scanner — on the n=100 and n=2000 /v1/solve bodies,
# interleaved) reports its ratio as request_decode_x and must average at
# least MIN_REQUEST_DECODE_X (default 1.5) on both; measured 2.3–2.7x and
# 2.0–2.5x.
set -eu

old=${1:?usage: perf_gate.sh OLD.txt NEW.txt [MAX_PCT] [MIN_SPEEDUP] [MIN_INCREMENTAL] [MIN_DENSE] [MIN_LPA] [MIN_DECODE] [MIN_REQUEST_DECODE]}
new=${2:?usage: perf_gate.sh OLD.txt NEW.txt [MAX_PCT] [MIN_SPEEDUP] [MIN_INCREMENTAL] [MIN_DENSE] [MIN_LPA] [MIN_DECODE] [MIN_REQUEST_DECODE]}
max=${3:-15}
minspeed=${4:-1.0}
mininc=${5:-3.75}
mindense=${6:-5.0}
minlpa=${7:-1.5}
mindecode=${8:-2.0}
minrequest=${9:-1.5}

awk -v max="$max" -v minspeed="$minspeed" -v mininc="$mininc" -v mindense="$mindense" -v minlpa="$minlpa" -v mindecode="$mindecode" -v minrequest="$minrequest" '
FNR == NR && /^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) if ($i == "ns/op") { osum[name] += $(i-1); ocnt[name]++ }
	next
}
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) if ($i == "ns/op") {
		nsum[name] += $(i-1); ncnt[name]++
		if (!(name in idx)) { order[n++] = name; idx[name] = 1 }
	}
	for (i = 2; i <= NF; i++) if ($i == "speedup_x" || $i == "decode_x" || $i == "request_decode_x") { ssum[name] += $(i-1); scnt[name]++ }
}
END {
	bad = 0
	for (j = 0; j < n; j++) {
		name = order[j]
		nn = nsum[name] / ncnt[name]
		if (!(name in osum)) {
			printf "%-55s %38s %12.0f ns/op (new, not gated)\n", name, "", nn
			continue
		}
		o = osum[name] / ocnt[name]
		pct = (nn / o - 1) * 100
		verdict = (pct > max) ? "REGRESSED" : "ok"
		printf "%-55s %12.0f -> %12.0f ns/op %+7.1f%%  %s\n", name, o, nn, pct, verdict
		if (pct > max) bad = 1
	}
	for (name in osum) if (!(name in nsum))
		printf "%-55s %12.0f ns/op dropped from new run (not gated)\n", name, osum[name] / ocnt[name]
	slow = 0
	for (name in ssum) {
		s = ssum[name] / scnt[name]
		floor = minspeed
		if (name ~ /IncrementalResolve\/n=5000/) floor = mininc
		if (name ~ /DenseFiedlerSpeedup\/n=80/) floor = mindense
		if (name ~ /LPARoundsSpeedup/) floor = minlpa
		if (name ~ /GraphUnmarshalSpeedup/) floor = mindecode
		if (name ~ /SolveRequestDecodeSpeedup/) floor = minrequest
		verdict = (s < floor) ? "BELOW FLOOR" : "ok"
		printf "%-55s %38.3f speedup_x (floor %s)  %s\n", name, s, floor, verdict
		if (s < floor) slow = 1
	}
	if (bad) { printf "FAIL: ns/op regression beyond %s%%\n", max; exit 1 }
	if (slow) { printf "FAIL: speedup_x below its floor\n"; exit 1 }
	printf "OK: no benchmark regressed more than %s%% ns/op", max
	if (length(ssum)) printf "; speedup_x floor %s held", minspeed
	printf "\n"
}
' "$old" "$new"
