#!/bin/sh
# perf_gate.sh NEW.txt
#
# Holds the ratios in a `go test -bench` text output (results/bench_core.txt
# from `make bench-core`) to floors. Each ratio is measured interleaved
# within one process, so host speed cancels and the floors hold on any
# machine; absolute ns/op is not gated. Every benchmark reporting a
# speedup_x, decode_x or request_decode_x metric must average at least 1.0
# across -count repetitions unless it has its own floor below. The floors
# are the table in the awk program at the end of this file, one row per
# paragraph here. (How the floors moved is in CHANGES.md.)
#
# BenchmarkIncrementalResolve/n=5000 gets its own floor, 3.75: the incremental re-solve pipeline exists to beat cold
# solves on full-scale graphs under 1% localized churn, so that claim is
# gated directly; a patched view that shares clean components' rows, under
# a pipeline that carries their compression blocks, cuts and templates,
# measures 4.1-4.5x. inc_ns / cold_ns report the two sides. The n=1000 entry
# is held only to the generic 1.0 (small graphs amortise less).
#
# BenchmarkMutateKeySpeedup (the /v1/mutate key: the reference side is the
# applied map graph's Graph.Fingerprint, a full re-hash, over the graph as a
# request decodes it, ReadBinary of the applied view's AppendBinary; the view
# side is Session.Apply's patch of the interned base view — the mutate's one
# apply — plus the patched view's Fingerprint; eight Table I n=2000 lineages
# in turn, each base view left as the serving path leaves a mutate's, keyed
# and staged) gets its own floor, 2.87, 10% under the lowest mean of three
# -count=5 runs (3.20; the others 3.21 and 3.23). Since both Fingerprints
# lay each chunk into one pooled buffer through one loop (hashRows), the
# reference's full hash got cheaper by more than the view side's patch plus
# re-key: three make bench-core runs read 3.03, 3.03 and 3.27 (map_ns
# 398-474 us, view_ns 122-156 us), about 5% over the floor, which stays.
# The view side is charged
# for the patch the solve needs anyway and re-hashes only the chunks its
# delta dirtied: the floor catches a second patch (injected, it read 1.78
# and 1.84), a staged view losing its chunk digests (every chunk re-hashed:
# 0.92) or a map walk creeping back into the key. (Its floor was 3.32 while
# the reference hashed a Clone + Delta.Apply copy, whose speed followed
# Clone's memory layout; before that 0.88, set while its bases' views were
# never fingerprinted, so the view side hashed every chunk.)
#
# BenchmarkFingerprintRekeySpeedup (internal/graph: the Fingerprint of a
# Table I n=2000 view patched from a fingerprinted view, which re-hashes
# only the chunks its mutate_chain-shaped delta changed, against a full
# chunked hash of the same view, interleaved) gets its own floor, 5.7, 10%
# under the lowest mean of three -count=5 runs (6.37; the others 6.50 and
# 6.53; about 48 us against 300 us; 6.45, 6.39 and 6.40 since hashRows
# serves both sides, 54-56 us against 343-358 us). It catches Patch marking too many
# chunks stale, or a patched view losing its source's digests and hashing
# everything again.
#
# BenchmarkUserStateBoundarySpeedup (internal/core: one user's evaluated
# state down a delta chain on a Table I n=2000 lineage, its cut sum walking
# the graph's boundary rows, against the reference that walks every row of
# the view, interleaved) gets its own floor, 5.93, 10% under the lowest mean
# of three -count=5 runs of make bench-core's internal/core set (6.59; the
# others 6.90 and 6.77; about 5 us against 35 us, the rest being the O(n)
# work sums; with the two functions 32 bytes further on it read 6.3-7.6).
# Its floor was 3.99 while the work sums branched on each node's mark: the
# ratio then read 3.4-5.0 by where the linker put the two loops. It catches
# the boundary list growing toward the whole view.
#
# BenchmarkRenderHitSpeedup (internal/serve: the cached-hit body of a
# decision with 2,000 remote ids, appended member by member, against the
# json.Marshal encoding it replaced, interleaved) gets its own floor, 1.62,
# 10% under the lowest mean of three -count=5 runs (1.80; the others 1.85
# and 1.91). It catches reflection or a second copy creeping back into the
# render.
#
# BenchmarkBodyKeySpeedup (internal/serve: BodyKeyer.Key, the keyed
# AES-GMAC tag both hit paths key raw bodies with, against the SHA-256 of the
# body it replaced, interleaved, on the serve_hit-shaped n=100 body, 24.4 KB,
# and a Table I n=2000 body, 519 KB) gets its own floor, 5.5, on both bodies:
# 10% under the lowest mean of three -count=5 runs (6.12 on n=100; the others
# 6.30 and 6.45; n=2000 read 6.36, 6.70 and 6.80; about 3.2 us against 20 us
# on n=100). It catches the tag falling back to a software GHASH or a hash
# of the body creeping back next to it.
#
# BenchmarkBatchRoundWorkersSpeedup (one BatchSolve round shaped like the
# benchmark's batch_small workload, 64 n=100 graphs, on the default worker
# pool against Workers 1) gets its own floor, 1.43: the pool runs every phase of a round — compile, compress and
# cut, assembly, finish — so the round must gain more from a second proc
# than when only compress-and-cut ran on it. On a 2-vCPU host three
# -count=5 runs averaged 1.61, 1.61 and 1.59 (floor 10% under the lowest);
# with compile, assembly and finish on the caller and only compress-and-cut
# on the pool, the same runs averaged 1.37-1.38.
# It skips under GOMAXPROCS 1 and is then not gated.
#
# BenchmarkDenseFiedlerSpeedup/n=80 (internal/eigen: the dense kernel over
# its Jacobi oracle) must average at least 5.0;
# measured ~69x. Its other sizes are held to the generic floor.
#
# BenchmarkLPARoundsSpeedup (internal/lpa: component compression of a Table I
# n=5000 graph over the packed heavy-neighbor round loop with its fixed-point
# stop, against the all-rounds reference loop kept in rounds_test.go) must
# average at least 1.5; measured ~1.9-2.4x.
#
# BenchmarkContractSpeedup (internal/lpa: contracting every component of a
# graph under the labels propagation leaves, through one open-addressed
# pair index and a three-scatter row fill, against the reference
# contraction kept in contract_test.go, a dense k×k pair table below 65
# supers and a map above, then a comparison sort of the super-pairs,
# interleaved) gets its own floor per graph, 10% under the lowest mean of
# three -count=5 runs: Table I n=2000 1.43 (1.586; the others 1.591 and
# 1.595), Table I n=5000 1.08 (1.199; 1.200 and 1.203), the sparse n=2100
# shape 1.96 (2.174; 2.176 and 2.181; about 0.42 ms against 0.93 ms). It
# catches a sort, a map or a per-k second index creeping back into the
# contraction.
#
# BenchmarkGraphUnmarshalSpeedup (internal/graph: Graph.UnmarshalJSON's
# one-pass scanner against the encoding/json path it declines to, on an
# n=100 request body and one the size of Table I's n=2000 row) reports
# decode_x and must average at least 2.0 on both
# bodies; measured ~3.5x and ~3.2x while the scanner's numbers went through
# strconv.ParseFloat, 4.54x and 4.51x (the committed -count=5 run) since it
# converts them in the pass that delimits them.
#
# BenchmarkFloatScanSpeedup (internal/graph: Scanner.Float, which converts
# each number in the pass that delimits it, against number +
# strconv.ParseFloat, the parse it replaced, over every weight of the n=100
# and n=2000 bodies, interleaved) gets its own floor, 2.66, on both: 10%
# under the lowest mean of three -count=5 runs (2.954 on n=100; the others
# 3.012 and 3.126; n=2000 read 3.095, 3.103 and 3.133; about 30 ns a
# number on n=100). It catches the bodies' weights falling back to strconv or a
# second scan of their digits creeping back.
#
# BenchmarkRecordDecodeSpeedup (internal/graph: the serving tier's decode
# of the scanned lists, straight into the canonical binary record and the
# view compiled from it, against the map route it replaced on the same
# lists, build the Graph, encode its record and compile its view,
# interleaved, on the n=100 and n=2000 bodies) gets its own floor, 1.94, on
# both: 10% under the lowest mean of three -count=5 runs (2.16 on n=2000;
# the others 2.23 and 2.27; n=100 read 2.25, 2.27 and 2.28; about 31 us
# against 70 us on n=100). It catches a map, a sort or a second pass over
# the edges creeping back into the record path.
#
# BenchmarkSolveRequestDecodeSpeedup (internal/serve: the server's one-pass
# request scan into the graph's record against the decodeStrict path it
# declines to, on the n=100 and n=2000 /v1/solve bodies) reports
# request_decode_x and must average at least 1.5 on both; measured
# 2.3-2.7x and 2.0-2.5x while both sides built a Graph, 2.71x and 2.60x
# once the scan wrote the record, and 3.73x and 3.59x (the committed
# -count=5 run) since it converts numbers in the pass that delimits them.
set -eu

new=${1:?usage: perf_gate.sh NEW.txt}

awk '
BEGIN {
	# Benchmark name pattern -> floor; a ratio matching none is held to
	# generic. The patterns are disjoint.
	generic = "1.0"
	floors["IncrementalResolve/n=5000"] = "3.75"
	floors["DenseFiedlerSpeedup/n=80"] = "5.0"
	floors["LPARoundsSpeedup"] = "1.5"
	floors["ContractSpeedup/table1_n=2000"] = "1.43"
	floors["ContractSpeedup/table1_n=5000"] = "1.08"
	floors["ContractSpeedup/sparse_n=2100"] = "1.96"
	floors["GraphUnmarshalSpeedup"] = "2.0"
	floors["FloatScanSpeedup"] = "2.66"
	floors["RecordDecodeSpeedup"] = "1.94"
	floors["SolveRequestDecodeSpeedup"] = "1.5"
	floors["MutateKeySpeedup"] = "2.87"
	floors["UserStateBoundarySpeedup"] = "5.93"
	floors["RenderHitSpeedup"] = "1.62"
	floors["BodyKeySpeedup"] = "5.5"
	floors["FingerprintRekeySpeedup"] = "5.7"
	floors["BatchRoundWorkersSpeedup"] = "1.43"
}
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) if ($i == "speedup_x" || $i == "decode_x" || $i == "request_decode_x") {
		ssum[name] += $(i-1); scnt[name]++
		if (!(name in idx)) { order[n++] = name; idx[name] = 1 }
	}
}
END {
	if (!n) { print "FAIL: no ratio-reporting benchmark in the run"; exit 1 }
	slow = 0
	for (j = 0; j < n; j++) {
		name = order[j]
		s = ssum[name] / scnt[name]
		floor = generic
		for (p in floors) if (name ~ p) floor = floors[p]
		verdict = (s < floor + 0) ? "BELOW FLOOR" : "ok"
		printf "%-55s %10.3fx (floor %s)  %s\n", name, s, floor, verdict
		if (s < floor + 0) slow = 1
	}
	if (slow) { print "FAIL: a ratio is below its floor"; exit 1 }
	printf "OK: %d ratios held their floors\n", n
}
' "$new"
