#!/bin/sh
# size.sh — prints results/SIZE.json: Go line counts (wc -l) per package
# directory under internal/ and cmd/, non-test and _test.go files counted
# separately, plus totals. testdata/ trees are fixtures, not code, and are
# skipped. Run from the repository root (`make size`).
set -eu

find internal cmd -name '*.go' -not -path '*/testdata/*' | LC_ALL=C sort | xargs wc -l | awk '
$2 == "total" { next }
{
	dir = $2; sub(/\/[^\/]*$/, "", dir)
	if (!(dir in seen)) { seen[dir] = 1; order[n++] = dir }
	if ($2 ~ /_test\.go$/) { test[dir] += $1; ttest += $1 } else { code[dir] += $1; tcode += $1 }
}
END {
	print "{"
	print "  \"unit\": \"lines (wc -l) of .go files, testdata/ excluded\","
	print "  \"packages\": {"
	for (i = 0; i < n; i++) {
		d = order[i]
		printf "    \"%s\": {\"non_test\": %d, \"test\": %d}%s\n", d, code[d], test[d], (i < n - 1 ? "," : "")
	}
	print "  },"
	printf "  \"total\": {\"non_test\": %d, \"test\": %d}\n", tcode, ttest
	print "}"
}'
