#!/bin/sh
# crash.sh [DATA_DIR]
#
# Binary-level crash-recovery scenario: boot copmecsd with a durability
# directory, answer a known set of solve requests, keep background load
# running, SIGKILL the daemon mid-round, restart it on the same
# directory, and hold the crash invariant — every request that was
# answered 200 before the kill is answered from cache after recovery,
# with zero replay or decode errors. Requires jq (same as the CI serve
# job). Exits nonzero on any lost request.
#
# The daemon runs with its default solution cache (1024 entries). The
# invariant needs the accepted decisions not to be LRU-evicted before the
# kill; the background load here is one curl process per request — some
# tens of distinct graphs in the 0.5 s — so it cannot get there.
# (cmd/copmecsd's crash test posts from four in-process workers, can, and
# passes -cache for that reason.)
set -eu

port=${CRASH_PORT:-8981}
accepted=${CRASH_ACCEPTED:-12}

bin=$(mktemp -d)
data=${1:-$bin/data}
daemon=
loadpid=
cleanup() {
	[ -n "$loadpid" ] && kill "$loadpid" 2>/dev/null || true
	if [ -n "$daemon" ] && kill -0 "$daemon" 2>/dev/null; then
		kill -TERM "$daemon" 2>/dev/null || true
		wait "$daemon" 2>/dev/null || true
	fi
	rm -rf "$bin"
}
trap cleanup EXIT INT TERM

go build -o "$bin/copmecsd" ./cmd/copmecsd

# body I — the I-th of a family of distinct solve bodies (weights vary).
body() {
	printf '{"graph":{"nodes":[{"id":0,"weight":%d},{"id":1,"weight":120},{"id":2,"weight":%d},{"id":3,"weight":30}],"edges":[{"u":0,"v":1,"weight":40},{"u":1,"v":2,"weight":5},{"u":2,"v":3,"weight":60}]}}' \
		$((50 + $1)) $((200 + $1 % 7 * 10))
}

boot() {
	"$bin/copmecsd" -addr "127.0.0.1:$port" -data-dir "$data" \
		-fsync-interval 5ms -snapshot-interval 300ms >"$1" 2>&1 &
	daemon=$!
	for _ in $(seq 1 100); do
		if curl -fsS "http://127.0.0.1:$port/v1/healthz" >/dev/null 2>&1; then
			return 0
		fi
		sleep 0.1
	done
	echo "crash.sh: daemon did not become healthy; log follows" >&2
	cat "$1" >&2
	exit 1
}

boot "$bin/boot1.log"

# Phase 1: the accepted set — each of these gets a 200 before the kill.
i=0
while [ "$i" -lt "$accepted" ]; do
	body "$i" | curl -fsS -X POST -d @- "http://127.0.0.1:$port/v1/solve" >/dev/null
	i=$((i + 1))
done

# Phase 2: background load so the SIGKILL lands mid-round, with journal
# appends and snapshot writes in flight.
(
	j=$accepted
	while :; do
		body "$j" | curl -fsS -X POST -d @- "http://127.0.0.1:$port/v1/solve" >/dev/null 2>&1 || exit 0
		j=$((j + 1))
	done
) &
loadpid=$!
sleep 0.5

kill -9 "$daemon"
wait "$daemon" 2>/dev/null || true
daemon=
wait "$loadpid" 2>/dev/null || true
loadpid=

# Phase 3: restart on the same directory and verify nothing was lost.
boot "$bin/boot2.log"
grep 'recovered' "$bin/boot2.log"

i=0
while [ "$i" -lt "$accepted" ]; do
	if ! body "$i" | curl -fsS -X POST -d @- "http://127.0.0.1:$port/v1/solve" |
		jq -e '.cached == true' >/dev/null; then
		echo "crash.sh: accepted request $i lost across the crash" >&2
		exit 1
	fi
	i=$((i + 1))
done

curl -fsS "http://127.0.0.1:$port/v1/stats" | tee "$bin/stats.json" |
	jq -e --argjson n "$accepted" '
		.durability.replay.replay_errors == 0
		and .durability.replay.decode_errors == 0
		and (.durability.replay.snapshot_decisions
			+ .durability.replay.replay_warm
			+ .durability.replay.replay_solved) >= $n
		and .cache.hits >= $n' >/dev/null

kill -TERM "$daemon"
wait "$daemon" || true
daemon=
echo "crash.sh: zero lost accepted requests across SIGKILL ($accepted verified)"
