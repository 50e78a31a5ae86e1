#!/usr/bin/env bash
# Runs every workload N times (default 3), each time with the next seed
# starting at SEED (default 1), and prints each end-to-end metric's median,
# quartiles and relative spread beside its bound in BENCHMARK.json.
#
#   bash benchmark/repeat.sh [N] [SEED]
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" --repeat "${1:-3}" --seed "${2:-1}"
