#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given flags. Run from the repository root:
#   bash perfbench/run.sh --workload live_wire --seed 1 --seconds 10 --trace 0
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
# Keep the toolchain's caches and scratch files inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -d .git ]; then
  PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
  export PERFBENCH_COMMIT
fi
exec "$out/perfbench" "$@"
