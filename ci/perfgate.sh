#!/usr/bin/env bash
# Blocking performance gate built on perfbench's seed-deterministic
# outcomes. For every run listed in ci/perfbench_pins.json it calls
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace T
# (S is BENCHMARK.json's run_seconds), reads the JSON result (the last
# stdout line) and fails if
#   - run.sh exits non-zero, or the result reports failed > 0 or
#     correct != true;
#   - a pinned outcome differs from its pinned value by even one bit;
#   - allocs_per_op (untraced runs) exceeds the workload's ceiling.
# Wall-clock figures (cpu_us_per_op, setup_s, ontime_frac, live delays)
# are printed, never gated: they move with the host.
#
# Usage, from anywhere in the checkout:
#   bash ci/perfgate.sh            # check (make perfgate)
#   bash ci/perfgate.sh --update   # rewrite the pinned outcomes in place
#
# --update rewrites only the pinned outcomes; it still fails on a failed
# run or a ceiling breach. Ceilings are edited by hand.
set -euo pipefail

cd "$(dirname "$0")/.."
pins=ci/perfbench_pins.json

update=0
case "${1:-}" in
  "") ;;
  --update) update=1 ;;
  *) echo "usage: bash ci/perfgate.sh [--update]" >&2; exit 2 ;;
esac

# The pinned outcomes hold for this run length only.
seconds="$(jq -r '.run_seconds' BENCHMARK.json)"
nruns="$(jq '.runs | length' "$pins")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

bad=0
fail() {
  echo "FAIL $*"
  bad=1
}

for ((i = 0; i < nruns; i++)); do
  run="$(jq -c ".runs[$i]" "$pins")"
  workload="$(jq -r '.workload' <<<"$run")"
  seed="$(jq -r '.seed' <<<"$run")"
  trace="$(jq -r '.trace' <<<"$run")"
  name="$workload seed=$seed trace=$trace"
  echo "== $name"

  if ! bash perfbench/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" >"$work/out" 2>"$work/err"; then
    cat "$work/err"
    fail "$name: perfbench/run.sh exited non-zero"
    continue
  fi
  result="$(tail -n 1 "$work/out")"
  if ! jq -e 'has("metrics")' <<<"$result" >/dev/null 2>&1; then
    cat "$work/err"
    fail "$name: last stdout line is not a result: $result"
    continue
  fi
  vals="$(jq -c '.metrics | map_values(.value)' <<<"$result")"

  # What the run measured, for the log (a traced run reports every
  # layer's figures, most of them zero for any one workload).
  echo "   $(jq -c '{correct, attempted, failed}' <<<"$result")" \
    "$(jq -c 'with_entries(select(.value != 0))' <<<"$vals")"

  if ! jq -e '.failed == 0 and .correct == true' <<<"$result" >/dev/null; then
    cat "$work/err"
    fail "$name: $(jq -c '{correct, failed}' <<<"$result")"
  fi

  # Pinned outcomes: exact equality of the parsed doubles.
  while IFS=$'\t' read -r key want got; do
    [ -n "$key" ] || continue
    if [ "$update" = 1 ]; then
      echo "   re-pin $key: $want -> $got"
    else
      fail "$name: $key = $got, pinned $want"
    fi
  done < <(jq -r --argjson v "$vals" \
    '.pinned | to_entries[] | select($v[.key] != .value)
     | [.key, (.value | tostring), ($v[.key] | tostring)] | @tsv' <<<"$run")

  if [ "$update" = 1 ]; then
    jq --argjson i "$i" --argjson v "$vals" \
      '.runs[$i].pinned |= with_entries(.value = $v[.key])' "$pins" >"$work/pins"
    cp "$work/pins" "$pins"
  fi

  # Allocation ceiling: untraced runs report allocs_per_op.
  if [ "$trace" = 0 ]; then
    ceiling="$(jq -r --arg w "$workload" '.allocs_per_op_ceiling[$w] // empty' "$pins")"
    if [ -z "$ceiling" ]; then
      fail "$name: no allocs_per_op ceiling declared"
    elif ! jq -e --argjson c "$ceiling" '.allocs_per_op <= $c' <<<"$vals" >/dev/null; then
      fail "$name: allocs_per_op = $(jq '.allocs_per_op' <<<"$vals"), ceiling $ceiling"
    fi
  fi
done

if [ "$update" = 1 ]; then
  echo "perfgate: pinned outcomes rewritten in $pins"
fi
if [ "$bad" != 0 ]; then
  echo "perfgate: FAILED"
  exit 1
fi
echo "perfgate: ok ($nruns runs)"
