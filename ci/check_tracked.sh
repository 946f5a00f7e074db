#!/usr/bin/env bash
# Fails when a tracked file is an ELF binary or larger than 1 MB: build
# outputs belong in .gitignore, not in git. The largest legitimate tracked
# file, internal/control/testdata/admission_decisions.golden, is ~76 KB.
#
#   bash ci/check_tracked.sh
set -euo pipefail

limit=$((1024 * 1024))
elf=$(printf '\177ELF')
status=0
while IFS= read -r -d '' f; do
	[ -f "$f" ] || continue
	if [ "$(head -c 4 "$f")" = "$elf" ]; then
		echo "tracked ELF binary: $f"
		status=1
	fi
	if [ "$(wc -c <"$f")" -gt "$limit" ]; then
		echo "tracked file over 1 MB: $f"
		status=1
	fi
done < <(git ls-files -z)
exit $status
