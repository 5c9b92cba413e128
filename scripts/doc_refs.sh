#!/usr/bin/env bash
# Back-quoted `pkg.Name` / `pkg.Type.Name` references in README.md and
# PERFORMANCE.md whose package is a directory under internal/ but which
# resolve to no exported declaration there (func, type, var, const, method or
# struct field, as `go doc` finds them) — the doc drift ROADMAP 6(d) asks CI
# to show. Fenced code blocks are skipped; a reference may be followed by more
# text inside its span (`rms.Server.Stats()`). Printed, not gated.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
# refs prints "file:line ref" for every candidate reference.
refs() {
	for doc in README.md PERFORMANCE.md; do
		awk '/^```/ { fence = !fence; next } !fence { print FILENAME ":" FNR ":" $0 }' "$doc" |
			grep -oE '^[^:]+:[0-9]+:|`[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)?' |
			awk '/^`/ { print where, substr($0, 2); next } { where = substr($0, 1, length($0) - 1) }'
	done
}
declare -A resolves # ref → 0/1, one `go doc` per distinct reference
n=0
while read -r where ref; do
	pkg=${ref%%.*}
	[ -d "internal/$pkg" ] || continue
	if [ -z "${resolves[$ref]+set}" ]; then
		resolves[$ref]=0
		if go doc "./internal/$pkg" "${ref#*.}" >/dev/null 2>&1; then
			resolves[$ref]=1
		fi
	fi
	if [ "${resolves[$ref]}" = 0 ]; then
		printf '%s  %s\n' "$where" "$ref"
		n=$((n + 1))
	fi
done < <(refs)
echo "$n back-quoted references in README.md/PERFORMANCE.md resolve to nothing exported under internal/"
