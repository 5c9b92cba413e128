#!/usr/bin/env bash
# Non-test Go lines per package and in total, bench/ (its own module)
# excluded: the number ROADMAP aim 2 tracks. Plain `wc -l`, so comment and
# blank lines count — which is why deleting comments is not a reduction.
# Then the `panic(` call sites in the same files: the number ROADMAP's panic
# table tracks, and the wall-clock calls (time.Now, Sleep, AfterFunc, ...)
# outside internal/clock, which a Go test holds to its list. Last, the exported top-level names per internal/ package and
# in total, one `go doc -short` line each (a constructor listed under its
# type counts as one): the number "no new exported name" is held to. Run from
# anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/^\.\//, "", dir)
		if (sub(/\/[^\/]*$/, "", dir) == 0) dir = "."
		lines[dir] += $1; total += $1
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total (non-test, bench/ excluded)\n", total
	}'
panics=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 |
	{ xargs -0 grep -o 'panic(' || true; } | wc -l)
printf "%7d  panic( sites (non-test, bench/ excluded)\n" "$panics"
wallclock=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './internal/clock/*' -print0 |
	{ xargs -0 grep -oE '\btime\.(Now|Since|Until|AfterFunc|After|NewTimer|NewTicker|Tick|Sleep)\(' || true; } | wc -l)
printf "%7d  wall-clock sites outside internal/clock (non-test, bench/ excluded; listed in clock's TestWallClockSitesListed)\n" "$wallclock"
exported=0
for d in internal/*/; do
	n=$(go doc -short "./$d" | wc -l)
	printf "%7d  %s exported names\n" "$n" "${d%/}"
	exported=$((exported + n))
done
printf "%7d  exported names (internal/, go doc -short lines)\n" "$exported"
