#!/usr/bin/env bash
# Mutation score for the paper's algorithms: applies each one-line mutant of
# the table below to a `git archive` copy of a revision (MUTATE_REV, default
# HEAD — commit first), runs `go test ./...` on it, and sorts the mutant's
# killers (the top-level tests that fail) into three kinds:
#
#   test    some property, unit or differential test fails;
#   golden  only golden or hash files fail (the tests listed in $golden);
#   none    nothing fails: the mutant survives.
#
# It prints one line per mutant and the totals, the number ROADMAP's counts
# track. It exits 1 before running anything when a row's old line no longer
# matches its file (the table must follow the code), when `go test` runs no
# package at all, and at the end when a mutant does not compile; otherwise
# 0: it is not a CI gate. Each mutant
# costs one `go test ./...`.
#
# Usage: bash scripts/mutate.sh [mutant…]   (names from the table; none = all)
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${MUTATE_REV:-HEAD}

# name|file|occurrence|old line|new line|what the mutant breaks
# Lines are compared without their indentation, which the new line keeps;
# occurrence picks among identical lines, counting from 1. A '|' inside a
# field is written '\|'.
mutants=(
	'M1|internal/core/fit.go|1|r.ScheduledAt = r.EarliestScheduleAt|r.ScheduledAt = t0|fit: a FREE preemptible request ignores its NotBefore floor'
	'M2|internal/core/fit.go|1|if r.ScheduledAt != rp.ScheduledAt && rpMovable {|if false && r.ScheduledAt != rp.ScheduledAt && rpMovable {|fit: a COALLOC child never delays its movable parent'
	'M3|internal/core/fit.go|1|r.ScheduledAt = rp.ScheduledAt + rp.Duration|r.ScheduledAt = rp.ScheduledAt|fit: a preemptible NEXT child snaps to its parent'"'"'s start, not its end'
	'M4|internal/core/fit.go|1|if tBefore != r.ScheduledAt {|if false && tBefore != r.ScheduledAt {|fit: children are not re-queued when their parent moves'
	'M5|internal/core/fit.go|2|r.NAlloc = vi.Alloc(r.Cluster, r.N, w0, w1-w0)|r.NAlloc, _, _ = r.N, w0, w1|fit: a preemptible COALLOC child is not shrunk'
	'M6|internal/core/eqschedule.go|1|parts = active + 1|parts = active|divideInterval: the hypothetical share uses active, not active + 1'
	'M7|internal/core/eqschedule.go|2|out[i] = share(i)|out[i] = 0|divideInterval: when congested, an inactive application sees 0'
	'M8|internal/core/eqschedule.go|1|if s := share(i); leftover < s {|if s := share(i); false && leftover < s {|divideInterval: the uncongested grant drops the equi-partition floor'
	'M9|internal/core/eqschedule.go|1|out[i] = share(i)|out[i] = avail / max(active, 1)|divideInterval: under StrictEquiPartition an inactive application gets avail / active'
	'M10|internal/core/fit.go|1|if r.ScheduledAt != rp.ScheduledAt+rp.Duration && rpMovable {|if false && r.ScheduledAt != rp.ScheduledAt+rp.Duration && rpMovable {|fit: a NEXT child never delays its movable parent'
	'M11|internal/rms/rms.go|1|if s.draining {|if false && s.draining {|rms flush: every goroutine drains the notification queue, not one at a time'
	'M12|internal/rms/migrate.go|1|s.awaitDeliveryLocked()|if false { s.awaitDeliveryLocked() }|rms DetachCluster: the detach skips the delivery fence'
	'M13|internal/federation/migrate.go|1|if _, hosted := f.shards[donor].Clusters()[cid]; !inFlight \|\| hosted {|if _, hosted := f.shards[donor].Clusters()[cid]; !inFlight \|\| false \&\& hosted {|federation awaitDetached: a refused call waits out the migration even while the donor still hosts the cluster'
	'M14|internal/rms/rms.go|1|s.seg = append(s.seg, segEntry{cid, now})|if s.segAll { s.seg = append(s.seg, segEntry{cid, now}) }|rms push: a cluster whose preemptive profile changed is left out of the segment'
)
# Tests that compare output with golden or hash files.
golden=' TestExperimentsGolden TestDefaultOutputGolden TestChaosInvariantMatrix TestGangChaosMatrix TestGangChaosMigrationMatrix TestNodeChaosInvariantMatrix TestChaosRebalanceMatrix TestChaosRebalanceMatrixDRF '

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"

# lineno prints the line number of a row's old line in the base tree, or
# nothing when the file has fewer such lines than the occurrence asks for.
lineno() {
	awk -v want="$3" -v nth="$2" '{ s = $0; sub(/^[ \t]+/, "", s) } s == want && ++seen == nth { print NR; exit }' "$tmp/base/$1"
}

selected=()
for row in "${mutants[@]}"; do
	name=${row%%|*}
	if [ $# -eq 0 ] || [[ " $* " == *" $name "* ]]; then
		selected+=("$row")
	fi
done
[ ${#selected[@]} -gt 0 ] || { echo "mutate: no mutant named $*" >&2; exit 1; }
stale=0
for row in "${selected[@]}"; do
	IFS='|' read name file nth old new what <<<"$row"
	if [ -z "$(lineno "$file" "$nth" "$old")" ]; then
		echo "mutate: $name: $file has no occurrence $nth of: $old" >&2
		stale=1
	fi
done
[ "$stale" -eq 0 ] || exit 1

declare -A total=([test]=0 [golden]=0 [none]=0 [build]=0)
for row in "${selected[@]}"; do
	IFS='|' read name file nth old new what <<<"$row"
	n=$(lineno "$file" "$nth" "$old")
	rm -rf "$tmp/m"
	cp -r "$tmp/base" "$tmp/m"
	awk -v n="$n" -v new="$new" 'NR == n { match($0, /^[ \t]*/); $0 = substr($0, 1, RLENGTH) new } 1' \
		"$tmp/base/$file" >"$tmp/m/$file"
	(cd "$tmp/m" && go test ./... >"$tmp/out" 2>&1) || true
	if ! grep -Eq '^(ok|FAIL)[[:space:]]+coormv2' "$tmp/out"; then
		echo "mutate: $name: go test ran no package:" >&2
		head -5 "$tmp/out" >&2
		exit 1
	fi
	killers=$(sed -n 's/^--- FAIL: \([^ ]*\) .*/\1/p; s/^FAIL\t\([^ ]*\) \[build failed\]$/build:\1/p' "$tmp/out" | sort -u | tr '\n' ' ')
	kind=none
	for k in $killers; do
		if [[ "$k" == build:* ]]; then
			kind=build
			break
		elif [[ "$golden" != *" $k "* ]]; then
			kind=test
		elif [ "$kind" = none ]; then
			kind=golden
		fi
	done
	total[$kind]=$((total[$kind] + 1))
	printf '%-4s %-6s %s\n     killed by: %s\n' "$name" "$kind" "$what" "${killers:-nothing}"
done
echo "mutate: ${#selected[@]} mutants at $rev: ${total[test]} killed by a property, unit or differential test, ${total[golden]} by golden or hash files only, ${total[none]} by nothing"
if [ "${total[build]}" -gt 0 ]; then
	echo "mutate: ${total[build]} mutants do not compile: fix their rows" >&2
	exit 1
fi
