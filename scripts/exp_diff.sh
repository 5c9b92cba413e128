#!/usr/bin/env bash
# Byte-compares coorm-exp's output at a git revision (default HEAD) with the
# working tree's. It runs every registered experiment except netchaos (its
# timing columns are wall-clock) at seeds 1 and 7 under each flag set below,
# as text and as `-report json`, and the figure presets also at paper scale
# with `-full -steps 80`. It prints each differing (experiment, flags,
# format) and exits 1 on any difference. It is not a CI gate: the seed-42
# goldens are, and an intended output change shows up here too.
#
# The revision is exported with `git archive` into a temporary directory,
# removed on exit. Experiment names come from the Experiments table in
# internal/experiments/registry.go; the figure presets are the entries whose
# preset function is defined in figures.go.
#
# Usage: bash scripts/exp_diff.sh [rev]
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:-HEAD}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/old" ./cmd/coorm-exp)
go build -o "$tmp/new" ./cmd/coorm-exp

exps=internal/experiments
table=$(sed -n '/^var Experiments = /,/^}/p' "$exps/registry.go")
names=$(sed -n 's/^\t{"\([^"]*\)", .*},$/\1/p' <<<"$table" | grep -vx netchaos)
figures=$(sed -n 's/^func \([A-Za-z0-9]*\)(o Options) (\*Report, error) {$/\1/p' "$exps/figures.go" |
	while read -r fn; do sed -n "s/^\t{\"\([^\"]*\)\", .*, $fn},\$/\1/p" <<<"$table"; done)

runs=0 diffs=0
# compare runs one experiment under the given flags on both builds, in both
# formats, stderr and exit code included.
compare() {
	local exp=$1 fmt
	shift
	for fmt in text json; do
		runs=$((runs + 1))
		if ! cmp -s <("$tmp/old" -exp "$exp" -report "$fmt" "$@" 2>&1; echo "exit $?") \
			<("$tmp/new" -exp "$exp" -report "$fmt" "$@" 2>&1; echo "exit $?"); then
			echo "differs: $exp $* ($fmt)"
			diffs=$((diffs + 1))
		fi
	done
}

for seed in 1 7; do
	for flags in "" "-shards 1" "-shards 8" "-crash-rate 0" "-tenants 4"; do
		for exp in $names; do
			# shellcheck disable=SC2086 # flags split into words on purpose
			compare "$exp" -seed "$seed" $flags
		done
	done
	for exp in $figures; do
		compare "$exp" -seed "$seed" -full -steps 80
	done
done
echo "exp_diff: $rev vs working tree: $runs runs compared, $diffs differ"
[ "$diffs" -eq 0 ]
