#!/usr/bin/env bash
# Exported funcs and methods declared in non-test files under internal/ whose
# name appears nowhere else in the repository's Go code — non-test code,
# tests, cmd/, examples/ and bench/ — outside comments and its own
# declaration; then, as a second listing, those that only _test.go files
# name. staticcheck's U1000 only sees unexported names; this is the
# grep-level scan for the exported ones. It matches names, not objects, so a
# func named like any identifier in use is missed. The deleted
# Federator.Recovery and Federator.NodeRecovery read as used through the
# config fields of the same names, and DRFPolicy.Tree through the type
# tenants.Tree, though none of the three had a caller. A type-aware check
# found them (the module, its tests and bench/ compile without them), and
# is the one for a name this scan cannot tell. Exits 1 when the first
# listing is not empty, or when the second names anything the table below
# does not.
#
# Never listed: sim's eventHeap.Less, reached through container/heap's
# interface, which it is never named for (allowed below).
#
# Named only by tests, and kept on purpose. One row per name: the name, its
# file, and why. The script reads the rows, so keep the two columns.
#   FailedNodeIDs   internal/rms/nodefault.go    the oracle of federation's
#                   FuzzGangReservations: no shard may lose or double a dead
#                   machine; rms and federation tests read it across packages
#   MaxAlloc        internal/metrics/metrics.go  apps' tests read each
#                   application's peak allocation from the recorder
#   NewMoldable     internal/apps/moldable.go    the paper's §4 application
#   NewMalleable    internal/apps/malleable.go   taxonomy, ported to the view
#   NewProbableNEA  internal/apps/probable.go    segments of
#                   rms.AppHandler.OnViews and run by apps' tests, though
#                   nothing the system runs builds them
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C # sort and join must agree on the order
recv='(\([^)]*\) )?' # a method's receiver
allowed='^Less internal/sim/sim\.go:' # "name file:line" of the one never listed
# idents prints every identifier used in the Go files found with the given
# extra find(1) tests: comment lines and trailing comments dropped, the
# declared name cut out of func lines (receiver and signature stay).
idents() {
	find . -name '*.go' ! -path './.bench_build/*' "$@" -print0 | xargs -0 cat |
		sed -E -e '/^[[:space:]]*\/\//d' -e 's/[[:space:]]\/\/.*$//' \
			-e "s/^func ${recv}[A-Za-z_][A-Za-z0-9_]*/func \1/" |
		grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u
}
decls=$(find internal -name '*.go' ! -name '*_test.go' -print0 | xargs -0 grep -nE "^func ${recv}[A-Z]" |
	sed -E "s/^([^:]+:[0-9]+):func ${recv}([A-Za-z0-9_]+).*/\3 \1/" | grep -vE "$allowed" | sort)
# list prints the declarations named by none of the identifiers on stdin.
list() {
	join -v 1 <(printf '%s\n' "$decls") - |
		awk -v what="$1" '{ printf "%s  %s\n", $2, $1; n++ } END { printf "%d exported funcs/methods under internal/ %s\n", n, what }'
}
unreferenced=$(idents | list "with no reference")
echo "$unreferenced"
# Named somewhere, but in no non-test file: the names of the first list are
# filtered out by joining on the test files' identifiers first.
decls=$(join <(printf '%s\n' "$decls") <(idents -name '*_test.go'))
testonly=$(idents ! -name '*_test.go' | list "referenced from _test.go files only")
echo "$testonly"
# The second listing's "file:line  name" lines whose "name file" is no row
# of the header table.
unkept=$(awk 'NR == FNR { kept[$1 " " $2]; next }
	NF == 2 { file = $1; sub(/:.*/, "", file); if (!(($2 " " file) in kept)) print }' \
	<(sed -nE 's/^#   ([A-Za-z0-9_]+) +(internal\/[^ ]+).*/\1 \2/p' scripts/unused_exported.sh) \
	<(printf '%s\n' "$testonly"))
if [ -n "$unkept" ]; then
	printf 'named only by tests and not in the header table:\n%s\n' "$unkept"
fi
case $unreferenced in
0\ *) ;;
*) exit 1 ;;
esac
[ -z "$unkept" ]
