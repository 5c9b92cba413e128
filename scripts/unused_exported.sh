#!/usr/bin/env bash
# Exported funcs and methods declared in non-test files under internal/ whose
# name appears nowhere else in the repository's Go code — non-test code,
# tests, cmd/, examples/ and bench/ — outside comments and its own
# declaration. staticcheck's U1000 only sees unexported names; this is the
# grep-level scan for the exported ones. Printed, not gated: a method reached
# only through an interface it is never named for (sim's eventHeap.Less via
# container/heap) is listed too, and a name shared with a used one is missed.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C # sort and join must agree on the order
recv='(\([^)]*\) )?' # a method's receiver
# Every identifier used anywhere: comment lines and trailing comments dropped,
# the declared name cut out of func lines (receiver and signature stay).
used=$(find . -name '*.go' ! -path './.bench_build/*' -print0 | xargs -0 cat |
	sed -E -e '/^[[:space:]]*\/\//d' -e 's/[[:space:]]\/\/.*$//' \
		-e "s/^func ${recv}[A-Za-z_][A-Za-z0-9_]*/func \1/" |
	grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
find internal -name '*.go' ! -name '*_test.go' -print0 | xargs -0 grep -nE "^func ${recv}[A-Z]" |
	sed -E "s/^([^:]+:[0-9]+):func ${recv}([A-Za-z0-9_]+).*/\3 \1/" | sort |
	join -v 1 - <(printf '%s\n' "$used") |
	awk '{ printf "%s  %s\n", $2, $1; n++ } END { printf "%d exported funcs/methods under internal/ with no reference\n", n }'
