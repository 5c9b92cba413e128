#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything it writes (build cache, binary, span files)
# stays under .bench_build/ at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/coorm-bench" .)
cd "$root"
exec "$build/coorm-bench" "$@"
