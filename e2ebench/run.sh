#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload compile-vliw --seed 1 --seconds 28 --trace 0
#
# Build outputs, the Go build cache and run scratch all live under
# .bench_build/ in the current directory, so nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$root/e2ebench" && go build -trimpath -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -commit "$commit" "$@"
