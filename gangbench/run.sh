#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it from the checkout
# root; every argument is passed through, e.g.
#
#   bash gangbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and Go's own configuration all stay
# under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$root/gangbench" && go build -o "$build/gangbench" .)
cd "$root"
exec "$build/gangbench" "$@"
