#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments, for example:
#
#   bash perfbench/run.sh --workload fleet-survey --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product, the Go build cache
# included, stays under the build directory inside the checkout
# ($CARGO_TARGET_DIR when set, .bench_build otherwise).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
