#!/usr/bin/env bash
# Builds the NetCL benchmark from source and runs it with the given
# arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload agg-chain --seed 1 --seconds 50 --trace 0
#   bash perfbench/run.sh --compare OLD NEW
#
# Every build product (the Go build cache and the binary) and every
# result file stays under the build directory: $CARGO_TARGET_DIR when
# set, .bench_build otherwise.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --results "$build/results" "$@"
