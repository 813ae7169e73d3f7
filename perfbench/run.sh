#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
# Run from the repository root:
#   bash perfbench/run.sh --workload solve-dense --seed 1 --seconds 20 --trace 0
# The build cache and the binary go under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a repository checkout (go.mod and internal/ not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
