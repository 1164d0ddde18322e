#!/usr/bin/env bash
# Builds flowserve, flowworker and the benchmark from this checkout's
# sources, then runs the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload bulk-join --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, logs
# and spill files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/flowserve" || ! -d "$root/cmd/flowworker" ]]; then
	echo "perfbench: run from the repository root; no flowserve sources under $root" >&2
	exit 1
fi
work="$root/.bench_build"
mkdir -p "$work/bin" "$work/spill"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOPATH="$work/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$work/bin/flowserve" ./cmd/flowserve
go build -o "$work/bin/flowworker" ./cmd/flowworker
(cd perfbench && go build -o "$work/bin/perfbench" .)
exec "$work/bin/perfbench" -bin "$work/bin" -work "$work" "$@"
