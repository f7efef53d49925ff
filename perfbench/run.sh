#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, forwarding
# every argument. Run from the repository root:
#
#   bash perfbench/run.sh --workload recurring_hot --seed 1 --seconds 16 --trace 0
#
# Build caches and the binary stay inside the checkout, under .bench_build/.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps its config and telemetry counters under the user
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
