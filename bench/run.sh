#!/usr/bin/env bash
# Builds cmd/semwebbench once and runs it in the foreground with the
# arguments given, from the root of the checkout:
#
#   bash bench/run.sh --workload point_read --seed 1 --seconds 20 --trace 0
#
# No `go run`, no background job, no spawned server: the service under
# test runs inside the benchmark process, which replaces this shell.
# Everything the build and the run write stays under .bench_build/ and
# bench/out/ of the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
# The toolchain's cache, module path and config (telemetry counters) all
# go under the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
go build -C cmd/semwebbench -o "$build/semwebbench" .
exec "$build/semwebbench" "$@"
