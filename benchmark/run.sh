#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. Everything the Go toolchain writes (build cache, module
# cache, temporary files, telemetry) is kept under .bench_build, so nothing
# outside the checkout is touched.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/macro" .)
cd "$root"
exec "$build/macro" "$@"
