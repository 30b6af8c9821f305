#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything
# the Go toolchain writes (build cache, temp files, telemetry) is kept
# inside the checkout's .bench_build directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
b="$root/.bench_build"
mkdir -p "$b/home" "$b/tmp"
export HOME="$b/home" XDG_CONFIG_HOME="$b/home/.config" XDG_CACHE_HOME="$b/home/.cache"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOTMPDIR="$b/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C benchmark -o "$b/rsbench" .
exec "$b/rsbench" "$@"
