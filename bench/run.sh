#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the go tool writes (build cache, module cache,
# telemetry) is kept under .bench_build/ so a run touches nothing outside
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
