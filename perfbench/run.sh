#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the repository checkout. Every build and run output
# (Go build cache, module cache and the go command's telemetry and config
# files included) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
