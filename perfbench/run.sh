#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every
# file the Go toolchain writes (build cache, temp files, telemetry
# counters) stays under .bench_build in the checkout root, which must be
# the working directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOFLAGS= \
	GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
