#!/usr/bin/env bash
# Builds the load generator from this checkout's sources and runs it
# with the given arguments, from the checkout's root. Build outputs and
# the Go build cache stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/loadbench" && go build -trimpath -buildvcs=false -o "$out/loadbench" .) >&2
cd "$root"
exec "$out/loadbench" "$@"
