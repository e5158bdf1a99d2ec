#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the checkout
# root and runs it with the arguments given. Every file the Go toolchain
# writes (build cache, temporaries, the binary) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/ppc-benchmark" .)
cd "$root"
exec "$out/ppc-benchmark" "$@"
