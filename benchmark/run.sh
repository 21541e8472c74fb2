#!/usr/bin/env bash
# Builds the harness from source and runs it. Everything the build writes
# (compiler cache, binary) stays under .bench_build/ in the checkout, so a
# run reads and writes only inside the checkout it was started from.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
# Worker spill directories and other temporaries land here too.
export TMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/shbenchmark" .)
cd "$root"
exec "$build/shbenchmark" "$@"
