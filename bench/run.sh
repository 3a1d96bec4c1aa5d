#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes (binary, Go build cache, temporary files)
# stays in .bench_build/ inside the checkout. In a directory without the
# repository's go.mod and internal/ the build fails and this script exits
# non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/lonviz-bench" .)
cd "$root"
exec "$build/lonviz-bench" "$@"
