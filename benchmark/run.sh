#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it with the
# arguments given.  Everything the build and the run write — Go's build
# cache, the binary, temporary store journals — stays under .bench_build/
# and benchmark/out/ of the checkout.
set -eu
root=$(pwd)
build=$root/.bench_build/dhpfbench
mkdir -p "$build/tmp" "$build/home"
export HOME=$build/home
export GOCACHE=$build/gocache
export GOTOOLCHAIN=local
export TMPDIR=$build/tmp
(cd "$root/benchmark" && go build -o "$build/dhpfbench" .)
exec "$build/dhpfbench" "$@"
