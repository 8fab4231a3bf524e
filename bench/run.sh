#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build leaves behind goes under
# .bench_build/ at the root of the checkout; nothing outside is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
cd "$here"
# VCS stamping gives the fingerprint its commit; a checkout that is not a
# repository (or has no usable git) builds without it.
go build -o "$build/typhoon-bench" . 2>"$build/build.log" ||
	go build -buildvcs=false -o "$build/typhoon-bench" .
cd "$root"
exec "$build/typhoon-bench" "$@"
