#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it; the arguments pass through to the binary (see main.go):
#
#   bash mthbench/run.sh --workload table_sweep --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and any
# Go tool state stay under .bench_build/ there.
set -euo pipefail
out="$(pwd)/.bench_build"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
  GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$src" && go build -o "$out/mthbench" .)
exec "$out/mthbench" "$@"
