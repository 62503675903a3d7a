#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload livermore --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  Everything the Go toolchain writes
# (build cache, temporary files, the binary) goes under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
