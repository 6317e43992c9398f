#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run from the
# repository root; arguments pass through to the benchmark binary:
#
#   bash perfbench/run.sh --workload discover --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build and module caches, the go
# command's config dir, the binary, the serve-append state directory
# and the traced runs' span files.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOENV=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
