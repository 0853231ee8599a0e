#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload round --seed 1 --seconds 25 --trace 0
#
# Run from the repository root.  The build cache, the binary and the
# server's data directories all stay under .bench_build in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/platform ]]; then
	echo "perfbench: run from the repository root (no go.mod or internal/platform here)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
