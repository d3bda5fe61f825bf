#!/usr/bin/env bash
# Builds the sweep benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload paper15 --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, temp files, go telemetry)
# and every trace export stays under .bench_build/ in the checkout. Outside
# a full checkout (no ../go.mod for the replace directive) the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
# The go command's local telemetry and env file live under the user config
# directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
