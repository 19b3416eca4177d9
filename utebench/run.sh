#!/bin/bash
# Entry point named by BENCHMARK.json: builds the harness (its own
# module, so the repo's `go build ./...` never sees it) and runs it from
# the checkout root. Everything written lands under .bench_build/.
set -euo pipefail
root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/gocache" "$work/gotmp" "$work/bin"
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local
(cd "$root/utebench" && go build -o "$work/bin/utebench" .)
exec "$work/bin/utebench" -root "$root" "$@"
