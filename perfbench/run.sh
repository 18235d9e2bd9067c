#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Build outputs, the Go build
# cache and the traced runs' span files go to $CARGO_TARGET_DIR, or to
# .bench_build when that is unset, so nothing is written outside the
# checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
  XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-out "$out" "$@"
