#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build cache, Go config) stays
# under .bench_build at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) out="$CARGO_TARGET_DIR" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
cd "$root/perfbench"
go build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
