#!/usr/bin/env bash
# Builds cspd and the benchmark program (cspdbench) from this checkout,
# then runs the benchmark. Run it from the repository root:
#
#   bash cspdbench/run.sh --workload hit-warm --seed 1 --seconds 10 --trace 0
#   bash cspdbench/run.sh --steady 10 --seconds 20    # steadiness check
#
# Everything the build and the runs write goes under .bench_build/cspdbench
# in the checkout: the Go build cache and module path, the go command's
# telemetry, both binaries, wide-event files and the replay spans. Build
# output goes to stderr, so the last line of stdout is the benchmark's JSON
# result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/cspdbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps telemetry
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOENV=off
# Telemetry off: in its default mode the go command forks a detached
# telemetry process that outlives the build. This is the file that
# `go telemetry off` writes; writing it directly works on any Go version.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/cspd" ./cmd/cspd >&2
(cd cspdbench && go build -o "$out/cspdbench" .) >&2
exec "$out/cspdbench" -cspd "$out/cspd" -out "$out" "$@"
