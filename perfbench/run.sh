#!/usr/bin/env bash
# Builds the benchmark and the xringd daemon from the checkout it is run
# in, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload synth-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# daemon persist directories, span files) goes to .bench_build/ under
# the repository root.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

# With telemetry in its default "local" mode, the go command starts a
# detached telemetry sidecar process the first time it runs against a
# fresh config directory, and that process outlives the build. Turn
# telemetry off in the config directory so the build starts nothing that
# keeps running after it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go -C "$root" build -o "$out/bin/xringd" ./cmd/xringd >&2
go -C "$bench" build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -xringd "$out/bin/xringd" -workdir "$out/run" "$@"
