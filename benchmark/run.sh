#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh --workload vm-ras --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# goes under .bench_build at the repository root; nothing is downloaded.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$bench_dir")/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
export GOFLAGS=-buildvcs=false GOWORK=off

(cd "$bench_dir" && go build -o "$out/ras-benchmark" .)
exec "$out/ras-benchmark" "$@"
