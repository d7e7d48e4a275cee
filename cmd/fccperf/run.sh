#!/usr/bin/env bash
# Builds fccperf from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash cmd/fccperf/run.sh --workload oltp-hot --seed 1 --seconds 25 --trace 0
#   bash cmd/fccperf/run.sh -seed 1 -o out.json
#
# The binary, the Go build cache and the go command's own configuration
# and telemetry files live in .bench_build/ at the root, so nothing is
# read from or written to a shared location, and repeated runs rebuild
# only what changed. The toolchain is the installed one; no module is
# ever downloaded.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C "$root/cmd/fccperf" -o "$out/fccperf" .
# One P for the benchmark (main.go says why); the build above uses all.
GOMAXPROCS=1 exec "$out/fccperf" "$@"
