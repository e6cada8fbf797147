#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the checkout root:
#
#   bash e2ebench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
#
# Build products and the Go build cache stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The toolchain's own configuration and telemetry files go there as well.
(cd "$root/e2ebench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/e2ebench" .) >&2
cd "$root"
exec "$out/e2ebench" "$@"
