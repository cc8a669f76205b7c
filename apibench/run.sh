#!/usr/bin/env bash
# Builds the public-API benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash apibench/run.sh --workload search-sald-exact --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, Go config) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off
(cd "$bench" && go build -o "$out/apibench" .) >&2
exec "$out/apibench" "$@"
