#!/usr/bin/env bash
# Builds the PerfVec end-to-end benchmark from this checkout's sources and
# runs it with the given arguments, for example:
#
#	bash perfbench/run.sh --workload lstm --seed 1 --seconds 24 --trace 0
#
# Everything the build writes (compiler cache, temporaries, the binary) stays
# under .bench_build at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
