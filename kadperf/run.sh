#!/usr/bin/env bash
# Builds kadperf from the sources of the checkout it is run from, then runs
# it with the given arguments:
#
#   bash kadperf/run.sh --workload fig4_traffic --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Every build and run output stays
# under .bench_build/ there. It fails, printing no result, when the
# checkout lacks kadre's sources.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "kadperf: run from the root of a kadre checkout" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd kadperf && go build -o "$build/bin/kadperf" .) >&2
exec "$build/bin/kadperf" "$@"
