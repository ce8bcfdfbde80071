#!/usr/bin/env bash
# Builds the benchmark and runs one workload. Run it from the root of a
# checkout:
#
#   bash tpperf/run.sh --workload paper|serve|sessions --seed N --seconds S --trace 0|1
#
# Everything it writes stays inside the checkout, under .bench_build:
# the Go build cache, temporary build files, the benchmark binary, and
# the scratch and trace output of each run.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/tpperf/go.mod" ]; then
	echo "tpperf: run from the root of a checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/tpperf" && go build -o "$out/bin/tpperf" .)
exec "$out/bin/tpperf" "$@"
