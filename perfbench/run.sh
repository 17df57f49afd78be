#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through. Run from the repository root:
#
#   bash perfbench/run.sh --workload jam-clique --seed 1 --seconds 35 --trace 0
#
# The build cache, the binary and the run's job stores stay inside the
# checkout, under .bench_build.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root of a full checkout" >&2
	exit 2
fi
out=.bench_build
mkdir -p "$out/home" "$out/tmp"
# The go tool keeps its cache, module cache, telemetry and work files
# under these directories; pointing them into the checkout keeps the
# build there.
HOME="$PWD/$out/home" XDG_CONFIG_HOME="$PWD/$out/home/.config" \
	GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache" \
	GOPATH="$PWD/$out/gopath" TMPDIR="$PWD/$out/tmp" GOTMPDIR="$PWD/$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= \
	go -C perfbench build -o "$PWD/$out/perfbench" .
exec "$out/perfbench" "$@"
