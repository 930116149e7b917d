#!/usr/bin/env bash
# Builds geleed and the benchmark from this checkout into .bench_build,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload advance --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, Go's own
# configuration and every run's data directory stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
cd "$root/perfbench"
# Both binaries are built from the sources in this checkout: geleed
# through the replace directive in perfbench/go.mod.
HOME="$out" go build -o "$out/geleed" github.com/liquidpub/gelee/cmd/geleed
HOME="$out" go build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -bin "$out" "$@"
