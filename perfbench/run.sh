#!/usr/bin/env bash
# Builds the benchmark and the binaries it drives from this checkout's
# sources, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write, the Go build cache and the go
# command's own config and telemetry included, stays in .bench_build/.
set -euo pipefail
out=.bench_build/perfbench
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(
	cd perfbench
	go build -o "$out/perfbench" .
	go build -o "$out/sweepd" fdgrid/cmd/sweepd
	go build -o "$out/experiments" fdgrid/cmd/experiments
) >&2
exec "$out/perfbench" --dir "$out" "$@"
