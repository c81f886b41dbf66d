#!/usr/bin/env bash
# Builds cmd/symbench from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/symbench/run.sh --workload ssm-qce --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the build's temporary files and the
# benchmark's scratch corpora all stay under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C cmd/symbench build -o "$out/symbench" .
exec "$out/symbench" "$@"
