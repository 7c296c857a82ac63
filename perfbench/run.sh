#!/bin/sh
# Builds the benchmark (this directory, a module of its own) and the
# pagd daemon from the checkout's sources into .bench_build/, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#	sh perfbench/run.sh --workload cold-course --seed 1 --seconds 12 --trace 0
#
# The Go build cache and temporary files live under .bench_build/ too,
# so a run reads and writes nothing outside the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/pagbench" .)
go build -o "$out/pagd" ./cmd/pagd
exec "$out/pagbench" -pagd "$out/pagd" -workdir "$out/work" "$@"
