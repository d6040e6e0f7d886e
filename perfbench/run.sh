#!/usr/bin/env bash
# Builds cmd/ejserve and the benchmark from source, then runs one workload:
#
#	bash perfbench/run.sh --workload join-scan --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ejserve" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/ejserve here)" >&2
	exit 1
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
go build -o "$out/ejserve" ./cmd/ejserve
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/ejserve" -work "$out" "$@"
