#!/usr/bin/env bash
# Serving benchmark launcher. Run from the repository root:
#
#   bash perfbench/run.sh --workload ffthist-seed --seed 1 --seconds 10 --trace 0
#
# It builds cmd/pipemap and the benchmark from the tree it runs in, keeping
# every build artifact and Go cache under .bench_build/, then runs one pass.
# The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/pipemap" ]; then
	echo "perfbench: run from the repository root (cmd/pipemap and go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go build -o "$out/pipemap" ./cmd/pipemap
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -pipemap "$out/pipemap" "$@"
