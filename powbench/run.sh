#!/usr/bin/env bash
# Builds powserver, dabr and the powbench program from this checkout, then
# runs one workload:
#
#   bash powbench/run.sh --workload front-door --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/powserver" || ! -f "$root/powbench/go.mod" ]]; then
	echo "powbench: run from the root of an aipow checkout" >&2
	exit 2
fi

out="$root/.bench_build/powbench"
mkdir -p "$out/bin" "$out/xdg"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/xdg" GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/powserver" ./cmd/powserver
go build -o "$out/bin/dabr" ./cmd/dabr
(cd powbench && go build -o "$out/bin/powbench" .)

exec "$out/bin/powbench" -bin "$out/bin" -work "$out/runs" "$@"
