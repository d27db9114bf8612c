#!/usr/bin/env bash
# Builds cmd/pwd and the perfbench program from this checkout, then runs
# perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload probe-hot --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build output, the Go build cache and the
# generated databases stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off
mkdir -p "$out/bin" "$GOTMPDIR"
go build -o "$out/bin/pwd" ./cmd/pwd
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -pwd "$out/bin/pwd" -work "$out/run" "$@"
