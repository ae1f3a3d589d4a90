#!/usr/bin/env bash
# Builds topkserve and the perfbench load generator from this checkout's
# sources, then runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload search-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go build -o "$out/bin/topkserve" ./cmd/topkserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -server "$out/bin/topkserve" -work "$out/perfbench" "$@"
