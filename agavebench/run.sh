#!/usr/bin/env bash
# Builds the agave CLI and the agavebench program from this checkout's
# sources, then runs agavebench with the given arguments, e.g.
#
#   bash agavebench/run.sh --workload fleet-chaos --seed 3 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, pass
# working files, span files) stays under .bench_build/ at the checkout root.
#
# The go command starts a detached telemetry sidecar process that can outlive
# it; the mode file below turns telemetry off so no process is left running.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/agave" ]]; then
	echo "agavebench: no agave sources at $root (need go.mod and cmd/agave)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
cd "$root"
go build -o "$build/bin/agave" ./cmd/agave
(cd agavebench && go build -o "$build/bin/agavebench" .)
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build/bin/agavebench" -agave "$build/bin/agave" -out "$build/out" -commit "$commit" "$@"
