#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash e2ebench/run.sh --workload cold_app --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, temporary files and the go
# command's own config and telemetry files stay under .bench_build/ in
# the checkout.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
