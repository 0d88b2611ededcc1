#!/usr/bin/env bash
# Builds perfbench and the rostracer and modelsynth binaries from the
# checkout's sources and runs perfbench with the given arguments, e.g.
# from the repository root:
#
#   bash perfbench/run.sh --workload both --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binaries and the scratch trace stores.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/bin"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here/.." && go build -o "$out/bin/" ./cmd/rostracer ./cmd/modelsynth)
(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -dir "$out" "$@"
