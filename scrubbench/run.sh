#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root. Every build artefact (binary, Go build cache, temporary
# files) stays under .bench_build in the checkout; the toolchain never
# reaches for the network.
#
#   bash scrubbench/run.sh --workload paper-demand --seed 1 --seconds 25 --trace 0
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the toolchain's config and telemetry files in the
# checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd scrubbench && go build -o "$out/scrubbench" .)

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/scrubbench" -commit "$commit" "$@"
