#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it. Run from the
# root of the repository:
#
#   bash perfbench/run.sh --workload lib-compose --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, temporaries, the binary)
# goes under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
