#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload apps-sc --seed 1 --seconds 25 --trace 0
#
# Run from the root of a checkout. Everything the build and the run
# write (binary, Go build cache, Go's config and telemetry, temporary
# files, span files) stays under .bench_build/, or under
# $CARGO_TARGET_DIR when that is set. Outside a full checkout the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOSUMDB=off

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root: run from the root of a full checkout" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -outdir "$out" "$@"
