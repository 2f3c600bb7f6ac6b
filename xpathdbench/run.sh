#!/usr/bin/env bash
# Builds the xpathd benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash xpathdbench/run.sh --workload hot|cold|churn --seed N --seconds S --trace 0|1
#
# The binary, the Go build cache and span files go to
# $CARGO_TARGET_DIR/xpathdbench (default .bench_build/xpathdbench), so
# nothing is written outside the checkout.
set -euo pipefail
root="${CARGO_TARGET_DIR:-.bench_build}"
case "$root" in
/*) ;;
*) root="$PWD/$root" ;;
esac
out="$root/xpathdbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C xpathdbench -o "$out/xpathdbench" .
exec "$out/xpathdbench" --out "$out" "$@"
