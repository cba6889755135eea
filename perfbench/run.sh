#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments (see README.md). Build outputs stay inside the
# checkout: the binary and the Go build cache go to $CARGO_TARGET_DIR
# (default .bench_build), run outputs to .bench_out.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: $root is not a full conceptrank checkout (no go.mod or internal/)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
