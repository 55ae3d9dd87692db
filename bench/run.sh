#!/bin/sh
# Builds the host-cost benchmark from the checkout's sources and runs it
# with the given flags. Run from the repository root:
#
#   sh bench/run.sh -seed 1
#
# Every build artifact (compiler cache, temporary files, the binary) stays
# under .bench_build/ in the checkout.
set -eu

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
