#!/usr/bin/env bash
# Builds the placement benchmark and the dpplaced daemon from the source tree
# this script sits in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload flat-13k --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the tree (Go build cache, binaries, designs, daemon data).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home" "$out/bin"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/home/go"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/bin/perfbench" .)
(cd "$root" && go build -o "$out/bin/dpplaced" ./cmd/dpplaced)

commit=unknown
if git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
exec "$out/bin/perfbench" -root "$root" -daemon "$out/bin/dpplaced" -commit "$commit" "$@"
