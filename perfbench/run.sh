#!/usr/bin/env bash
# Builds the perfbench binary from the checkout it is run in and runs it.
#
#   bash perfbench/run.sh --workload resident_large --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build output, Go cache and scratch
# file stays under the build directory (CARGO_TARGET_DIR when set, else
# .bench_build), so nothing outside the checkout is read or written
# beyond the Go toolchain itself.
set -euo pipefail

if [ ! -f perfbench/go.mod ] || [ ! -f go.mod ]; then
	echo "perfbench: run from the repository root (parent module go.mod not found)" >&2
	exit 2
fi

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd perfbench && go build -buildvcs=false -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
