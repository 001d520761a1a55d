#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload region1-all --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact (the Go build cache,
# the binary, result and span files) stays under .bench_build/ in the
# current directory; CARGO_TARGET_DIR, when set, names that directory.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 2
fi
mkdir -p "$out/home" "$out/tmp"
export TMPDIR="$out/tmp"

(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTMPDIR="$out/tmp" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" -out "$out" "$@"
