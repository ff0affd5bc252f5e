#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --compare parent.txt change.txt
#
# Everything the build and the run leave behind (the Go build cache, the
# binary, scratch corpora and span dumps) goes under .bench_build/ in the
# checkout. The build needs the repository's own go.mod one level up, so
# outside a full checkout it fails and the script exits non-zero.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
