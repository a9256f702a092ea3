#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash cmd/perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build
# cache, the binary, the trace cache, scratch state and the results
# log) goes under the build directory: $CARGO_TARGET_DIR when set,
# else .bench_build.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/perfbench"

# Keep the toolchain's own files (build cache, temporary work
# directories, module cache, user config and telemetry) inside the
# build directory too.
gohome=$out/perfbench/go
mkdir -p "$gohome/tmp"
export GOCACHE=$gohome/cache
export GOMODCACHE=$gohome/mod
export GOPATH=$gohome/path
export TMPDIR=$gohome/tmp
export XDG_CONFIG_HOME=$gohome/config
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/perfbench/perfbench" .) >&2

exec "$out/perfbench/perfbench" -out "$out" "$@"
