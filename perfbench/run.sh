#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload tcp_upload --seed 1 --seconds 30 --trace 0
# Everything the build writes stays under .bench_build in the current
# directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local CGO_ENABLED=0
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)

if [ -d .git ]; then
	PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
exec "$out/perfbench" "$@"
