#!/usr/bin/env bash
# Builds the benchmark against the repository's source and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build artefact (binary, Go build cache, Go config) stays under
# .bench_build in the working directory, and nothing is fetched: the
# benchmark and the program use only the standard library.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

# The run stays on one CPU, the first this process may use: the timed ops
# and the calibrator (calib.go) then share one core's speed, and no op
# waits for a thread on another core to wake. Where taskset is missing,
# the run is not pinned.
if command -v taskset >/dev/null; then
	cpu=$(taskset -pc $$ | sed 's/.*: *//; s/[,-].*//')
	exec taskset -c "$cpu" "$out/perfbench" "$@"
fi
exec "$out/perfbench" "$@"
