#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload <uts|sw|comm-netsim|comm-tcp> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh compare <old-output> <new-output>
#
# Everything the build writes (Go build cache, module cache, the binary,
# span files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root: the runtime's sources (go.mod, internal/) are not here" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOTELEMETRY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
