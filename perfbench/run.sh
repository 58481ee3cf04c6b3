#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload active_echo --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, temporary files, the binary) stays
# under .bench_build/ in the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .) >&2

# The commit under test: git's HEAD, or in a checkout without git a digest
# of the Go sources and module files, so every result names the code it
# measured.
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
else
	commit=src-sha256:$(cd "$root" && find . -path ./.bench_build -prune -o -type f \
		\( -name '*.go' -o -name go.mod -o -name go.sum \) -print | LC_ALL=C sort |
		xargs -d '\n' sha256sum | sha256sum | cut -c1-16)
fi
export PERFBENCH_COMMIT=$commit

cd "$root"
exec "$out/perfbench" "$@"
