#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the repository root:
#
#   bash cmd/mlight-perf/run.sh --workload tcp-cluster --seed 1 --seconds 10 --trace 0
#
# Builds mlight-perf from the sources of the current tree on every
# invocation and runs it with the given arguments, so what is measured is
# always what the tree holds: after an edit or a checkout of another commit
# `go build` recompiles, and with nothing changed the kept build cache makes
# it a sub-second no-op. Build cache, binary, WAL temp dirs and trace files
# all stay under .bench_build/ in the current directory, so a run reads and
# writes nothing outside its checkout.
set -euo pipefail

root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache
export GOTOOLCHAIN=local
export TMPDIR=$out/tmp

# The commit is stamped into the binary when it is built, from the tree it is
# built from: HEAD, plus "-dirty" when a Go source differs from HEAD, or
# "unknown" where the tree is not a git checkout of its own (an exported
# copy). -buildvcs=false because such a copy must build too, and because a
# .git further up the path would belong to something else.
commit=unknown
if [ -e "$here/../../.git" ] && rev=$(git -C "$here" rev-parse --short HEAD 2>/dev/null); then
	commit=$rev
	if [ -n "$(git -C "$here/../.." status --porcelain -- '*.go' '*.mod' 2>/dev/null)" ]; then
		commit=$rev-dirty
	fi
fi

# XDG_CONFIG_HOME: the go command keeps its telemetry counters under the
# user's config dir; for this build that is inside the checkout too.
(cd "$here" && XDG_CONFIG_HOME=$out/config go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/mlight-perf" .) >&2
exec "$out/mlight-perf" "$@"
