#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
