#!/usr/bin/env bash
# Build the campaign benchmark from source and run it.
#
#   bash campaignbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of an rrfd checkout: the benchmark links the rrfd
# libraries built from that checkout.  Build output goes to _build; the
# shared dune cache is disabled so nothing is written outside the tree.
set -euo pipefail

cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled

if command -v dune >/dev/null 2>&1; then
  DUNE=(dune)
else
  DUNE=(opam exec -- dune)
fi

"${DUNE[@]}" build --root . --profile release ./campaignbench/main.exe >&2
exec ./_build/default/campaignbench/main.exe "$@"
