#!/bin/sh
# Build the benchmark from this checkout's sources and run it:
#   sh perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr, so the result stays the last line of stdout.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no dune-project and lib/ beside perfbench/; run from a checkout of the repository" >&2
  exit 2
fi
# The shared dune cache would write outside the checkout.
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
