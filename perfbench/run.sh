#!/bin/sh
# Build the NFactor benchmark from this checkout's sources, then run it.
#
#   sh perfbench/run.sh --workload synth|serve|chain|verify --seed N \
#       --seconds S --trace 0|1
#
# Build output goes to standard error, so the last line of standard
# output is the benchmark's JSON result. Builds stay inside the
# checkout: dune's shared cache (under the home directory) is disabled.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d perfbench ]; then
  echo "perfbench: $(pwd) is not an NFactor source checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
