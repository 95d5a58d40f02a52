#!/bin/sh
# Build and run the benchmark (bench/perf/perf.exe) from the repository
# root; every argument is passed to perf.exe.  Refuses to run outside a
# full checkout, where the libraries it measures are missing.  The dune
# cache is off so that building writes nothing outside the checkout.
cd "$(dirname "$0")/../.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perf: not a full checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
DUNE_CACHE=disabled exec dune exec --root . --no-print-directory --display quiet \
  bench/perf/perf.exe -- "$@"
