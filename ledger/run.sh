#!/usr/bin/env bash
# One benchmark run, from the root of an xsm checkout:
#
#   bash ledger/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds the benchmark (and the libraries it measures) from source with
# dune, then runs it; the last line of standard output is the result
# object.  Any other argument main.exe accepts is passed through, so
# `bash ledger/run.sh --ledger out.json --seed 1` works too.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f ledger/dune ]; then
  echo "ledger/run.sh: run this from the root of an xsm checkout" >&2
  exit 2
fi

command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true

# the shared dune cache lives outside the checkout; build inside it only
export DUNE_CACHE=disabled
dune build --root . --display quiet ./ledger/main.exe 1>&2
exec ./_build/default/ledger/main.exe "$@"
