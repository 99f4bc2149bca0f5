#!/bin/sh
# Build the benchmark from this checkout's sources and run one workload:
#
#   sh benchmark/run.sh --workload age --seed 1 --seconds 15 --trace 0
#
# Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
# (default .bench_build) with dune's shared cache off, so nothing is
# written outside the checkout.  The last line of output is the result
# JSON; see benchmark/README.md.
set -e
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark/run.sh: run from the root of a full checkout" >&2
  exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
dune build --root . --build-dir "$build" --cache=disabled --display=quiet \
  ./benchmark/main.exe >&2
exec "$build/default/benchmark/main.exe" run "$@"
