#!/usr/bin/env sh
# The driver's steadiness test, run locally: two full sets of untraced runs
# (default 10 per workload and set, run k with seed SEED+k) and, per workload
# and end-to-end metric, each set's median, its quartile spread as a share of
# the median, and how much worse the second median is — against the bound in
# BENCHMARK.json. Exits non-zero if any metric is outside its bound.
#
#   benchmark/repeat.sh [RUNS] [SEED]      (about 2*RUNS*4*25 s)
set -eu

cd "$(dirname "$0")/.."
RUNS="${1:-10}"
SEED="${2:-1}"
exec cargo run -q --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir "${CARGO_TARGET_DIR:-target}" -- --repeat "$RUNS" --seed "$SEED"
