#!/usr/bin/env sh
# Static and smoke gate for the nested benchmark package, which the root
# ci.sh cannot see (it is not a member of the root workspace).
#
#   benchmark/check.sh     fmt, clippy -D warnings, harness tests, smoke pass
set -eu

cd "$(dirname "$0")/.."
MANIFEST=benchmark/Cargo.toml
# Share the root build cache unless the caller chose a target directory.
TARGET="${CARGO_TARGET_DIR:-target}"

echo "==> cargo fmt --check (benchmark)"
cargo fmt --manifest-path "$MANIFEST" --check

echo "==> cargo clippy -D warnings (benchmark)"
cargo clippy --manifest-path "$MANIFEST" --target-dir "$TARGET" --all-targets --offline -- -D warnings

echo "==> harness unit tests"
cargo test -q --manifest-path "$MANIFEST" --target-dir "$TARGET" --offline

# Tiny sizes, verification on, numbers not reported: every workload, untraced
# and traced, each in its own process. Fails if any output is wrong.
echo "==> smoke pass (all workloads, untraced + traced)"
cargo run -q --release --manifest-path "$MANIFEST" --target-dir "$TARGET" --offline -- \
    --smoke --seconds 1 --seed 1

echo "benchmark check passed"
