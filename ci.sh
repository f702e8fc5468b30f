#!/usr/bin/env sh
# Local CI gate. Everything runs offline — the workspace has no external
# dependencies (see DESIGN.md, "zero-external-dependency policy").
#
#   ./ci.sh          full gate: lints, build, tests, training/determinism
#                    suites, smoke runs, benches
#   ./ci.sh --quick  same minus the benches and smoke runs (fast tier)
set -eu

cd "$(dirname "$0")"

QUICK=0
if [ "${1:-}" = "--quick" ]; then
    QUICK=1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The benchmark is its own package (own [workspace], path deps on
# crates/*), invisible to every --workspace command above: check it here
# so API drift against it fails CI instead of the benchmark driver.
echo "==> cargo check (nested benchmark package)"
cargo check --offline --manifest-path benchmark/Cargo.toml --target-dir target

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

# The feature rasterizer's contract first of all: flow hashes, serve replies
# and datasets all sit downstream of `fpga` feature bits, so a moved bit is
# attributed here before gp_fingerprint or a serve suite trips over it.
echo "==> feature rasterizer: f64 differential + net-order independence"
cargo test -q -p mfaplace-fpga --offline --test raster_exact

# The placer's two contracts, by name and ahead of the workspace pass, so a
# moved bit or a new per-iteration allocation is attributed to global
# placement before flow_determinism or jobs_e2e trip over it.
echo "==> global placement: recorded bits + allocation-free iterations"
cargo test -q -p mfaplace-placer --offline --test gp_fingerprint
cargo test -q -p mfaplace-placer --offline --test gp_no_alloc

echo "==> cargo test --offline (auto-detected kernel backend)"
cargo test -q --workspace --offline

# Second pass with the vector kernels disabled: the scalar reference path
# must stay green on its own, not just as the fallback arm of dispatch.
echo "==> cargo test --offline (forced scalar kernels)"
MFAPLACE_KERNELS=scalar cargo test -q --workspace --offline

echo "==> gradient checks (primitives + MFA/transformer modules)"
cargo test -q -p mfaplace-autograd --offline --test gradcheck_ops

echo "==> fused-attention equivalence + buffer-pool suite"
cargo test -q -p mfaplace-autograd --offline --test attention_equivalence
cargo test -q -p mfaplace-nn --offline --test fused_attention
cargo test -q -p mfaplace-models --offline --test fused_mfa
# The attention kernels' other two contracts, by name, so a regression is
# attributed: any thread count gives the same bits, and a serial plan
# forward allocates nothing.
cargo test -q -p mfaplace-tensor --offline --test parallel_equivalence
# The feature-major forward's query-lane kernel against the composed chain,
# bit for bit, over ragged blocks, key tails, channel groups and threads.
cargo test -q -p mfaplace-tensor --offline --test fm_query_lane
cargo test -q -p mfaplace-infer --offline --test no_alloc

echo "==> training determinism + checkpoint/resume suite"
cargo test -q -p mfaplace-core --offline --test train_determinism

echo "==> golden regression suite"
cargo test -q -p mfaplace-core --offline --test golden_regression

echo "==> SIMD differential suite (vector kernels vs scalar reference)"
cargo test -q -p mfaplace-tensor --offline --test simd_equivalence
cargo test -q -p mfaplace-core --offline --test kernel_tolerance

# Quantized serving round trip: offline compile writes an artifact that
# model-info recognizes and a server loads without re-calibrating; a
# predict through the quant engine must answer.
echo "==> quantized compile + quant-serving smoke"
TMPQ=$(mktemp -d)
./target/release/mfaplace generate --design 116 --seed 1 \
    --scale 512,64,32 --out "$TMPQ/d.nl" >/dev/null
./target/release/mfaplace init-model --arch ours --grid 16 --seed 3 \
    --out "$TMPQ/m.mfaw" >/dev/null
./target/release/mfaplace compile --model "$TMPQ/m.mfaw" --calib "$TMPQ/d.nl" \
    --placements 1 --iterations 2 --out "$TMPQ/m.mfaq"
# Capture to a file rather than `| grep -q`: grep exiting at first match
# would close the pipe while model-info is still printing (SIGPIPE panic).
./target/release/mfaplace model-info --model "$TMPQ/m.mfaq" >"$TMPQ/info.txt"
grep -q "quantized serving artifact" "$TMPQ/info.txt" || {
    echo "model-info does not recognize the compiled artifact" >&2
    rm -rf "$TMPQ"
    exit 1
}
./target/release/mfaplace place --design "$TMPQ/d.nl" --flow seu --seed 1 \
    --iterations 2 --out "$TMPQ/p.pl" >/dev/null
./target/release/mfaplace serve --model "$TMPQ/m.mfaq" \
    --addr 127.0.0.1:8958 >"$TMPQ/serve.log" 2>&1 &
QUANT_SERVE_PID=$!
sleep 1
if ! ./target/release/mfaplace predict --addr 127.0.0.1:8958 --engine quant \
    --design "$TMPQ/d.nl" --placement "$TMPQ/p.pl"; then
    echo "quant predict failed; serve log:" >&2
    cat "$TMPQ/serve.log" >&2
    kill "$QUANT_SERVE_PID" 2>/dev/null || true
    rm -rf "$TMPQ"
    exit 1
fi
kill "$QUANT_SERVE_PID" 2>/dev/null || true
wait "$QUANT_SERVE_PID" 2>/dev/null || true
rm -rf "$TMPQ"

if [ "$QUICK" = "1" ]; then
    echo "CI OK (quick tier: benches and smoke runs skipped)"
    exit 0
fi

# The quant engine must be safe to force globally: anywhere a predictor
# has no calibration it falls back to the f32 plan bitwise, so the whole
# workspace stays green under MFAPLACE_ENGINE=quant.
echo "==> workspace once under the quant engine"
MFAPLACE_ENGINE=quant cargo test -q --workspace --offline

echo "==> 2-worker training smoke (CLI train path)"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
./target/release/mfaplace generate --design 180 --seed 1 \
    --scale 512,64,32 --out "$TMP/d.nl" >/dev/null
MFAPLACE_TRAIN_WORKERS=2 ./target/release/mfaplace train \
    --design "$TMP/d.nl" --out "$TMP/m.mfaw" \
    --grid 32 --channels 4 --epochs 1 --placements 2 --iterations 4
./target/release/mfaplace model-info --model "$TMP/m.mfaw"

# The kernel backend must be reported identically everywhere it surfaces:
# the `kernels` subcommand, `model-info`, and (asserted by the serve unit
# tests above) the `mfaplace_kernel_backend` metrics gauge.
echo "==> kernel-backend report consistency (kernels vs model-info)"
ACTIVE=$(./target/release/mfaplace kernels | sed -n 's/^active backend: //p')
REPORTED=$(./target/release/mfaplace model-info --model "$TMP/m.mfaw" \
    | sed -n 's/^  kernel backend: //p')
if [ -z "$ACTIVE" ] || [ "$ACTIVE" != "$REPORTED" ]; then
    echo "kernel backend mismatch: kernels='$ACTIVE' model-info='$REPORTED'" >&2
    exit 1
fi
echo "    active backend: $ACTIVE (consistent)"

# ROADMAP item 1's "stages sum to the end-to-end figure", applied to the
# forward: the per-step profile must account for the replay it timed.
echo "==> plan profile coverage (steps sum to >= 95% of the forward)"
./target/release/mfaplace profile --model "$TMP/m.mfaw" >"$TMP/profile.txt"
sed -n '1,3p;$p' "$TMP/profile.txt"
awk '/^steps sum/ { found = 1; ok = ($NF + 0 >= 0.95) }
     END { exit !(found && ok) }' "$TMP/profile.txt" || {
    echo "profile steps do not sum to >= 95% of the replay wall time" >&2
    cat "$TMP/profile.txt" >&2
    exit 1
}

# The same rule one level up the flow: the five pass timers inside
# GlobalPlacer::run_stage_observed must account for the GP stages.
echo "==> flow profile coverage (passes sum to >= 95% of the GP stages)"
./target/release/mfaplace profile --flow ours --design "$TMP/d.nl" >"$TMP/flow-profile.txt"
cat "$TMP/flow-profile.txt"
awk '/^passes sum/ { found = 1; ok = ($NF + 0 >= 0.95) }
     END { exit !(found && ok) }' "$TMP/flow-profile.txt" || {
    echo "flow profile passes do not sum to >= 95% of placer/gp_stage" >&2
    exit 1
}

echo "==> serve smoke test"
cargo run -q --release --offline -p mfaplace-serve --example smoke

echo "==> two-slot fleet smoke test"
cargo run -q --release --offline -p mfaplace-serve --example fleet_smoke

echo "==> placement-jobs smoke test (two concurrent jobs, one slot)"
cargo run -q --release --offline -p mfaplace-jobs --example jobs_smoke

echo "==> train-throughput bench (results/train_parallel.json)"
MFA_SCALE=quick cargo run -q --release --offline -p mfaplace-bench \
    --bin train_parallel >/dev/null

echo "==> SIMD kernel bench, one child per backend (results/simd_kernels.json)"
cargo bench -q --offline -p mfaplace-bench --bench simd_kernels

echo "==> fused-attention bench (results/attention_fused.json)"
cargo bench -q --offline -p mfaplace-bench --bench attention_fused

echo "==> compiled-plan bench (results/infer_plan.json)"
cargo bench -q --offline -p mfaplace-bench --bench infer_plan

echo "==> fleet scaling bench (results/serve_fleet.json)"
cargo bench -q --offline -p mfaplace-bench --bench serve_fleet

echo "==> placement-jobs bench (results/serve_jobs.json)"
cargo bench -q --offline -p mfaplace-bench --bench serve_jobs

echo "==> benchmark package gate (fmt, clippy, harness tests, smoke pass)"
benchmark/check.sh

echo "CI OK"
