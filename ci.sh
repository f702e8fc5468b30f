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

# Every tier builds x86_64 only, so code behind a cfg for another
# target_arch is code no tier compiles or tests.
echo "==> lint: no target_arch but x86_64 in crates/*/src or src/"
if grep -rnoE 'target_arch *= *"[^"]*"' crates/*/src src | grep -v '"x86_64"$'; then
    echo "a cfg above names a target_arch no CI tier builds; add" \
        "\`cargo check --target …\` for it to ci.sh first" >&2
    exit 1
fi

# AVX-512 is one lane-vector type behind the `Lanes` trait: its intrinsics
# live in that one file, and every kernel body stays generic over the width.
echo "==> lint: _mm512_ intrinsics only in crates/tensor/src/simd/lanes.rs"
if grep -rlF '_mm512_' crates/*/src src | grep -vx 'crates/tensor/src/simd/lanes.rs'; then
    echo "a file above names an _mm512_ intrinsic; add the operation to the" \
        "Lanes trait in crates/tensor/src/simd/lanes.rs instead" >&2
    exit 1
fi

# When and how wide a kernel fans out is rt::pool's decision alone (`split`,
# `row_blocks`): a kernel that reads the thread count or a threshold itself
# is a second policy. Test modules may pin a thread count.
echo "==> lint: no max_threads(, PAR_GEMM_FLOPS or PAR_ELEMS in crates/tensor/src"
POLICY=$(find crates/tensor/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { live = 1 }
    /^mod tests/ { live = 0 }
    live && /max_threads\(|PAR_GEMM_FLOPS|PAR_ELEMS/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$POLICY" ]; then
    echo "$POLICY" >&2
    echo "a kernel above decides its own fan-out; ask rt::pool::split (or" \
        "row_blocks) instead" >&2
    exit 1
fi

# A committed artifact must have a writer: a non-comment line under
# crates/bench/ or src/ that names the file in full. Deleting a bench or a
# binary without its output leaves an orphan that no run refreshes.
echo "==> lint: every file under results/ has a writer"
ORPHANS=0
for ARTIFACT in results/*; do
    NAME=$(basename "$ARTIFACT")
    if ! grep -rhF "$NAME" crates/bench src | grep -qvE '^[[:space:]]*(//|#)'; then
        echo "$ARTIFACT: no line under crates/bench/ or src/ writes it" >&2
        ORPHANS=1
    fi
done
if [ "$ORPHANS" -ne 0 ]; then
    echo "delete the orphan artifact above, or restore the code that writes it" >&2
    exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The benchmark is its own package (own [workspace], path deps on
# crates/*), invisible to every --workspace command above: check it here
# so API drift against it fails CI instead of the benchmark driver.
echo "==> cargo check (nested benchmark package)"
cargo check --offline --manifest-path benchmark/Cargo.toml --target-dir target

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

# The kernel knob accepts exactly auto|scalar|avx2: the strict flag rejects
# anything else, the forgiving variable warns once and runs the detected
# backend.
echo "==> kernel knob: --kernels neon fails, MFAPLACE_KERNELS=neon falls back"
if ./target/release/mfaplace kernels --kernels neon >/dev/null 2>&1; then
    echo "mfaplace kernels --kernels neon exited 0" >&2
    exit 1
fi
KNOB=$(mktemp -d)
KNOB_EXIT=0
MFAPLACE_KERNELS=neon ./target/release/mfaplace kernels >"$KNOB/out" 2>"$KNOB/err" ||
    KNOB_EXIT=$?
KNOB_ACTIVE=$(sed -n 's/^active backend: //p' "$KNOB/out")
KNOB_DETECTED=$(sed -n 's/^detected best: *//p' "$KNOB/out")
if [ "$KNOB_EXIT" -ne 0 ] || [ "$(wc -l <"$KNOB/err")" -ne 1 ] ||
    ! grep -q '^warning: ' "$KNOB/err" ||
    [ -z "$KNOB_ACTIVE" ] || [ "$KNOB_ACTIVE" != "$KNOB_DETECTED" ]; then
    echo "MFAPLACE_KERNELS=neon: want exit 0, one warning and the detected" \
        "backend (exit $KNOB_EXIT)" >&2
    cat "$KNOB/out" "$KNOB/err" >&2
    rm -rf "$KNOB"
    exit 1
fi
rm -rf "$KNOB"

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

# Plan ≡ tape, by name and ahead of the workspace pass: the tape, the plan
# and the Tensor methods all run the slice kernels in `tensor::lowlevel`, so
# a moved bit is attributed to them before a serving or training suite
# trips over it. plan_layout pins copy elision and the per-step profile of
# the serial, capture-order replay.
echo "==> plan ≡ tape: shared forward kernels + zoo equivalence + layout"
cargo test -q -p mfaplace-tensor --offline --lib lowlevel::tests
cargo test -q -p mfaplace-infer --offline --test plan_equivalence
cargo test -q -p mfaplace-infer --offline --test plan_layout

# The tape backward's contracts, by name and ahead of the workspace pass
# beside the gradient checks: every backward arm keeps its recorded bits
# (one table per backend, so both run here) and a warm backward takes no
# f32 buffer from the allocator. A moved gradient bit is attributed to the
# backward kernels before train_determinism or golden_regression trips.
echo "==> gradient checks + backward bits + allocation-free backward"
cargo test -q -p mfaplace-autograd --offline --test gradcheck_ops
cargo test -q -p mfaplace-autograd --offline --test backward_bits
MFAPLACE_KERNELS=scalar cargo test -q -p mfaplace-autograd --offline --test backward_bits
cargo test -q -p mfaplace-autograd --offline --test backward_no_alloc

echo "==> cargo test --offline (auto-detected kernel backend)"
cargo test -q --workspace --offline

# Second pass with the vector kernels disabled: the scalar reference path
# must stay green on its own, not just as the fallback arm of dispatch.
echo "==> cargo test --offline (forced scalar kernels)"
MFAPLACE_KERNELS=scalar cargo test -q --workspace --offline

echo "==> fused-attention equivalence + buffer-pool suite"
# The tape's attention ops, then MHSA, PAM, CAM and the whole MFA block,
# against the composed chains (which live only in these tests), under the
# detected backend and under forced scalar kernels. The CAM's aliased
# gradient keeps the composed summation order only while its transposes sit
# inside its one tape op; these are the tests that catch a move.
for KERNELS in auto scalar; do
    MFAPLACE_KERNELS=$KERNELS cargo test -q -p mfaplace-autograd --offline \
        --test attention_equivalence
    MFAPLACE_KERNELS=$KERNELS cargo test -q -p mfaplace-nn --offline --lib \
        attention::tests
    MFAPLACE_KERNELS=$KERNELS cargo test -q -p mfaplace-models --offline --lib \
        mfa::tests
done
# The attention kernels' other two contracts, by name, so a regression is
# attributed: any thread count gives the same bits, and a serial plan
# forward allocates nothing.
cargo test -q -p mfaplace-tensor --offline --test parallel_equivalence
# The feature-major forward's query-lane kernel against the composed chain,
# bit for bit, over ragged blocks, key tails, channel groups and threads.
cargo test -q -p mfaplace-tensor --offline --test fm_query_lane
# The 16-lane forward against the 8-lane one, bit for bit. On a host without
# AVX-512F the test passes with a skip note, so the log shows which width
# this run covered next to the width the kernels report.
./target/release/mfaplace kernels
cargo test -q -p mfaplace-tensor --offline --lib \
    attention::tests::sixteen_query_lanes_match_eight_bitwise -- --nocapture
# Both query-lane kernels against the four-pass tile, kept in the unit tests
# as their reference (forward and backward, bit for bit), and the conv
# lowering against its element loops (im2col writes every element; col2im
# keeps each pixel's term order).
cargo test -q -p mfaplace-tensor --offline --lib attention::tests
cargo test -q -p mfaplace-tensor --offline --test conv_lowering
# The direct convolution against the lowered path (im2col → GEMM →
# epilogue) and its backward kernels against the lowered backward (im2col →
# GEMM for the weight gradient, GEMM → col2im for the input gradient), bit
# for bit on every supported backend and at 1–3 threads, and the timer
# registry recovering from a panicking lock holder, and every pooled kernel
# family's split, pinned by the threads it spawns: each by name, under the
# detected backend and under forced scalar kernels.
for KERNELS in auto scalar; do
    MFAPLACE_KERNELS=$KERNELS cargo test -q -p mfaplace-tensor --offline \
        --test conv_lowering direct_conv
    MFAPLACE_KERNELS=$KERNELS cargo test -q -p mfaplace-tensor --offline \
        --test conv_lowering conv_backward
    MFAPLACE_KERNELS=$KERNELS cargo test -q -p mfaplace-rt --offline --lib \
        timer::tests::a_poisoned_registry_keeps_recording
    MFAPLACE_KERNELS=$KERNELS cargo test -q -p mfaplace-tensor --offline \
        --test fan_out_spawns every_kernel_family_keeps_its_split
done
cargo test -q -p mfaplace-infer --offline --test no_alloc

echo "==> training determinism + checkpoint/resume suite"
cargo test -q -p mfaplace-core --offline --test train_determinism

echo "==> golden regression suite"
cargo test -q -p mfaplace-core --offline --test golden_regression

echo "==> SIMD differential suite (vector kernels vs scalar reference)"
cargo test -q -p mfaplace-tensor --offline --test simd_equivalence
cargo test -q -p mfaplace-core --offline --test kernel_tolerance

# The engine is decided at load: a stale calibration is a load error (and a
# 409 on reload), quant without a calibration is refused, the file picks
# the engine, and a re-calibrated predictor serves its new calibration.
echo "==> engine decided at load: refusals + calibration-keyed int8 plans"
cargo test -q -p mfaplace-core --offline --lib predictor::tests
cargo test -q -p mfaplace-core --offline --lib \
    loader::tests::artifact_with_a_stale_calibration_is_a_load_error
cargo test -q -p mfaplace-core --offline --test plan_cache \
    a_recalibrated_predictor_serves_its_new_calibration
cargo test -q -p mfaplace-serve --offline --lib server::tests

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
./target/release/mfaplace model-info --model "$TMPQ/m.mfaq" |
    grep -q "quantized serving artifact" || {
    echo "model-info does not recognize the compiled artifact" >&2
    rm -rf "$TMPQ"
    exit 1
}
# A reader that stops early closes stdout under the CLI: it must end
# quietly, not panic on the broken pipe.
./target/release/mfaplace profile --model "$TMPQ/m.mfaq" 2>"$TMPQ/pipe.err" |
    head -1 >"$TMPQ/pipe.out"
if [ ! -s "$TMPQ/pipe.out" ] || [ -s "$TMPQ/pipe.err" ]; then
    echo "profile | head -1 wrote to stderr:" >&2
    cat "$TMPQ/pipe.err" >&2
    rm -rf "$TMPQ"
    exit 1
fi
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
# forward: the per-step medians of three replays must account for the
# median replay they timed.
echo "==> plan profile coverage (steps sum to >= 95% of the forward)"
./target/release/mfaplace profile --model "$TMP/m.mfaw" --repeat 3 >"$TMP/profile.txt"
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

# And to the training shard: the tape's per-op forward and backward times
# must account for the shard they timed.
echo "==> train profile coverage (ops sum to >= 95% of one training shard)"
./target/release/mfaplace profile --train --model "$TMP/m.mfaw" >"$TMP/train-profile.txt"
sed -n '1,3p' "$TMP/train-profile.txt"
tail -n 3 "$TMP/train-profile.txt"
awk '/^ops sum/ { found = 1; ok = ($NF + 0 >= 0.95) }
     END { exit !(found && ok) }' "$TMP/train-profile.txt" || {
    echo "train profile ops do not sum to >= 95% of the shard wall time" >&2
    cat "$TMP/train-profile.txt" >&2
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

echo "==> benchmark package gate (fmt, clippy, harness tests, smoke pass)"
benchmark/check.sh

echo "CI OK"
