//! Fused streamed attention: one kernel, two layouts.
//!
//! Computes `softmax(q·kᵀ·scale)·v` without the `[L, L]` score and softmax
//! matrices (peak activation memory `O(block·L)`, not `O(L²)`); the
//! backward recomputes scores instead of reading a stored softmax.
//!
//! The kernel is **feature-major** (`[B, D, L]`), the layout of the position
//! attention (PAM) and of multi-head self-attention's heads. The channel
//! attention (CAM) is **token-major** (`[B, L, D]`: its tokens are the rows
//! of a `[B, N, HW]` feature), and `attention_tm*` serve it as a layout
//! adapter over the one kernel: transpose the operands into caller scratch,
//! run the kernel, transpose the output or the gradients back. Moving bits
//! does not change them, so the adapter has the kernel's bits.
//!
//! The transposes sit inside the op, not in permute nodes around it, for
//! the CAM's gradient: with `q = k = v = M` and the residual adding `M`
//! again, four contributions meet in `M`'s gradient, and the composed chain
//! sums them `((gy + dv) + dk) + dq`. One op handing back `dv`, `dk`, `dq`
//! keeps that sum; a permute node would first add the three in its own
//! gradient, `gy + ((dv + dk) + dq)`, and move the CAM's bits. (Moving the
//! residual into the transposed layout instead reorders `beta`'s gradient.)
//!
//! # Bitwise contract
//!
//! For finite inputs, forward outputs and all three input gradients are
//! **bitwise identical** to the composed op sequence
//! (`permute → bmm → scale → softmax → bmm` and its reverse) that the
//! autograd tape would otherwise record, **under whichever kernel backend
//! is active** (`crate::simd`): the scalar arms below are the verbatim
//! reference loops, and the vector arms express the same computation as
//! query-lane sweeps whose per-element FMA chains coincide with the
//! composed GEMMs run under the same backend. Specifically, for the scalar
//! backend:
//!
//! - every per-element reduction runs over its contraction index in
//!   increasing order, matching the composed GEMM/softmax loops;
//! - the softmax replicates [`Tensor::softmax_lastdim`] exactly (row max
//!   via `f32::max` fold, one exp/sum pass, one divide pass);
//! - the scale factor multiplies the finished dot product, exactly like
//!   the composed elementwise `Scale` node (`x * 1.0` is the bitwise
//!   identity, so callers without a composed scale node pass `1.0`);
//! - GEMM zero-skips differ from the composed path only in *which* exact
//!   ±0.0 product terms are skipped. Under round-to-nearest an `f32`
//!   accumulator that starts at +0.0 can never become -0.0, and adding
//!   ±0.0 to it never changes its bits, so skipping any subset of zero
//!   products is bitwise neutral for finite data.
//!
//! # Blocks, lanes and threads
//!
//! The forward works on independent blocks of query columns — one vector's
//! worth on the query-lane path (`simd::query_lanes`: 16 where the host has
//! AVX-512F, else 8) — and when `rt::pool::split` grants workers for
//! `L²·(D + Dv)` flops the blocks fan out over the `rt` pool. A block's
//! outputs depend on nothing another block writes and every output element
//! is one FMA chain in contraction order, so the result is bitwise
//! identical at any thread count. Blocks are output *columns*, so in
//! parallel each is computed into a block-local `[Dv, t]` tile of a staging
//! buffer and scattered after the join. The serial paths take every buffer
//! from the caller or from this thread's kernel scratch and allocate
//! nothing; the parallel paths allocate per worker.
//!
//! ## Queries in the lanes
//!
//! The vector path. A four-pass tile — score GEMM, softmax, transposed
//! pack, value GEMM, kept in the unit tests as the reference the query-lane
//! kernels are held to bit for bit — spends most of its time rearranging: a
//! K = 2 "GEMM" through packed panels is an outer product paying GEMM
//! overheads, the exp sweep wants lanes along keys while the value product
//! wants lanes along queries (hence the transposed pack, and a divide that
//! runs at scalar-code width). In `[D, L]` layout the query
//! columns `q[p, y0..y0 + W]` are already contiguous, so putting the
//! *queries* in the `W` lanes of one vector and looping over the key index
//! removes the gather, both packs, the transpose and the second GEMM: three
//! sweeps over an `[L, W]` scratch (`simd::fm_query_block`), each element
//! seeing exactly the composed chain's operations. `W` is 16 (`__m512`)
//! where the host has AVX-512F and 8 (`__m256`) otherwise, one generic
//! kernel body over both (`simd/lanes.rs`); no step below depends on how
//! many queries share a register, so both widths give every output the
//! same bits:
//! 1. **score** — `s = fma(q_{n−1}, k_{n−1}[x], … fma(q_0, k_0[x], +0)) ·
//!    scale`: the score microkernel's accumulator, started at `+0` and
//!    walked over the channel index in increasing order (`fma` is
//!    commutative in its factors, so which one is broadcast is immaterial),
//!    then the `Scale` node's IEEE multiply; the running max is exact in
//!    any order;
//! 2. **exp** — `e = exp(s − m)`, added into *eight* sum vectors keyed by
//!    `x mod 8`, combined `((z0+z4)+(z1+z5))+((z2+z6)+(z3+z7))`, then the
//!    `L mod 8` tail through `exp_scalar` in index order. The row softmax
//!    (`exp_row_scaled`) keeps one 8-lane running sum whose lane `j` adds
//!    keys `j, j + 8, …` in order; with queries in the lanes that lane is
//!    the query's entry of vector `z_j`, so eight vectors and the same tree
//!    reproduce its lane partials, its fixed tree and its tail, transposed
//!    (this eight is the row softmax's lane count, not `W`);
//! 3. **divide + value** — `w = e / z` (one IEEE divide, the same bits at
//!    any width) and `o_c = fma(v[c,x], w, o_c)` for `x` increasing: the
//!    value microkernel's one chain per output in contraction order.
//!
//! Signed zeros need no argument beyond the four-pass tile's: no vector
//! backend zero-skips, chains start at `+0` exactly as the microkernel's
//! do, and `exp` maps `±0` to the same `1.0`, so a max of `+0` or `−0` is
//! invisible. Calls without channels (`n = 0` or `nv = 0`, which no model
//! builds) are outside the kernel's contract and take the scalar loop.
//!
//! The backward keeps the queries in the lanes too, eight at
//! a time on every host (`simd::fm_query_block_backward`): the forward's
//! 8-lane score and exp sweeps recompute `e` and `z`; a third sweep forms
//! `w`, the upstream products `g` and their `dot`; a fourth the score
//! gradients and `dq`; and a fifth transposes eight keys at a time into the
//! lanes so `dv` and `dk` continue their chains over the query index. Per
//! element these are the four-pass tile backward's operations in its order
//! — the kernel's docs argue it sweep by sweep — so the tile stays only as
//! the unit tests' reference.

use mfaplace_rt::pool::{self, Work};

use crate::simd::{self, Backend, QUERY_LANES};
use crate::{lowlevel, Tensor};

/// Token-major attention: `q, k: [B, L, D]`, `v: [B, L, Dv] -> [B, L, Dv]`,
/// `out[b, i, c] = Σ_j softmax_j(Σ_p q[b,i,p]·k[b,j,p] · scale) · v[b,j,c]`
/// — the feature-major kernel on transposed operands (see the module docs).
///
/// # Panics
///
/// Panics on rank or dimension mismatches, including `Lq != Lk`.
pub fn attention_tm(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Tensor {
    let [b, l, d, dv] = tm_dims(q, k, v);
    let mut out = vec![0.0f32; b * l * dv];
    let [len, _] = attention_tm_scratch(b, l, d, dv, aliased([q, k, v].map(Tensor::data)));
    attention_tm_into(q, k, v, scale, &mut out, &mut vec![0.0f32; len]);
    Tensor::from_vec(vec![b, l, dv], out).expect("attention_tm shape")
}

/// [`attention_tm`] into `out` (any contents; all overwritten), with
/// scratch of the forward's [`attention_tm_scratch`] length.
///
/// # Panics
///
/// Panics on rank/dimension mismatches, `Lq != Lk`, or buffer lengths.
pub fn attention_tm_into(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    scale: f32,
    out: &mut [f32],
    scratch: &mut [f32],
) {
    let [b, l, d, dv] = tm_dims(q, k, v);
    let [qd, kd, vd] = [q, k, v].map(Tensor::data);
    attention_tm_slices(qd, kd, vd, b, l, d, dv, scale, out, scratch);
}

/// Floats of scratch the token-major adapter takes for `[b, l, d]` queries
/// and keys and `[b, l, dv]` values, `[forward, backward]`: the transposed
/// operands — one copy when `aliased`, that is when `q`, `k` and `v` are one
/// buffer, as the CAM passes them — then the transposed output and the
/// kernel's score row, or the transposed upstream and three gradients.
pub fn attention_tm_scratch(b: usize, l: usize, d: usize, dv: usize, aliased: bool) -> [usize; 2] {
    let operands = b * l * if aliased { d } else { 2 * d + dv };
    [operands + b * l * dv + l, operands + 2 * b * l * (d + dv)]
}

/// Slice-level [`attention_tm_into`] — the plan executor's entry point,
/// which declares the scratch in its arena so a serial forward allocates
/// nothing.
///
/// # Panics
///
/// Panics on slice-length mismatches or if `scratch` is short.
#[allow(clippy::too_many_arguments)]
pub fn attention_tm_slices(
    qd: &[f32],
    kd: &[f32],
    vd: &[f32],
    b: usize,
    l: usize,
    d: usize,
    dv: usize,
    scale: f32,
    out: &mut [f32],
    scratch: &mut [f32],
) {
    let [lqk, lv] = [b * l * d, b * l * dv];
    let lens = [qd.len(), kd.len(), vd.len(), out.len()];
    assert_eq!(lens, [lqk, lqk, lv, lv], "attention_tm lengths");
    let [need, _] = attention_tm_scratch(b, l, d, dv, aliased([qd, kd, vd]));
    assert!(scratch.len() >= need, "attention_tm scratch too small");
    let ([qt, kt, vt], rest) = transpose_operands([qd, kd, vd], [b, l, d, dv], scratch);
    let (ot, row) = rest.split_at_mut(out.len());
    attention_fm_slices(qt, kt, vt, b, d, dv, l, scale, ot, row);
    lowlevel::permute_into(ot, &[b, dv, l], &[0, 2, 1], out);
}

/// Backward of [`attention_tm`] for upstream gradient `dy: [B, L, Dv]`,
/// writing `dq`, `dk` and `dv` into caller buffers of `q`'s, `k`'s and
/// `v`'s lengths (any contents; every element is overwritten), with caller
/// scratch of the backward's [`attention_tm_scratch`] length.
///
/// # Panics
///
/// Panics on rank, dimension or buffer-length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn attention_tm_backward_into(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    scale: f32,
    dy: &Tensor,
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
    scratch: &mut [f32],
) {
    let [b, l, d, nv] = tm_dims(q, k, v);
    assert_eq!(dy.shape(), [b, l, nv], "attention_tm dy shape");
    let lens = [dq.len(), dk.len(), dv.len()];
    assert_eq!(lens, [q, k, v].map(Tensor::numel), "gradient lengths");
    let ops = [q, k, v].map(Tensor::data);
    let [_, need] = attention_tm_scratch(b, l, d, nv, aliased(ops));
    assert!(scratch.len() >= need, "attention_tm scratch too small");
    let ([qt, kt, vt], rest) = transpose_operands(ops, [b, l, d, nv], scratch);
    let (dyt, rest) = transposed(dy.data(), [b, l, nv], rest);
    let (dqt, rest) = rest.split_at_mut(dq.len());
    let (dkt, rest) = rest.split_at_mut(dk.len());
    let dvt = &mut rest[..dv.len()];
    let bk = simd::active();
    attention_fm_backward_with(bk, qt, kt, vt, dyt, b, d, nv, l, scale, dqt, dkt, dvt);
    for (t, rows, grad) in [(dqt, d, dq), (dkt, d, dk), (dvt, nv, dv)] {
        lowlevel::permute_into(t, &[b, rows, l], &[0, 2, 1], grad);
    }
}

/// `[B, L, D, Dv]` of token-major `q, k: [B, L, D]`, `v: [B, L, Dv]`.
///
/// # Panics
///
/// Panics on rank or dimension mismatches, and on `Lq != Lk`: no caller
/// builds a rectangular attention, and the kernel attends a sequence to
/// itself.
fn tm_dims(q: &Tensor, k: &Tensor, v: &Tensor) -> [usize; 4] {
    let ([b, lq, d], [b2, lk, d2], [b3, lv, dv]) = (dims(q), dims(k), dims(v));
    assert_eq!([b2, d2, b3, lv], [b, d, b, lk], "attention_tm shapes");
    assert_eq!(lq, lk, "attention_tm needs as many keys as queries");
    [b, lq, d, dv]
}

/// The shape of a rank-3 attention operand.
fn dims(t: &Tensor) -> [usize; 3] {
    <[usize; 3]>::try_from(t.shape()).expect("attention operands are rank-3")
}

/// Whether `q`, `k` and `v` are one buffer, which the adapter transposes
/// once.
fn aliased([q, k, v]: [&[f32]; 3]) -> bool {
    std::ptr::eq(q, k) && std::ptr::eq(k, v)
}

/// The token-major operands `[b, l, d]`, `[b, l, d]`, `[b, l, dv]`
/// transposed to `[b, d, l]`, `[b, d, l]`, `[b, dv, l]` at the front of
/// `scratch` — once if they are one buffer — and the rest of `scratch`.
fn transpose_operands<'s>(
    ops: [&[f32]; 3],
    [b, l, d, dv]: [usize; 4],
    scratch: &'s mut [f32],
) -> ([&'s [f32]; 3], &'s mut [f32]) {
    let (qt, rest) = transposed(ops[0], [b, l, d], scratch);
    if aliased(ops) {
        return ([qt; 3], rest);
    }
    let (kt, rest) = transposed(ops[1], [b, l, d], rest);
    let (vt, rest) = transposed(ops[2], [b, l, dv], rest);
    ([qt, kt, vt], rest)
}

/// The `[b, rows, cols]` `src` transposed to `[b, cols, rows]` at the front
/// of `scratch`, and the rest of `scratch`.
fn transposed<'s>(
    src: &[f32],
    shape: [usize; 3],
    scratch: &'s mut [f32],
) -> (&'s [f32], &'s mut [f32]) {
    let (t, rest) = scratch.split_at_mut(src.len());
    lowlevel::permute_into(src, &shape, &[0, 2, 1], t);
    (t, rest)
}

/// In-place softmax of one score row, routed through the active kernel
/// backend. The softmax op ([`crate::lowlevel::softmax_last_into`], behind
/// the tape, the plan and [`Tensor::softmax_lastdim`]) and the fused
/// attention paths all share this row loop — whichever backend is active,
/// every softmax in the process computes identical bits for identical
/// input rows.
pub fn softmax_row(s: &mut [f32]) {
    simd::softmax_row_with(simd::active(), s)
}

/// Scalar reference softmax row (max fold, exp/sum pass, divide) — the
/// bitwise-golden loop every pre-existing golden file was produced with.
pub(crate) fn softmax_row_scalar(s: &mut [f32]) {
    let m = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0f32;
    for x in s.iter_mut() {
        *x = (*x - m).exp();
        z += *x;
    }
    for x in s.iter_mut() {
        *x /= z;
    }
}

/// Feature-major fused attention: `q: [B, D, L]`, `k: [B, D, L]`,
/// `v: [B, Dv, L] -> [B, Dv, L]`.
///
/// `out[b, c, y] = Σ_x softmax_x(Σ_p q[b,p,y]·k[b,p,x] · scale) · v[b,c,x]`
/// — the position-attention (PAM) form, where channels stay outermost and
/// attention runs over the spatial index.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn attention_fm(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Tensor {
    let [b, nv, l] = dims(v);
    let mut out = vec![0.0f32; b * nv * l];
    attention_fm_into(q, k, v, scale, &mut out);
    Tensor::from_vec(vec![b, nv, l], out).expect("attention_fm shape")
}

/// [`attention_fm`] writing into a caller-provided buffer (any contents;
/// every element is overwritten).
///
/// # Panics
///
/// Panics on rank/dimension mismatches or if `out.len() != B*Dv*L`.
pub fn attention_fm_into(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32, out: &mut [f32]) {
    let ([b, n, l], [b2, n2, l2], [b3, nv, l3]) = (dims(q), dims(k), dims(v));
    assert_eq!([b2, n2, l2, b3, l3], [b, n, l, b, l], "attention_fm shapes");
    let bk = simd::active();
    let mut scratch = vec![0.0f32; if fm_scalar_arm(bk, n, nv) { l } else { 0 }];
    let [qd, kd, vd] = [q, k, v].map(Tensor::data);
    attention_fm_slices_with(bk, qd, kd, vd, b, n, nv, l, scale, out, &mut scratch);
}

/// Slice-level [`attention_fm_into`] with a caller-provided score-row
/// scratch (contents ignored; used by the plan executor so the serial path
/// allocates nothing per forward). Only the scalar arm reads it — the
/// vector arm's query blocks run in this thread's kernel scratch, and its
/// parallel arm allocates a staging buffer. `out` may hold any contents;
/// every element is overwritten.
///
/// # Panics
///
/// Panics on slice-length mismatches, or if the scalar arm runs (the
/// scalar backend, or a call without channels) with `scratch.len() < l`.
#[allow(clippy::too_many_arguments)]
pub fn attention_fm_slices(
    qd: &[f32],
    kd: &[f32],
    vd: &[f32],
    b: usize,
    n: usize,
    nv: usize,
    l: usize,
    scale: f32,
    out: &mut [f32],
    scratch: &mut [f32],
) {
    attention_fm_slices_with(simd::active(), qd, kd, vd, b, n, nv, l, scale, out, scratch);
}

/// Explicit-backend [`attention_fm_slices`] — the differential suite's
/// entry point. The scalar arm is the verbatim reference loop, one query
/// column at a time; the vector arm runs blocks of query columns through
/// the query-lane kernel, fanned out as the pool's split grants (see the
/// module docs), matching the composed
/// `bmm`/`scale`/`permute`/`softmax`/`bmm` chain bitwise under the same
/// backend. Calls without channels take the scalar arm, the only one that
/// reads `scratch`.
///
/// # Panics
///
/// Panics on slice-length mismatches, or if the scalar arm runs with
/// `scratch.len() < l`.
#[allow(clippy::too_many_arguments)]
pub fn attention_fm_slices_with(
    bk: Backend,
    qd: &[f32],
    kd: &[f32],
    vd: &[f32],
    b: usize,
    n: usize,
    nv: usize,
    l: usize,
    scale: f32,
    out: &mut [f32],
    scratch: &mut [f32],
) {
    let [lqk, lv] = [b * n * l, b * nv * l];
    let lens = [qd.len(), kd.len(), vd.len(), out.len()];
    assert_eq!(lens, [lqk, lqk, lv, lv], "attention_fm lengths");
    let scalar = fm_scalar_arm(bk, n, nv);
    assert!(!scalar || scratch.len() >= l, "attention_fm scratch");
    let width = simd::query_lanes(bk).0;
    for bi in 0..b {
        let qb = &qd[bi * n * l..(bi + 1) * n * l];
        let kb = &kd[bi * n * l..(bi + 1) * n * l];
        let vb = &vd[bi * nv * l..(bi + 1) * nv * l];
        let ob = &mut out[bi * nv * l..(bi + 1) * nv * l];
        if !scalar {
            fm_forward_query_lanes(bk, width, qb, kb, vb, scale, n, nv, l, ob);
            continue;
        }
        let s = &mut scratch[..l];
        // Scalar reference: one query column at a time, serial — output
        // columns interleave across queries, so there is no contiguous
        // per-query chunk to hand a worker.
        for y in 0..l {
            score_row_fm(qb, kb, scale, n, l, y, &mut *s);
            softmax_row(&mut *s);
            // out[c,y] = Σ_x v[c,x]·w[x] with the composed GEMM's lhs
            // zero-skip on v.
            for c in 0..nv {
                let vrow = &vb[c * l..(c + 1) * l];
                let mut acc = 0.0f32;
                for (&vv, &wx) in vrow.iter().zip(&*s) {
                    if vv == 0.0 {
                        continue;
                    }
                    acc += vv * wx;
                }
                ob[c * l + y] = acc;
            }
        }
    }
}

/// Whether a feature-major call takes the scalar loop: under the scalar
/// backend, and for calls without channels, which are outside the
/// query-lane kernels' contract.
fn fm_scalar_arm(bk: Backend, n: usize, nv: usize) -> bool {
    bk == Backend::Scalar || n == 0 || nv == 0
}

/// Feature-major forward for one batch with the queries in the vector
/// lanes: blocks of `width` query columns (`simd::query_lanes`), each three
/// sweeps over a `[l, width]` scratch ([`simd::fm_query_block`]) — no
/// gather, no pack, no transposed copy of the probabilities. Either width
/// gives the same bits.
///
/// Blocks are independent, so when the pool's split grants workers they
/// fan out over the pool in contiguous runs, one per worker, each worker
/// filling its run of a block-major staging buffer that is scattered into
/// the interleaved output columns after the join. Serially a block's
/// outputs are contiguous per channel in `ob` and are stored in place.
#[allow(clippy::too_many_arguments)]
fn fm_forward_query_lanes(
    bk: Backend,
    width: usize,
    qb: &[f32],
    kb: &[f32],
    vb: &[f32],
    scale: f32,
    n: usize,
    nv: usize,
    l: usize,
    ob: &mut [f32],
) {
    let n_blocks = l.div_ceil(width);
    let nt = pool::split(Work::Flops(l * l * (n + nv)), n_blocks);
    if nt <= 1 {
        return fm_query_blocks(bk, width, qb, kb, vb, scale, n, nv, l, 0, ob, false);
    }
    // Block `i` owns `staged[i * width * nv..]`: every block but the last
    // is full, so a worker's run of whole blocks is contiguous.
    let per = n_blocks.div_ceil(nt) * width;
    let mut staged = vec![0.0f32; nv * l];
    pool::fan_out(nt, staged.chunks_mut(per * nv).enumerate(), |(wi, run)| {
        fm_query_blocks(bk, width, qb, kb, vb, scale, n, nv, l, wi * per, run, true);
    });
    for (bi, o_block) in staged.chunks(width * nv).enumerate() {
        scatter_columns(o_block, nv, l, bi * width, o_block.len() / nv, ob);
    }
}

/// The query-lane blocks of columns `[y0, y0 + cols)`, `y0` a multiple of
/// `width`. In place (`staged == false`), `out` is the `[nv, l]` output
/// from column `y0` on and `cols = l - y0`; staged, `out` holds
/// `cols = out.len() / nv` columns block after block, each a contiguous
/// `[nv, t]` tile. The `[l, width]` scratch is the executing thread's
/// [`simd::Scratch`], so a warm serial call allocates nothing.
#[allow(clippy::too_many_arguments)]
fn fm_query_blocks(
    bk: Backend,
    width: usize,
    qb: &[f32],
    kb: &[f32],
    vb: &[f32],
    scale: f32,
    n: usize,
    nv: usize,
    l: usize,
    y0: usize,
    out: &mut [f32],
    staged: bool,
) {
    let cols = if staged { out.len() / nv } else { l - y0 };
    simd::with_scratch(|sc| {
        sc.tile_a.resize(width * l, 0.0);
        for dy in (0..cols).step_by(width) {
            let t = width.min(cols - dy);
            let (at, o_stride) = if staged { (dy * nv, t) } else { (dy, l) };
            simd::fm_query_block(
                bk,
                width,
                qb,
                kb,
                vb,
                scale,
                n,
                nv,
                l,
                y0 + dy,
                t,
                &mut sc.tile_a,
                &mut out[at..],
                o_stride,
            );
        }
    });
}

/// Writes the `[rows, t]` tile into columns `[y0, y0 + t)` of the
/// row-major `[rows, l]` matrix `dst`.
fn scatter_columns(tile: &[f32], rows: usize, l: usize, y0: usize, t: usize, dst: &mut [f32]) {
    for r in 0..rows {
        dst[r * l + y0..r * l + y0 + t].copy_from_slice(&tile[r * t..(r + 1) * t]);
    }
}

/// One scaled feature-major score row
/// `s[x] = (Σ_p q[p,y]·k[p,x]) · scale` via axpy over `p` (increasing, so
/// per-element reduction order matches the composed GEMM).
fn score_row_fm(qb: &[f32], kb: &[f32], scale: f32, n: usize, l: usize, y: usize, s: &mut [f32]) {
    s.fill(0.0);
    for p in 0..n {
        let qv = qb[p * l + y];
        if qv == 0.0 {
            continue;
        }
        let krow = &kb[p * l..(p + 1) * l];
        for (sx, &kv) in s.iter_mut().zip(krow) {
            *sx += qv * kv;
        }
    }
    for sx in s.iter_mut() {
        *sx *= scale;
    }
}

/// Backward of [`attention_fm`] for upstream gradient `dy: [B, Dv, L]`,
/// writing `dq`, `dk` and `dv` into caller buffers of `q`'s, `k`'s and
/// `v`'s lengths (any contents; every element is overwritten). Score rows
/// are recomputed per query column; `dk` and `dv` accumulate over the query
/// index in increasing order. Every scratch is this thread's kernel
/// scratch, so a warm call allocates nothing.
///
/// # Panics
///
/// Panics on rank, dimension or buffer-length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn attention_fm_backward_into(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    scale: f32,
    dy: &Tensor,
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    let (b, n, l) = (q.shape()[0], q.shape()[1], q.shape()[2]);
    let nv = v.shape()[1];
    assert_eq!(dy.shape(), [b, nv, l], "attention_fm dy shape");
    let [qd, kd, vd, dyd] = [q, k, v, dy].map(Tensor::data);
    attention_fm_backward_with(
        simd::active(),
        qd,
        kd,
        vd,
        dyd,
        b,
        n,
        nv,
        l,
        scale,
        dq,
        dk,
        dv,
    );
}

/// Explicit-backend slice-level [`attention_fm_backward_into`] — the
/// differential suite's and the token-major adapter's entry point. `dk`/`dv`
/// accumulate over the query index in increasing order on every backend;
/// the vector arm recomputes the softmax with exactly the forward's sweeps.
/// Calls without channels take the scalar arm.
///
/// # Panics
///
/// Panics on slice-length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn attention_fm_backward_with(
    bk: Backend,
    qd: &[f32],
    kd: &[f32],
    vd: &[f32],
    dyd: &[f32],
    b: usize,
    n: usize,
    nv: usize,
    l: usize,
    scale: f32,
    dq: &mut [f32],
    dk: &mut [f32],
    dv_all: &mut [f32],
) {
    let [lqk, lv] = [b * n * l, b * nv * l];
    let lens = [qd, kd, vd, dyd, dq, dk, dv_all].map(|x| x.len());
    assert_eq!(
        lens,
        [lqk, lqk, lv, lv, lqk, lqk, lv],
        "attention_fm lengths"
    );
    for buf in [&mut *dq, &mut *dk, &mut *dv_all] {
        buf.fill(0.0);
    }
    for bi in 0..b {
        let qb = &qd[bi * n * l..(bi + 1) * n * l];
        let kb = &kd[bi * n * l..(bi + 1) * n * l];
        let vb = &vd[bi * nv * l..(bi + 1) * nv * l];
        let dyb = &dyd[bi * nv * l..(bi + 1) * nv * l];
        let dqb = &mut dq[bi * n * l..(bi + 1) * n * l];
        let dkb = &mut dk[bi * n * l..(bi + 1) * n * l];
        let dvb = &mut dv_all[bi * nv * l..(bi + 1) * nv * l];
        if !fm_scalar_arm(bk, n, nv) {
            fm_backward_query_lanes(bk, qb, kb, vb, dyb, scale, n, nv, l, dqb, dkb, dvb);
            continue;
        }
        simd::with_scratch(|sc| {
            sc.tile_a.resize(l, 0.0);
            sc.tile_b.resize(l, 0.0);
            let (s, g) = (&mut sc.tile_a[..], &mut sc.tile_b[..]);
            for y in 0..l {
                score_row_fm(qb, kb, scale, n, l, y, s);
                softmax_row(s);
                // g[x] = Σ_c v[c,x]·dy[c,y] via axpy over c (increasing).
                g.fill(0.0);
                for c in 0..nv {
                    let dyv = dyb[c * l + y];
                    if dyv == 0.0 {
                        continue;
                    }
                    let vrow = &vb[c * l..(c + 1) * l];
                    for (gx, &vv) in g.iter_mut().zip(vrow) {
                        *gx += vv * dyv;
                    }
                }
                // dv[c,x] += dy[c,y]·w[x]: query index y strictly increasing.
                for c in 0..nv {
                    let dyv = dyb[c * l + y];
                    if dyv == 0.0 {
                        continue;
                    }
                    let dvrow = &mut dvb[c * l..(c + 1) * l];
                    for (o, &wx) in dvrow.iter_mut().zip(s.iter()) {
                        *o += dyv * wx;
                    }
                }
                // gs[x] = (w[x]·(g[x] - dot))·scale, overwriting g in place.
                let dot: f32 = s.iter().zip(g.iter()).map(|(&a, &b)| a * b).sum();
                for (gx, &wx) in g.iter_mut().zip(s.iter()) {
                    *gx = (wx * (*gx - dot)) * scale;
                }
                // dq[p,y] = Σ_x k[p,x]·gs[x] with the composed lhs zero-skip.
                for p in 0..n {
                    let krow = &kb[p * l..(p + 1) * l];
                    let mut acc = 0.0f32;
                    for (&kv, &gs) in krow.iter().zip(g.iter()) {
                        if kv == 0.0 {
                            continue;
                        }
                        acc += kv * gs;
                    }
                    dqb[p * l + y] = acc;
                }
                // dk[p,x] += gs[x]·q[p,y]: query index y strictly increasing,
                // zero-skip on gs (the composed GEMM's lhs).
                for p in 0..n {
                    let qv = qb[p * l + y];
                    let dkrow = &mut dkb[p * l..(p + 1) * l];
                    for (o, &gs) in dkrow.iter_mut().zip(g.iter()) {
                        if gs == 0.0 {
                            continue;
                        }
                        *o += gs * qv;
                    }
                }
            }
        });
    }
}

/// Feature-major backward for one batch with the queries in the vector
/// lanes: blocks of [`QUERY_LANES`] query columns in increasing order, each
/// five sweeps over two `[l, QUERY_LANES]` scratches
/// ([`simd::fm_query_block_backward`]). `dk` / `dv` must arrive zeroed; every
/// block continues their chains over the query index, so serial blocks are
/// what keep that index increasing. The scratches are this thread's
/// [`simd::Scratch`], so a warm call allocates nothing.
#[allow(clippy::too_many_arguments)]
fn fm_backward_query_lanes(
    bk: Backend,
    qb: &[f32],
    kb: &[f32],
    vb: &[f32],
    dyb: &[f32],
    scale: f32,
    n: usize,
    nv: usize,
    l: usize,
    dqb: &mut [f32],
    dkb: &mut [f32],
    dvb: &mut [f32],
) {
    simd::with_scratch(|sc| {
        sc.tile_a.resize(QUERY_LANES * l, 0.0);
        sc.tile_b.resize(QUERY_LANES * l, 0.0);
        for y0 in (0..l).step_by(QUERY_LANES) {
            let t = QUERY_LANES.min(l - y0);
            simd::fm_query_block_backward(
                bk,
                qb,
                kb,
                vb,
                dyb,
                scale,
                n,
                nv,
                l,
                y0,
                t,
                &mut sc.tile_a,
                &mut sc.tile_b,
                dqb,
                dkb,
                dvb,
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::AView;

    /// Query columns per tile of the four-pass reference below.
    const TILE: usize = 32;

    fn tensor(shape: Vec<usize>, seed: usize) -> Tensor {
        Tensor::from_fn(shape, |i| {
            (((i * 2_654_435_761 + seed * 97) % 1000) as f32 / 499.5 - 1.0) * 0.7
        })
    }

    /// Composed token-major reference: permute → bmm → scale → softmax →
    /// bmm, exactly the op chain the tape records without fusion.
    fn composed_tm(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Tensor {
        let kt = k.permute(&[0, 2, 1]);
        let scores = q.bmm(&kt).map(|x| x * scale);
        scores.softmax_lastdim().bmm(v)
    }

    /// Composed feature-major (PAM) reference: `bᵗ·c` scores, transposed
    /// row-softmax, `v·pᵗ` output.
    fn composed_fm(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Tensor {
        let bt = k.permute(&[0, 2, 1]);
        let e = bt.bmm(q).map(|x| x * scale);
        let p = e.permute(&[0, 2, 1]).softmax_lastdim();
        v.bmm(&p.permute(&[0, 2, 1]))
    }

    fn assert_bitwise(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    /// Gathers columns `[y0, y0 + t)` of the row-major `[rows, l]` matrix
    /// `src` into `buf` as a contiguous `[rows, t]` tile.
    fn gather_columns(src: &[f32], rows: usize, l: usize, y0: usize, t: usize, buf: &mut Vec<f32>) {
        buf.clear();
        for r in 0..rows {
            buf.extend_from_slice(&src[r * l + y0..r * l + y0 + t]);
        }
    }

    /// The four-pass feature-major forward of one batch, the reference the
    /// query-lane forward is held to. Per tile of [`TILE`] query
    /// columns, each pass leaves every element's arithmetic that of the
    /// composed chain under `bk`:
    ///
    /// 1. score `e[r,x] = Σ_p q[p,y0+r]·k[p,x]` (TN microkernel);
    /// 2. the scaled softmax of each row ([`simd::softmax_row_scaled`]);
    /// 3. the transposed pack the value product reads;
    /// 4. value `o[c,r] = Σ_x v[c,x]·w[r,x]` (NT product as the NN
    ///    microkernel), scattered into the output columns.
    #[allow(clippy::too_many_arguments)]
    fn fm_forward_tiled(
        bk: Backend,
        qb: &[f32],
        kb: &[f32],
        vb: &[f32],
        scale: f32,
        n: usize,
        nv: usize,
        l: usize,
        ob: &mut [f32],
    ) {
        let [mut pk, mut q_buf, mut e_buf, mut pt_buf, mut o_buf]: [Vec<f32>; 5] =
            Default::default();
        simd::pack_b(kb, n, l, false, &mut pk);
        for y0 in (0..l).step_by(TILE) {
            let t = TILE.min(l - y0);
            gather_columns(qb, n, l, y0, t, &mut q_buf);
            e_buf.resize(t * l, 0.0);
            let qview = AView {
                data: &q_buf,
                base: 0,
                row_stride: 1,
                p_stride: t,
            };
            simd::kernel(bk, qview, &pk, &mut e_buf, t, n, l, false);
            for row in e_buf.chunks_mut(l) {
                simd::softmax_row_scaled(bk, row, scale);
            }
            simd::pack_b(&e_buf, l, t, true, &mut pt_buf);
            o_buf.resize(nv * t, 0.0);
            simd::kernel(
                bk,
                AView::rows(vb, 0, l),
                &pt_buf,
                &mut o_buf,
                nv,
                l,
                t,
                false,
            );
            scatter_columns(&o_buf, nv, l, y0, t, ob);
        }
    }

    /// The four-pass feature-major backward of one batch, the reference the
    /// query-lane backward is held to. Query-column tiles run serially in
    /// increasing order; `dk`/`dv` chains resume across tiles via accumulate
    /// reloads, and the softmax+scale backward rows use the tape's exact
    /// scalar expressions.
    #[allow(clippy::too_many_arguments)]
    fn fm_backward_tiled(
        bk: Backend,
        qb: &[f32],
        kb: &[f32],
        vb: &[f32],
        dyb: &[f32],
        scale: f32,
        n: usize,
        nv: usize,
        l: usize,
        dqb: &mut [f32],
        dkb: &mut [f32],
        dvb: &mut [f32],
    ) {
        let [mut pk, mut pv, mut pt, mut e_buf, mut g_buf, mut q_buf, mut dy_buf]: [Vec<f32>; 7] =
            Default::default();
        simd::pack_b(kb, n, l, false, &mut pk); // k panels: score recompute
        simd::pack_b(vb, nv, l, false, &mut pv); // v panels: g = vᵀ·dy
        for y0 in (0..l).step_by(TILE) {
            let t = TILE.min(l - y0);
            // Recompute the softmax tile exactly as the forward did.
            gather_columns(qb, n, l, y0, t, &mut q_buf);
            e_buf.resize(t * l, 0.0);
            let qview = AView {
                data: &q_buf,
                base: 0,
                row_stride: 1,
                p_stride: t,
            };
            simd::kernel(bk, qview, &pk, &mut e_buf, t, n, l, false);
            for row in e_buf.chunks_mut(l) {
                simd::softmax_row_scaled(bk, row, scale);
            }
            gather_columns(dyb, nv, l, y0, t, &mut dy_buf);
            // g[r,x] = Σ_c dy[c,y0+r]·v[c,x].
            g_buf.resize(t * l, 0.0);
            let dyview = AView {
                data: &dy_buf,
                base: 0,
                row_stride: 1,
                p_stride: t,
            };
            simd::kernel(bk, dyview, &pv, &mut g_buf, t, nv, l, false);
            // dv[c,x] += Σ_r dy[c,y0+r]·w[r,x]: accumulate chaining over
            // tiles keeps the query index globally increasing.
            simd::pack_b(&e_buf, t, l, false, &mut pt);
            simd::kernel(bk, AView::rows(&dy_buf, 0, t), &pt, dvb, nv, t, l, true);
            // gs[r,x] = (w[r,x]·(g[r,x] − dot))·scale, tape expressions.
            for (srow, grow) in e_buf.chunks(l).zip(g_buf.chunks_mut(l)) {
                let dot: f32 = srow.iter().zip(grow.iter()).map(|(&a, &b)| a * b).sum();
                for (gx, &wx) in grow.iter_mut().zip(srow) {
                    *gx = (wx * (*gx - dot)) * scale;
                }
            }
            // dq[p,y0+r] = Σ_x k[p,x]·gs[r,x] via a transposed pack of gs;
            // the [n, t] tile reuses the dy buffer, then scatters back.
            simd::pack_b(&g_buf, l, t, true, &mut pt);
            dy_buf.resize(n * t, 0.0);
            simd::kernel(bk, AView::rows(kb, 0, l), &pt, &mut dy_buf, n, l, t, false);
            scatter_columns(&dy_buf, n, l, y0, t, dqb);
            // dk[p,x] += Σ_r q[p,y0+r]·gs[r,x]: same accumulate chaining.
            simd::pack_b(&g_buf, t, l, false, &mut pt);
            simd::kernel(bk, AView::rows(&q_buf, 0, t), &pt, dkb, n, t, l, true);
        }
    }

    #[test]
    fn tm_forward_bitwise_matches_composed() {
        // Odd lengths, Dv != D, and a size big enough to engage the
        // parallel query blocks.
        for (b, l, d, dv) in [(1, 5, 4, 2), (2, 33, 5, 3), (1, 129, 16, 16)] {
            let q = tensor(vec![b, l, d], 1);
            let k = tensor(vec![b, l, d], 2);
            let v = tensor(vec![b, l, dv], 3);
            for scale in [1.0, 0.37] {
                assert_bitwise(
                    &attention_tm(&q, &k, &v, scale),
                    &composed_tm(&q, &k, &v, scale),
                );
            }
        }
    }

    #[test]
    fn tm_adapter_transposes_aliased_operands_once() {
        // One buffer as q, k and v runs in the smaller scratch and gives
        // the bits of three separate copies, forward and backward.
        let (b, l, d) = (2, 9, 5);
        let x = tensor(vec![b, l, d], 17);
        let dy = tensor(vec![b, l, d], 18);
        let (y, z) = (x.clone(), x.clone());
        let [shared, _] = attention_tm_scratch(b, l, d, d, true);
        assert!(shared < attention_tm_scratch(b, l, d, d, false)[0]);
        let mut out = vec![f32::NAN; x.numel()];
        attention_tm_into(&x, &x, &x, 0.5, &mut out, &mut vec![f32::NAN; shared]);
        assert_same_bits(
            "aliased forward",
            &out,
            attention_tm(&x, &y, &z, 0.5).data(),
        );
        let backward = |[q, k, v]: [&Tensor; 3], aliased| {
            let mut grads = [q, k, v].map(|t| vec![f32::NAN; t.numel()]);
            let [dq, dk, dv] = &mut grads;
            let mut sc = vec![f32::NAN; attention_tm_scratch(b, l, d, d, aliased)[1]];
            attention_tm_backward_into(q, k, v, 0.5, &dy, dq, dk, dv, &mut sc);
            grads
        };
        let (got, want) = (backward([&x, &x, &x], true), backward([&x, &y, &z], false));
        for (name, got, want) in [
            ("dq", &got[0], &want[0]),
            ("dk", &got[1], &want[1]),
            ("dv", &got[2], &want[2]),
        ] {
            assert_same_bits(&format!("aliased {name}"), got, want);
        }
    }

    #[test]
    #[should_panic(expected = "as many keys as queries")]
    fn tm_adapter_rejects_rectangular_attention() {
        let q = tensor(vec![1, 4, 3], 14);
        let kv = tensor(vec![1, 5, 3], 15);
        let _ = attention_tm(&q, &kv, &kv, 1.0);
    }

    #[test]
    fn fm_forward_bitwise_matches_composed() {
        for (b, n, nv, l) in [(1, 2, 3, 5), (2, 3, 3, 33), (1, 4, 4, 100)] {
            let q = tensor(vec![b, n, l], 4);
            let k = tensor(vec![b, n, l], 5);
            let v = tensor(vec![b, nv, l], 6);
            for scale in [1.0, 0.37] {
                assert_bitwise(
                    &attention_fm(&q, &k, &v, scale),
                    &composed_fm(&q, &k, &v, scale),
                );
            }
        }
    }

    #[test]
    fn fm_query_lanes_match_the_four_pass_tile_bitwise() {
        // The query-lane forward against the four-pass reference under the
        // active vector backend: ragged query blocks and key tails, one and
        // several channel groups, the tile's ragged last tile.
        let bk = simd::active();
        if bk == Backend::Scalar {
            return;
        }
        let channels = [
            (1, 1),
            (2, 2),
            (3, 9),
            (4, 4),
            (8, 8),
            (9, 3),
            (16, 16),
            (32, 32),
        ];
        for (n, nv) in channels {
            for l in [1, 7, 8, 9, 15, 16, 17, 31, 33, 100, 1030] {
                let q = tensor(vec![1, n, l], 20);
                let k = tensor(vec![1, n, l], 21);
                let v = tensor(vec![1, nv, l], 22);
                for scale in [1.0, 0.37] {
                    for nt in [1, 3] {
                        let mut lanes = vec![f32::NAN; nv * l];
                        let mut tiled = vec![f32::NAN; nv * l];
                        pool::with_threads(nt, || {
                            let (q, k, v) = (q.data(), k.data(), v.data());
                            let width = simd::query_lanes(bk).0;
                            fm_forward_query_lanes(bk, width, q, k, v, scale, n, nv, l, &mut lanes);
                            fm_forward_tiled(bk, q, k, v, scale, n, nv, l, &mut tiled);
                        });
                        for (x, y) in lanes.iter().zip(&tiled) {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "n={n} nv={nv} l={l} scale={scale} threads={nt}: {x} vs {y}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Offsets `s − m` the exp regime inputs below aim their keys at: live
    /// weights, the subnormal band just above `2^-126` (`fx = −126`), the
    /// `fx = −127` flush to zero just above the clamp, and the clamp.
    const EXP_REGIMES: [f32; 14] = [
        0.0, -1.0, -5.0, -20.0, -50.0, -86.9, -87.3, -87.5, -87.9, -88.2, -88.5, -90.0, -150.0,
        -300.0,
    ];

    /// `(q, k, v)` for one batch of `n` / `nv` channels over `l` positions.
    /// Moderate and wide regimes are hashed values. In the exp regime key
    /// `x` scores `≈ EXP_REGIMES[x mod 14]` against the key-0 maximum
    /// (queries within 0.15% of one another), and `v` is zero on the keys
    /// with weights above `e^-80`, so the outputs are sums of subnormal and
    /// flushed weights alone, where a moved bit of `e` shows. Every fifth
    /// query column is `+0` or `−0` in every channel, so it scores `0`
    /// against every key.
    fn lane_inputs(regime: usize, n: usize, nv: usize, l: usize, scale: f32) -> [Vec<f32>; 3] {
        let mut q = tensor(vec![n, l], 50).map(|x| x * [1.0, 20.0, 0.0][regime]);
        let mut k = tensor(vec![n, l], 51).map(|x| x * [1.0, 20.0, 0.0][regime]);
        let mut v = tensor(vec![nv, l], 52);
        if regime == 2 {
            for x in 0..l {
                let d = EXP_REGIMES[x % 14];
                for p in 0..n {
                    q.data_mut()[p * l + x] = 1.0 + 0.0005 * (x % 4) as f32;
                    k.data_mut()[p * l + x] = d / (n as f32 * scale);
                }
                if d > -80.0 {
                    for c in 0..nv {
                        v.data_mut()[c * l + x] = 0.0;
                    }
                }
            }
        }
        for y in (2..l).step_by(5) {
            for p in 0..n {
                q.data_mut()[p * l + y] = if y % 10 == 2 { 0.0 } else { -0.0 };
            }
        }
        [q, k, v].map(|t| t.data().to_vec())
    }

    /// How many `(query, key)` pairs of one batch land in each regime of the
    /// polynomial exp, by an f64 estimate of `s − m`: `[clamped, flushed by
    /// fx = −127, subnormal]`.
    fn exp_regime_counts(q: &[f32], k: &[f32], n: usize, l: usize, scale: f32) -> [usize; 3] {
        let mut counts = [0; 3];
        let mut s = vec![0.0f64; l];
        for y in 0..l {
            for (x, sx) in s.iter_mut().enumerate() {
                let dot: f64 = (0..n).map(|p| f64::from(q[p * l + y] * k[p * l + x])).sum();
                *sx = dot * f64::from(scale);
            }
            let m = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for &sx in &s {
                let d = sx - m;
                if d < -88.376_26 {
                    counts[0] += 1;
                } else if d * std::f64::consts::LOG2_E + 0.5 < -126.0 {
                    counts[1] += 1;
                } else if d.exp() < f64::from(f32::MIN_POSITIVE) {
                    counts[2] += 1;
                }
            }
        }
        counts
    }

    #[test]
    fn sixteen_query_lanes_match_eight_bitwise() {
        // The 16-lane forward instance against the 8-lane one, block by
        // block over every ragged width (a 16-lane block of `t > 8` queries
        // against an 8-lane block and the `t − 8` after it, at the first
        // and the last columns, so key tails and ragged blocks meet), then
        // whole forwards at one and three threads (staging, scatter).
        let bk = Backend::Avx2;
        if !bk.is_supported() || simd::query_lanes(bk).0 != 16 {
            eprintln!("skipped: no AVX-512F on this host, so no 16-lane query block to compare");
            return;
        }
        let sizes = [1, 2, 8, 9, 16];
        for l in [16, 24, 33, 47, 1030] {
            let mut regimes_seen = [0; 3];
            for (n, nv) in sizes.iter().flat_map(|&n| sizes.map(|nv| (n, nv))) {
                for (regime, scale) in [(0, 0.37), (1, 1.7), (2, 0.37), (2, -1.3)] {
                    let [q, k, v] = lane_inputs(regime, n, nv, l, scale);
                    if regime == 2 {
                        let seen = exp_regime_counts(&q, &k, n, l, scale);
                        for (total, c) in regimes_seen.iter_mut().zip(seen) {
                            *total += c;
                        }
                    }
                    let label = format!("n={n} nv={nv} l={l} regime={regime} scale={scale}");
                    let mut scr = vec![f32::NAN; 16 * l];
                    for t in 1..=16.min(l) {
                        for y0 in [0, l - t] {
                            // Both widths write `[nv, t]` tiles, channel rows `t` apart.
                            let mut block = |width, y0, cols, out: &mut [f32]| {
                                let (q, k, v) = (&q[..], &k[..], &v[..]);
                                simd::fm_query_block(
                                    bk, width, q, k, v, scale, n, nv, l, y0, cols, &mut scr, out, t,
                                );
                            };
                            let mut wide = vec![f32::NAN; nv * t];
                            let mut narrow = wide.clone();
                            block(16, y0, t, &mut wide);
                            block(8, y0, t.min(8), &mut narrow);
                            if t > 8 {
                                block(8, y0 + 8, t - 8, &mut narrow[8..]);
                            }
                            let label = format!("{label} y0={y0} t={t}");
                            assert_same_bits(&label, &wide, &narrow);
                        }
                    }
                    for nt in [1, 3] {
                        let [wide, narrow] = [16, 8].map(|width| {
                            let mut out = vec![f32::NAN; nv * l];
                            pool::with_threads(nt, || {
                                fm_forward_query_lanes(
                                    bk, width, &q, &k, &v, scale, n, nv, l, &mut out,
                                )
                            });
                            out
                        });
                        assert_same_bits(&format!("{label} threads={nt}"), &wide, &narrow);
                    }
                }
            }
            assert!(
                regimes_seen.iter().all(|&c| c > 0),
                "l={l}: exp regimes [clamped, flushed, subnormal] hit {regimes_seen:?} times"
            );
        }
    }

    /// Both private feature-major backwards on one batch: `(dq, dk, dv)`
    /// from the query-lane kernel and from the four-pass tile. `dq` starts
    /// NaN (both must write all of it), `dk` / `dv` zero (both accumulate).
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn fm_backwards(
        bk: Backend,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        dy: &[f32],
        scale: f32,
        n: usize,
        nv: usize,
        l: usize,
    ) -> [(Vec<f32>, Vec<f32>, Vec<f32>); 2] {
        let run = |lanes: bool| {
            let mut dq = vec![f32::NAN; n * l];
            let (mut dk, mut dv) = (vec![0.0f32; n * l], vec![0.0f32; nv * l]);
            let backward = if lanes {
                fm_backward_query_lanes
            } else {
                fm_backward_tiled
            };
            backward(bk, q, k, v, dy, scale, n, nv, l, &mut dq, &mut dk, &mut dv);
            (dq, dk, dv)
        };
        [run(true), run(false)]
    }

    fn assert_same_bits(label: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{label}: length");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn fm_query_lane_backward_matches_the_four_pass_tile_bitwise() {
        // Every n and nv of {1, 2, 3, 4, 8, 9, 16} (one and several channel
        // groups), ragged query blocks and key tails, batches, two scales,
        // and logits from moderate to wide enough that most weights are
        // subnormal or flushed; a zero `dy` column must not move a bit.
        let bk = simd::active();
        if bk == Backend::Scalar {
            return;
        }
        let channels = [
            (1, 1),
            (2, 2),
            (3, 3),
            (4, 4),
            (8, 8),
            (9, 9),
            (16, 16),
            (1, 16),
            (16, 1),
            (3, 9),
            (9, 3),
            (2, 8),
            (8, 2),
            (4, 16),
        ];
        for (n, nv) in channels {
            for l in [1, 7, 8, 9, 15, 16, 17, 33, 100, 1030] {
                for b in [1, 3] {
                    for (scale, amp) in [(1.0, 0.7), (0.37, 0.7), (1.0, 9.0)] {
                        let q = tensor(vec![b, n, l], 30).map(|x| x * (amp / 0.7));
                        let k = tensor(vec![b, n, l], 31).map(|x| x * (amp / 0.7));
                        let v = tensor(vec![b, nv, l], 32);
                        let mut dy = tensor(vec![b, nv, l], 33);
                        // Query column 3 of every batch gets no upstream
                        // gradient at all.
                        if l > 3 {
                            for row in dy.data_mut().chunks_mut(l) {
                                row[3] = 0.0;
                            }
                        }
                        for bi in 0..b {
                            let at = |t: &Tensor, rows: usize| {
                                t.data()[bi * rows * l..(bi + 1) * rows * l].to_vec()
                            };
                            let (qb, kb) = (at(&q, n), at(&k, n));
                            let (vb, dyb) = (at(&v, nv), at(&dy, nv));
                            let [lanes, tiled] =
                                fm_backwards(bk, &qb, &kb, &vb, &dyb, scale, n, nv, l);
                            let label =
                                format!("n={n} nv={nv} l={l} b={bi} scale={scale} amp={amp}");
                            assert_same_bits(&format!("{label} dq"), &lanes.0, &tiled.0);
                            assert_same_bits(&format!("{label} dk"), &lanes.1, &tiled.1);
                            assert_same_bits(&format!("{label} dv"), &lanes.2, &tiled.2);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fm_query_lane_backward_of_aliased_operands_matches_the_tile() {
        // q = k = v = one buffer, as a self-attending PAM would pass it.
        let bk = simd::active();
        if bk == Backend::Scalar {
            return;
        }
        for (n, l) in [(2, 33), (4, 100), (9, 17), (16, 64)] {
            let x = tensor(vec![1, n, l], 34);
            let dy = tensor(vec![1, n, l], 35);
            let (x, dy) = (x.data(), dy.data());
            let [lanes, tiled] = fm_backwards(bk, x, x, x, dy, 0.5, n, n, l);
            let label = format!("aliased n={n} l={l}");
            assert_same_bits(&format!("{label} dq"), &lanes.0, &tiled.0);
            assert_same_bits(&format!("{label} dk"), &lanes.1, &tiled.1);
            assert_same_bits(&format!("{label} dv"), &lanes.2, &tiled.2);
        }
    }

    #[test]
    fn fm_query_lane_scratch_stays_within_sixteen_l_floats() {
        // The grid-256 `mfa1` shape on a fresh thread, serial arm: the
        // thread's kernel scratch afterwards is this op's whole footprint
        // (the four-pass tile held a 2 MiB tile plus a 2 MiB packed copy).
        let bk = simd::active();
        if bk == Backend::Scalar {
            return;
        }
        let (n, l) = (2, 16384);
        let q = tensor(vec![1, n, l], 23);
        let held = std::thread::spawn(move || {
            pool::with_threads(1, || attention_fm(&q, &q, &q, 1.0));
            simd::with_scratch(|sc| sc.floats())
        })
        .join()
        .expect("attention thread");
        assert!(held > 0 && held <= 16 * l, "scratch holds {held} floats");
    }

    #[test]
    fn fm_calls_without_channels_take_the_scalar_loop() {
        // `n = 0` or `nv = 0` is outside the query-lane kernel's contract:
        // every backend answers it, forward and backward, with the scalar
        // backend's bits instead of a panic.
        let l = 9;
        for (n, nv) in [(0, 3), (2, 0), (0, 0)] {
            let q = tensor(vec![2, n, l], 40);
            let k = tensor(vec![2, n, l], 41);
            let v = tensor(vec![2, nv, l], 42);
            let dy = tensor(vec![2, nv, l], 43);
            let run = |bk| {
                let mut out = vec![f32::NAN; 2 * nv * l];
                let (qd, kd, vd) = (q.data(), k.data(), v.data());
                let mut s = vec![0.0f32; l];
                attention_fm_slices_with(bk, qd, kd, vd, 2, n, nv, l, 0.37, &mut out, &mut s);
                let [mut dq, mut dk, mut dv] = [&q, &k, &v].map(|x| vec![f32::NAN; x.numel()]);
                let dyd = dy.data();
                attention_fm_backward_with(
                    bk, qd, kd, vd, dyd, 2, n, nv, l, 0.37, &mut dq, &mut dk, &mut dv,
                );
                [out, dq, dk, dv]
            };
            let want = run(Backend::Scalar);
            for bk in simd::supported() {
                for (got, want) in run(bk).iter().zip(&want) {
                    assert_same_bits(&format!("{bk:?} n={n} nv={nv}"), got, want);
                }
            }
        }
    }

    #[test]
    fn tm_backward_shapes_and_zero_dy() {
        let q = tensor(vec![2, 5, 3], 7);
        let k = tensor(vec![2, 5, 3], 8);
        let v = tensor(vec![2, 5, 6], 9);
        let dy = Tensor::zeros(vec![2, 5, 6]);
        let [mut dq, mut dk, mut dv] = [&q, &k, &v].map(|x| vec![f32::NAN; x.numel()]);
        let mut sc = vec![f32::NAN; attention_tm_scratch(2, 5, 3, 6, false)[1]];
        attention_tm_backward_into(&q, &k, &v, 0.5, &dy, &mut dq, &mut dk, &mut dv, &mut sc);
        for grad in [dq, dk, dv] {
            assert!(grad.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn fm_backward_overwrites_every_element() {
        let q = tensor(vec![1, 3, 7], 10);
        let k = tensor(vec![1, 3, 7], 11);
        let v = tensor(vec![1, 2, 7], 12);
        let dy = tensor(vec![1, 2, 7], 13);
        let [mut dq, mut dk, mut dv] = [&q, &k, &v].map(|x| vec![f32::NAN; x.numel()]);
        attention_fm_backward_into(&q, &k, &v, 1.0, &dy, &mut dq, &mut dk, &mut dv);
        for grad in [dq, dk, dv] {
            assert!(grad.iter().all(|x| x.is_finite()), "every element written");
        }
    }
}
