//! Fused streamed attention kernels.
//!
//! Computes `softmax(q·kᵀ·scale)·v` in query row-tiles with a per-row score
//! scratch buffer — the `[L, L]` score and softmax matrices are never
//! materialized, dropping peak activation memory from `O(L²)` to
//! `O(tile·L)`. The backward pass recomputes score rows instead of reading
//! a stored softmax.
//!
//! # Bitwise contract
//!
//! For finite inputs, forward outputs and all three input gradients are
//! **bitwise identical** to the composed op sequence
//! (`permute → bmm → scale → softmax → bmm` and its reverse) that the
//! autograd tape would otherwise record, **under whichever kernel backend
//! is active** (`crate::simd`): the scalar arms below are the verbatim
//! reference loops, and the vector arms express the same computation as
//! microkernel tile sequences whose per-element FMA chains coincide with
//! the composed GEMMs run under the same backend. Specifically, for the
//! scalar backend:
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
//! Two memory layouts are provided: **token-major** (`[B, L, D]`,
//! multi-head self-attention and the channel-attention CAM) and
//! **feature-major** (`[B, D, L]`, the position-attention PAM, which keeps
//! channels outermost and attends over spatial positions).
//!
//! # Tiles, lanes and threads
//!
//! Both forwards work on independent blocks of queries — [`ATTN_TILE`]
//! query rows, or the query columns of one vector on the query-lane path
//! (`simd::query_lanes`: 16 where the host has AVX-512F, else 8) — and
//! when `rt::pool::split` grants workers for `L²·(D + Dv)` flops the
//! blocks fan out over the `rt` pool. A block's outputs depend on nothing
//! another block writes and every output element is one FMA chain in
//! contraction order, so the result is bitwise identical at any thread
//! count. Token-major tiles are output rows and are written in place;
//! feature-major blocks are output *columns*, so in parallel each is
//! computed into a block-local `[Dv, t]` tile of a staging buffer and
//! scattered after the join. The serial paths take every buffer from the
//! caller or from this thread's kernel scratch and allocate nothing; the
//! parallel paths allocate per worker.
//!
//! ## Four passes per tile
//!
//! The token-major forward. A tile is score GEMM, softmax numerators,
//! divide, value GEMM — fused wherever fusing leaves each element's
//! arithmetic untouched: the microkernel overwrites its output, so reused
//! tile buffers are resized but never zero-filled, and the composed chain's
//! `Scale` node rides the softmax's max and exp sweeps
//! (`simd::softmax_row_scaled`, an exact IEEE multiply wherever it happens).
//! The feature-major form of the same four passes, whose value product
//! wants the softmax tile transposed, lives only in the unit tests: it is
//! the reference the query-lane kernels below are held to, bit for bit.
//!
//! ## Queries in the lanes
//!
//! The feature-major vector path. The four-pass tile spends most of its
//! time rearranging: a K = 2 "GEMM" through packed panels is an outer
//! product paying GEMM overheads, the exp sweep wants lanes along keys
//! while the value product wants lanes along queries (hence the transposed
//! pack, and a divide that runs at scalar-code width). In `[D, L]` layout the query
//! columns `q[p, y0..y0 + W]` are already contiguous, so putting the
//! *queries* in the `W` lanes of one vector and looping over the key index
//! removes the gather, both packs, the transpose and the second GEMM: three
//! sweeps over an `[L, W]` scratch (`simd::fm_query_block`), each element
//! seeing exactly the composed chain's operations. `W` is 16 (`__m512`)
//! where the host has AVX-512F and 8 (`__m256`) otherwise, one generic
//! kernel body over both (`simd/lanes.rs`); no step below depends on how
//! many queries share a register, so both widths give every output the
//! same bits:
//!
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
//! Signed zeros need no argument beyond the four-pass path's: no vector
//! backend zero-skips, chains start at `+0` exactly as the microkernel's
//! do, and `exp` maps `±0` to the same `1.0`, so a max of `+0` or `−0` is
//! invisible. Calls without channels (`n = 0` or `nv = 0`, which no model
//! builds) are outside the kernel's contract and take the scalar loop.
//!
//! The feature-major backward keeps the queries in the lanes too, eight at
//! a time on every host (`simd::fm_query_block_backward`): the forward's
//! 8-lane score and exp sweeps recompute `e` and `z`; a third sweep forms
//! `w`, the upstream products `g` and their `dot`; a fourth the score
//! gradients and `dq`; and a fifth transposes eight keys at a time into the
//! lanes so `dv` and `dk` continue their chains over the query index. Per
//! element these are the four-pass tile backward's operations in its order
//! — the kernel's docs argue it sweep by sweep — so the tile stays only as
//! the unit tests' reference.

use mfaplace_rt::pool::{self, Work};

use crate::simd::{self, AView, Backend, QUERY_LANES};
use crate::Tensor;

/// Query rows processed per tile: the parallel-dispatch granularity of the
/// forward pass and the recomputation granularity of the backward pass.
pub const ATTN_TILE: usize = 32;

/// Token-major fused attention: `q: [B, Lq, D]`, `k: [B, Lk, D]`,
/// `v: [B, Lk, Dv] -> [B, Lq, Dv]`.
///
/// `out[b, i, d] = Σ_j softmax_j(Σ_p q[b,i,p]·k[b,j,p] · scale) · v[b,j,d]`.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn attention_tm(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Tensor {
    let (b, lq) = (q.shape()[0], q.shape()[1]);
    let dv = v.shape()[2];
    let mut out = vec![0.0f32; b * lq * dv];
    attention_tm_into(q, k, v, scale, &mut out);
    Tensor::from_vec(vec![b, lq, dv], out).expect("attention_tm shape")
}

/// [`attention_tm`] writing into a caller-provided buffer.
///
/// `out` **must be zero-filled**: output rows are accumulated over keys in
/// index order (a recycled buffer from the autograd pool is handed out
/// zeroed for exactly this reason).
///
/// # Panics
///
/// Panics on rank/dimension mismatches or if `out.len() != B*Lq*Dv`.
pub fn attention_tm_into(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32, out: &mut [f32]) {
    assert_eq!(q.rank(), 3, "attention_tm q must be rank-3");
    assert_eq!(k.rank(), 3, "attention_tm k must be rank-3");
    assert_eq!(v.rank(), 3, "attention_tm v must be rank-3");
    let (b, lq, d) = (q.shape()[0], q.shape()[1], q.shape()[2]);
    let (bk, lk, dk) = (k.shape()[0], k.shape()[1], k.shape()[2]);
    let (bv, lv, dv) = (v.shape()[0], v.shape()[1], v.shape()[2]);
    assert_eq!(b, bk, "attention_tm q/k batch mismatch");
    assert_eq!(b, bv, "attention_tm q/v batch mismatch");
    assert_eq!(d, dk, "attention_tm q/k feature mismatch");
    assert_eq!(lk, lv, "attention_tm k/v length mismatch");
    assert_eq!(
        out.len(),
        b * lq * dv,
        "attention_tm output length mismatch"
    );
    let mut scratch = vec![0.0f32; lk];
    attention_tm_slices(
        q.data(),
        k.data(),
        v.data(),
        b,
        lq,
        lk,
        d,
        dv,
        scale,
        out,
        &mut scratch,
    );
}

/// Slice-level [`attention_tm_into`] with a caller-provided score-row
/// scratch of at least `lk` elements (contents ignored; used by the plan
/// executor so the serial path allocates nothing per forward). The parallel
/// tile path still allocates one score row per tile worker, exactly like
/// the tape path. `out` **must be zero-filled**.
///
/// # Panics
///
/// Panics on slice-length mismatches or if `scratch.len() < lk`.
#[allow(clippy::too_many_arguments)]
pub fn attention_tm_slices(
    qd: &[f32],
    kd: &[f32],
    vd: &[f32],
    b: usize,
    lq: usize,
    lk: usize,
    d: usize,
    dv: usize,
    scale: f32,
    out: &mut [f32],
    scratch: &mut [f32],
) {
    attention_tm_slices_with(
        simd::active(),
        qd,
        kd,
        vd,
        b,
        lq,
        lk,
        d,
        dv,
        scale,
        out,
        scratch,
    );
}

/// Explicit-backend [`attention_tm_slices`] — the differential suite's
/// entry point. The scalar arm is the verbatim reference loop; the vector
/// arms run the same computation as packed microkernel tile sequences
/// (score tile, scale, softmax rows, weighted-value tile), so within a
/// backend the fused result stays bitwise identical to the composed op
/// chain executed under that same backend.
///
/// # Panics
///
/// Panics on slice-length mismatches or if `scratch.len() < lk`.
#[allow(clippy::too_many_arguments)]
pub fn attention_tm_slices_with(
    bk: Backend,
    qd: &[f32],
    kd: &[f32],
    vd: &[f32],
    b: usize,
    lq: usize,
    lk: usize,
    d: usize,
    dv: usize,
    scale: f32,
    out: &mut [f32],
    scratch: &mut [f32],
) {
    assert_eq!(qd.len(), b * lq * d, "attention_tm q length mismatch");
    assert_eq!(kd.len(), b * lk * d, "attention_tm k length mismatch");
    assert_eq!(vd.len(), b * lk * dv, "attention_tm v length mismatch");
    assert_eq!(
        out.len(),
        b * lq * dv,
        "attention_tm output length mismatch"
    );
    assert!(scratch.len() >= lk, "attention_tm scratch too small");
    let scratch = &mut scratch[..lk];
    // Query tiles write disjoint output rows, so the per-batch fan-out is
    // bitwise-safe: each row's arithmetic is thread-independent.
    let nt = pool::split(Work::Flops(lq * lk * (d + dv)), lq.div_ceil(ATTN_TILE));
    for bi in 0..b {
        let qb = &qd[bi * lq * d..(bi + 1) * lq * d];
        let kb = &kd[bi * lk * d..(bi + 1) * lk * d];
        let vb = &vd[bi * lk * dv..(bi + 1) * lk * dv];
        let ob = &mut out[bi * lq * dv..(bi + 1) * lq * dv];
        if bk != Backend::Scalar {
            tm_forward_vec(bk, nt, qb, kb, vb, scale, lq, lk, d, dv, ob);
            continue;
        }
        if nt > 1 {
            let tiles = ob.chunks_mut(ATTN_TILE * dv).enumerate();
            pool::fan_out(nt, tiles, |(ti, chunk)| {
                let mut s = vec![0.0f32; lk];
                attn_tm_rows(qb, kb, vb, scale, lk, d, dv, ti * ATTN_TILE, chunk, &mut s);
            });
        } else {
            attn_tm_rows(qb, kb, vb, scale, lk, d, dv, 0, ob, scratch);
        }
    }
}

/// Vector-backend token-major forward for one batch: `k`/`v` are packed
/// once, then each query tile runs score-GEMM → scale → softmax rows →
/// value-GEMM through the microkernel. Per-element chains are identical to
/// the composed `bmm`/`scale`/`softmax`/`bmm` sequence under the same
/// backend, and rows are thread-independent, so the tiles fan out over the
/// `nt` workers the scalar path's split grants.
#[allow(clippy::too_many_arguments)]
fn tm_forward_vec(
    bk: Backend,
    nt: usize,
    qb: &[f32],
    kb: &[f32],
    vb: &[f32],
    scale: f32,
    lq: usize,
    lk: usize,
    d: usize,
    dv: usize,
    ob: &mut [f32],
) {
    simd::with_scratch(|sc| {
        let simd::Scratch {
            pack_a: pk_buf,
            pack_b: pv_buf,
            tile_a: s_buf,
            ..
        } = sc;
        simd::pack_b(kb, d, lk, true, pk_buf); // kᵀ panels for the NT score tile
        simd::pack_b(vb, lk, dv, false, pv_buf); // v panels for the NN value tile
        let pk: &[f32] = pk_buf;
        let pv: &[f32] = pv_buf;
        if nt > 1 {
            let tiles = ob.chunks_mut(ATTN_TILE * dv).enumerate();
            pool::fan_out(nt, tiles, |(ti, chunk)| {
                let rows = chunk.len() / dv;
                let mut s = vec![0.0f32; rows * lk];
                tm_tile_vec(
                    bk,
                    qb,
                    pk,
                    pv,
                    scale,
                    lk,
                    d,
                    dv,
                    ti * ATTN_TILE,
                    rows,
                    chunk,
                    &mut s,
                );
            });
        } else {
            let mut i0 = 0;
            while i0 < lq {
                let rows = ATTN_TILE.min(lq - i0);
                s_buf.resize(rows * lk, 0.0);
                let chunk = &mut ob[i0 * dv..(i0 + rows) * dv];
                tm_tile_vec(bk, qb, pk, pv, scale, lk, d, dv, i0, rows, chunk, s_buf);
                i0 += rows;
            }
        }
    });
}

/// One vector token-major forward tile: output rows `[i0, i0 + rows)`.
#[allow(clippy::too_many_arguments)]
fn tm_tile_vec(
    bk: Backend,
    qb: &[f32],
    pk: &[f32],
    pv: &[f32],
    scale: f32,
    lk: usize,
    d: usize,
    dv: usize,
    i0: usize,
    rows: usize,
    chunk: &mut [f32],
    s: &mut [f32],
) {
    let s = &mut s[..rows * lk];
    simd::kernel(bk, AView::rows(qb, i0 * d, d), pk, s, rows, d, lk, false);
    for r in 0..rows {
        simd::softmax_row_scaled(bk, &mut s[r * lk..(r + 1) * lk], scale);
    }
    simd::kernel(bk, AView::rows(s, 0, lk), pv, chunk, rows, lk, dv, false);
}

/// Forward row-tile worker: computes output rows `[i0, i0 + rows)` of one
/// batch, with a single score-row scratch reused across the tile's rows.
#[allow(clippy::too_many_arguments)]
fn attn_tm_rows(
    qb: &[f32],
    kb: &[f32],
    vb: &[f32],
    scale: f32,
    lk: usize,
    d: usize,
    dv: usize,
    i0: usize,
    chunk: &mut [f32],
    s: &mut [f32],
) {
    let rows = chunk.len() / dv;
    for r in 0..rows {
        let qrow = &qb[(i0 + r) * d..(i0 + r + 1) * d];
        score_row_tm(qrow, kb, scale, lk, d, &mut *s);
        softmax_row(&mut *s);
        let orow = &mut chunk[r * dv..(r + 1) * dv];
        for (j, &wj) in s.iter().enumerate() {
            // Same lhs zero-skip as the composed softmax·v GEMM.
            if wj == 0.0 {
                continue;
            }
            let vrow = &vb[j * dv..(j + 1) * dv];
            for (o, &vv) in orow.iter_mut().zip(vrow) {
                *o += wj * vv;
            }
        }
    }
}

/// One scaled score row `s[j] = (Σ_p qrow[p]·k[j,p]) · scale`, reduction
/// over `p` in increasing order with the composed GEMM's lhs zero-skip.
fn score_row_tm(qrow: &[f32], kb: &[f32], scale: f32, lk: usize, d: usize, s: &mut [f32]) {
    for (j, sj) in s.iter_mut().enumerate().take(lk) {
        let krow = &kb[j * d..(j + 1) * d];
        let mut acc = 0.0f32;
        for (&qv, &kv) in qrow.iter().zip(krow) {
            if qv == 0.0 {
                continue;
            }
            acc += qv * kv;
        }
        *sj = acc * scale;
    }
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

/// Backward of [`attention_tm`] for upstream gradient `dy: [B, Lq, Dv]`,
/// writing `dq`, `dk` and `dv` into caller buffers of `q`'s, `k`'s and
/// `v`'s lengths (any contents; every element is overwritten).
///
/// Score rows are recomputed tile-by-tile instead of being read from a
/// stored `[Lq, Lk]` softmax. `dk` and `dv` accumulate over the query index
/// in globally increasing order (serial over tiles), matching the composed
/// backward GEMMs bitwise. The serial score-row scratch is this thread's
/// kernel scratch, so a warm call allocates nothing.
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
) {
    attention_tm_backward_with(simd::active(), q, k, v, scale, dy, dq, dk, dv);
}

/// Explicit-backend [`attention_tm_backward_into`] — the differential suite's
/// entry point. `dk`/`dv` accumulate over the query index in globally
/// increasing order on every backend (the vector arm concatenates exact
/// per-tile FMA chain segments via accumulate reloads), matching the
/// composed backward GEMMs bitwise under the same backend.
///
/// # Panics
///
/// Panics on rank, dimension or buffer-length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn attention_tm_backward_with(
    bk: Backend,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    scale: f32,
    dy: &Tensor,
    dq: &mut [f32],
    dk: &mut [f32],
    dv_all: &mut [f32],
) {
    let (b, lq, d) = (q.shape()[0], q.shape()[1], q.shape()[2]);
    let (lk, dv) = (k.shape()[1], v.shape()[2]);
    assert_eq!(
        dy.shape(),
        &[b, lq, dv],
        "attention_tm_backward dy shape mismatch"
    );
    let lens = [dq.len(), dk.len(), dv_all.len()];
    assert_eq!(lens, [q, k, v].map(Tensor::numel), "gradient lengths");
    let (qd, kd, vd, dyd) = (q.data(), k.data(), v.data(), dy.data());
    for buf in [&mut *dq, &mut *dk, &mut *dv_all] {
        buf.fill(0.0);
    }
    for bi in 0..b {
        let qb = &qd[bi * lq * d..(bi + 1) * lq * d];
        let kb = &kd[bi * lk * d..(bi + 1) * lk * d];
        let vb = &vd[bi * lk * dv..(bi + 1) * lk * dv];
        let dyb = &dyd[bi * lq * dv..(bi + 1) * lq * dv];
        let dqb = &mut dq[bi * lq * d..(bi + 1) * lq * d];
        let dkb = &mut dk[bi * lk * d..(bi + 1) * lk * d];
        let dvb = &mut dv_all[bi * lk * dv..(bi + 1) * lk * dv];
        if bk != Backend::Scalar {
            tm_backward_vec(bk, qb, kb, vb, dyb, scale, lq, lk, d, dv, dqb, dkb, dvb);
            continue;
        }
        simd::with_scratch(|sc| {
            sc.tile_a.resize(lk, 0.0);
            sc.tile_b.resize(lk, 0.0);
            let (s, g) = (&mut sc.tile_a[..], &mut sc.tile_b[..]);
            for i in 0..lq {
                // Recompute the softmax row exactly as the forward did.
                let qrow = &qb[i * d..(i + 1) * d];
                score_row_tm(qrow, kb, scale, lk, d, s);
                softmax_row(s);
                let dyrow = &dyb[i * dv..(i + 1) * dv];
                // g[j] = Σ_d dy[i,d]·v[j,d] (the composed dy·vᵀ GEMM row).
                for (j, gj) in g.iter_mut().enumerate().take(lk) {
                    let vrow = &vb[j * dv..(j + 1) * dv];
                    let mut acc = 0.0f32;
                    for (&gv, &vv) in dyrow.iter().zip(vrow) {
                        if gv == 0.0 {
                            continue;
                        }
                        acc += gv * vv;
                    }
                    *gj = acc;
                }
                // dv[j,d] += w[j]·dy[i,d]: query index i strictly increasing.
                for (j, &wj) in s.iter().enumerate() {
                    if wj == 0.0 {
                        continue;
                    }
                    let dvrow = &mut dvb[j * dv..(j + 1) * dv];
                    for (o, &gv) in dvrow.iter_mut().zip(dyrow) {
                        *o += wj * gv;
                    }
                }
                // Softmax backward then the composed Scale node's backward:
                // gs[j] = (w[j]·(g[j] - dot))·scale, overwriting g in place.
                let dot: f32 = s.iter().zip(g.iter()).map(|(&a, &b)| a * b).sum();
                for (gj, &wj) in g.iter_mut().zip(s.iter()) {
                    *gj = (wj * (*gj - dot)) * scale;
                }
                // dq[i,p] += gs[j]·k[j,p], key index j increasing (axpy).
                let dqrow = &mut dqb[i * d..(i + 1) * d];
                for (j, &gs) in g.iter().enumerate() {
                    if gs == 0.0 {
                        continue;
                    }
                    let krow = &kb[j * d..(j + 1) * d];
                    for (o, &kv) in dqrow.iter_mut().zip(krow) {
                        *o += gs * kv;
                    }
                }
                // dk[j,p] += q[i,p]·gs[j]: query index i strictly increasing.
                for (j, &gs) in g.iter().enumerate() {
                    let dkrow = &mut dkb[j * d..(j + 1) * d];
                    for (o, &qv) in dkrow.iter_mut().zip(qrow) {
                        *o += qv * gs;
                    }
                }
            }
        });
    }
}

/// Vector-backend token-major backward for one batch. Tiles run serially
/// in increasing query order; the softmax tile is recomputed with exactly
/// the forward's kernel sequence, `dk`/`dv` accumulate per tile (exact
/// chain concatenation), and the softmax+scale backward rows use the same
/// scalar expressions as the tape's `SoftmaxLast`/`Scale` nodes.
#[allow(clippy::too_many_arguments)]
fn tm_backward_vec(
    bk: Backend,
    qb: &[f32],
    kb: &[f32],
    vb: &[f32],
    dyb: &[f32],
    scale: f32,
    lq: usize,
    lk: usize,
    d: usize,
    dv: usize,
    dqb: &mut [f32],
    dkb: &mut [f32],
    dvb: &mut [f32],
) {
    simd::with_scratch(|sc| {
        let simd::Scratch {
            pack_a: pk_nt,
            pack_b: pv_nt,
            pack_c: pk_nn,
            tile_a: s_buf,
            tile_b: g_buf,
            tile_c: bt_buf,
            ..
        } = sc;
        simd::pack_b(kb, d, lk, true, pk_nt); // kᵀ panels: score recompute
        simd::pack_b(vb, dv, lk, true, pv_nt); // vᵀ panels: g = dy·vᵀ
        simd::pack_b(kb, lk, d, false, pk_nn); // k panels: dq = gs·k
        let mut i0 = 0;
        while i0 < lq {
            let rows = ATTN_TILE.min(lq - i0);
            // Recompute the softmax tile exactly as the forward did.
            s_buf.resize(rows * lk, 0.0);
            simd::kernel(
                bk,
                AView::rows(qb, i0 * d, d),
                pk_nt,
                s_buf,
                rows,
                d,
                lk,
                false,
            );
            for r in 0..rows {
                simd::softmax_row_scaled(bk, &mut s_buf[r * lk..(r + 1) * lk], scale);
            }
            // g[t,j] = Σ_c dy[i0+t,c]·v[j,c] (the composed dy·vᵀ tile).
            g_buf.resize(rows * lk, 0.0);
            simd::kernel(
                bk,
                AView::rows(dyb, i0 * dv, dv),
                pv_nt,
                g_buf,
                rows,
                dv,
                lk,
                false,
            );
            // dv[j,c] += Σ_t w[t,j]·dy[i0+t,c]: query index strictly
            // increasing across tiles, chain resumed by the accumulate
            // reload.
            simd::pack_b(&dyb[i0 * dv..(i0 + rows) * dv], rows, dv, false, bt_buf);
            let wview = AView {
                data: s_buf,
                base: 0,
                row_stride: 1,
                p_stride: lk,
            };
            simd::kernel(bk, wview, bt_buf, dvb, lk, rows, dv, true);
            // gs[t,j] = (w[t,j]·(g[t,j] − dot))·scale — the tape's
            // SoftmaxLast backward then the Scale node's backward, row by
            // row in the exact scalar expressions.
            for r in 0..rows {
                let srow = &s_buf[r * lk..(r + 1) * lk];
                let grow = &mut g_buf[r * lk..(r + 1) * lk];
                let dot: f32 = srow.iter().zip(grow.iter()).map(|(&a, &b)| a * b).sum();
                for (gj, &wj) in grow.iter_mut().zip(srow) {
                    *gj = (wj * (*gj - dot)) * scale;
                }
            }
            // dq[i0+t,p] = Σ_j gs[t,j]·k[j,p] (rows written exactly once).
            simd::kernel(
                bk,
                AView::rows(g_buf, 0, lk),
                pk_nn,
                &mut dqb[i0 * d..(i0 + rows) * d],
                rows,
                lk,
                d,
                false,
            );
            // dk[j,p] += Σ_t gs[t,j]·q[i0+t,p]: same accumulate chaining
            // as dv.
            simd::pack_b(&qb[i0 * d..(i0 + rows) * d], rows, d, false, bt_buf);
            let gsview = AView {
                data: g_buf,
                base: 0,
                row_stride: 1,
                p_stride: lk,
            };
            simd::kernel(bk, gsview, bt_buf, dkb, lk, rows, d, true);
            i0 += rows;
        }
    });
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
    let (b, l) = (q.shape()[0], q.shape()[2]);
    let nv = v.shape()[1];
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
    assert_eq!(q.rank(), 3, "attention_fm q must be rank-3");
    assert_eq!(k.rank(), 3, "attention_fm k must be rank-3");
    assert_eq!(v.rank(), 3, "attention_fm v must be rank-3");
    let (b, n, l) = (q.shape()[0], q.shape()[1], q.shape()[2]);
    let (bk, nk, lk) = (k.shape()[0], k.shape()[1], k.shape()[2]);
    let (bv, nv, lv) = (v.shape()[0], v.shape()[1], v.shape()[2]);
    assert_eq!(b, bk, "attention_fm q/k batch mismatch");
    assert_eq!(b, bv, "attention_fm q/v batch mismatch");
    assert_eq!(n, nk, "attention_fm q/k feature mismatch");
    assert_eq!(l, lk, "attention_fm q/k length mismatch");
    assert_eq!(l, lv, "attention_fm k/v length mismatch");
    assert_eq!(out.len(), b * nv * l, "attention_fm output length mismatch");
    let bk = simd::active();
    let mut scratch = if fm_scalar_arm(bk, n, nv) {
        vec![0.0f32; l]
    } else {
        Vec::new()
    };
    attention_fm_slices_with(
        bk,
        q.data(),
        k.data(),
        v.data(),
        b,
        n,
        nv,
        l,
        scale,
        out,
        &mut scratch,
    );
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
    assert_eq!(qd.len(), b * n * l, "attention_fm q length mismatch");
    assert_eq!(kd.len(), b * n * l, "attention_fm k length mismatch");
    assert_eq!(vd.len(), b * nv * l, "attention_fm v length mismatch");
    assert_eq!(out.len(), b * nv * l, "attention_fm output length mismatch");
    let scalar = fm_scalar_arm(bk, n, nv);
    assert!(
        !scalar || scratch.len() >= l,
        "attention_fm scratch too small"
    );
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
    attention_fm_backward_with(simd::active(), q, k, v, scale, dy, dq, dk, dv);
}

/// Explicit-backend [`attention_fm_backward_into`] — the differential suite's
/// entry point. `dk`/`dv` accumulate over the query index in increasing
/// order on every backend; the vector arm recomputes the softmax with
/// exactly the forward's sweeps. Calls without channels take the scalar
/// arm.
///
/// # Panics
///
/// Panics on rank, dimension or buffer-length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn attention_fm_backward_with(
    bk: Backend,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    scale: f32,
    dy: &Tensor,
    dq: &mut [f32],
    dk: &mut [f32],
    dv_all: &mut [f32],
) {
    let (b, n, l) = (q.shape()[0], q.shape()[1], q.shape()[2]);
    let nv = v.shape()[1];
    assert_eq!(
        dy.shape(),
        &[b, nv, l],
        "attention_fm_backward dy shape mismatch"
    );
    let lens = [dq.len(), dk.len(), dv_all.len()];
    assert_eq!(lens, [q, k, v].map(Tensor::numel), "gradient lengths");
    let (qd, kd, vd, dyd) = (q.data(), k.data(), v.data(), dy.data());
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
    /// query-lane forward is held to. Per tile of [`ATTN_TILE`] query
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
        for y0 in (0..l).step_by(ATTN_TILE) {
            let t = ATTN_TILE.min(l - y0);
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
        for y0 in (0..l).step_by(ATTN_TILE) {
            let t = ATTN_TILE.min(l - y0);
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
        // Odd lengths (not multiples of ATTN_TILE), rectangular q/k, and a
        // size big enough to engage the tiled parallel path.
        for (b, lq, lk, d, dv) in [(1, 3, 5, 4, 2), (2, 33, 7, 5, 3), (1, 129, 129, 16, 16)] {
            let q = tensor(vec![b, lq, d], 1);
            let k = tensor(vec![b, lk, d], 2);
            let v = tensor(vec![b, lk, dv], 3);
            for scale in [1.0, 0.37] {
                assert_bitwise(
                    &attention_tm(&q, &k, &v, scale),
                    &composed_tm(&q, &k, &v, scale),
                );
            }
        }
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
                attention_fm_backward_with(bk, &q, &k, &v, 0.37, &dy, &mut dq, &mut dk, &mut dv);
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
        let k = tensor(vec![2, 4, 3], 8);
        let v = tensor(vec![2, 4, 6], 9);
        let dy = Tensor::zeros(vec![2, 5, 6]);
        let [mut dq, mut dk, mut dv] = [&q, &k, &v].map(|x| vec![f32::NAN; x.numel()]);
        attention_tm_backward_into(&q, &k, &v, 0.5, &dy, &mut dq, &mut dk, &mut dv);
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

    #[test]
    fn tm_into_requires_zeroed_and_matches() {
        let q = tensor(vec![1, 4, 3], 14);
        let k = tensor(vec![1, 5, 3], 15);
        let v = tensor(vec![1, 5, 2], 16);
        let base = attention_tm(&q, &k, &v, 0.25);
        let mut buf = vec![0.0f32; base.numel()];
        attention_tm_into(&q, &k, &v, 0.25, &mut buf);
        assert_eq!(base.data(), &buf[..]);
    }
}
