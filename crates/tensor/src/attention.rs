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
//! query rows, or `QUERY_LANES` (8) query columns on the query-lane path —
//! and above one shared threshold (`L²·(D + Dv) ≥ PAR_GEMM_FLOPS`) the
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
//! The token-major forward, and the feature-major forward wherever the
//! query-lane kernel below is not taken. A tile is score GEMM, softmax numerators, divide, value GEMM — fused
//! wherever fusing leaves each element's arithmetic untouched: the
//! microkernel overwrites its output, so reused tile buffers are resized but
//! never zero-filled; the composed chain's `Scale` node rides the softmax's
//! max and exp sweeps (`simd::softmax_row_scaled`, an exact IEEE multiply
//! wherever it happens); and the feature-major tile, whose value product
//! wants the softmax tile transposed, lets the softmax's exact IEEE divide
//! write straight into the packed panels (`simd::pack_bt_div`).
//!
//! ## Queries in the lanes
//!
//! Feature-major under AVX2. The four-pass feature-major tile spends most of its time rearranging: a
//! K = 2 "GEMM" through packed panels is an outer product paying GEMM
//! overheads, the exp sweep wants lanes along keys while the value product
//! wants lanes along queries (hence the transposed pack, and a divide that
//! runs at scalar-code width inside it). In `[D, L]` layout the query
//! columns `q[p, y0..y0 + 8]` are already contiguous, so putting the
//! *queries* in the vector lanes and looping over the key index removes the
//! gather, both packs, the transpose and the second GEMM: three sweeps over
//! an `[L, 8]` scratch (`simd::fm_query_block`), each element seeing exactly
//! the composed chain's operations:
//!
//! 1. **score** — `s = fma(q_{n−1}, k_{n−1}[x], … fma(q_0, k_0[x], +0)) ·
//!    scale`: the score microkernel's accumulator, started at `+0` and
//!    walked over the channel index in increasing order (`fma` is
//!    commutative in its factors, so which one is broadcast is immaterial),
//!    then the `Scale` node's IEEE multiply; the running max is exact in
//!    any order;
//! 2. **exp** — `e = exp8(s − m)`, added into *eight* sum vectors keyed by
//!    `x mod 8`, combined `((z0+z4)+(z1+z5))+((z2+z6)+(z3+z7))`, then the
//!    `L mod 8` tail through `exp_scalar` in index order. The row softmax
//!    (`exp_row_scaled`) keeps one 8-lane running sum whose lane `j` adds
//!    keys `j, j + 8, …` in order; with queries in the lanes that lane is
//!    the query's entry of vector `z_j`, so eight vectors and the same tree
//!    reproduce its lane partials, its fixed tree and its tail, transposed;
//! 3. **divide + value** — `w = e / z` (one IEEE divide, the same bits at
//!    any width) and `o_c = fma(v[c,x], w, o_c)` for `x` increasing: the
//!    value microkernel's one chain per output in contraction order.
//!
//! Signed zeros need no argument beyond the four-pass path's: no vector
//! backend zero-skips, chains start at `+0` exactly as the microkernel's
//! do, and `exp` maps `±0` to the same `1.0`, so a max of `+0` or `−0` is
//! invisible. The dispatch rule (`fm_forward_vec`) is a property of the
//! call — backend and channel counts — and both paths give the composed
//! chain's bits, so it can never be observed in an output.

use mfaplace_rt::pool;

use crate::kernels::PAR_GEMM_FLOPS;
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
    for bi in 0..b {
        let qb = &qd[bi * lq * d..(bi + 1) * lq * d];
        let kb = &kd[bi * lk * d..(bi + 1) * lk * d];
        let vb = &vd[bi * lk * dv..(bi + 1) * lk * dv];
        let ob = &mut out[bi * lq * dv..(bi + 1) * lq * dv];
        if bk != Backend::Scalar {
            tm_forward_vec(bk, qb, kb, vb, scale, lq, lk, d, dv, ob);
            continue;
        }
        // Query tiles write disjoint output rows, so the per-batch fan-out
        // is bitwise-safe: each row's arithmetic is thread-independent.
        if lq * lk * (d + dv) >= PAR_GEMM_FLOPS && lq > ATTN_TILE {
            pool::parallel_chunks_mut(ob, ATTN_TILE * dv, |ti, chunk| {
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
/// backend, and rows are thread-independent, so the parallel fan-out uses
/// the same policy as the scalar path.
#[allow(clippy::too_many_arguments)]
fn tm_forward_vec(
    bk: Backend,
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
        if lq * lk * (d + dv) >= PAR_GEMM_FLOPS && lq > ATTN_TILE {
            pool::parallel_chunks_mut(ob, ATTN_TILE * dv, |ti, chunk| {
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
/// backend. Public so the plan executor's `SoftmaxLast` op,
/// [`Tensor::softmax_lastdim`] and the fused attention paths all share the
/// exact same row loop — whichever backend is active, every softmax in the
/// process computes identical bits for identical input rows.
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

/// Backward of [`attention_tm`]: returns `(dq, dk, dv)` for upstream
/// gradient `dy: [B, Lq, Dv]`.
///
/// Score rows are recomputed tile-by-tile instead of being read from a
/// stored `[Lq, Lk]` softmax. `dk` and `dv` accumulate over the query index
/// in globally increasing order (serial over tiles), matching the composed
/// backward GEMMs bitwise.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn attention_tm_backward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    scale: f32,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    attention_tm_backward_with(simd::active(), q, k, v, scale, dy)
}

/// Explicit-backend [`attention_tm_backward`] — the differential suite's
/// entry point. `dk`/`dv` accumulate over the query index in globally
/// increasing order on every backend (the vector arm concatenates exact
/// per-tile FMA chain segments via accumulate reloads), matching the
/// composed backward GEMMs bitwise under the same backend.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn attention_tm_backward_with(
    bk: Backend,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    scale: f32,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (b, lq, d) = (q.shape()[0], q.shape()[1], q.shape()[2]);
    let (lk, dv) = (k.shape()[1], v.shape()[2]);
    assert_eq!(
        dy.shape(),
        &[b, lq, dv],
        "attention_tm_backward dy shape mismatch"
    );
    let (qd, kd, vd, dyd) = (q.data(), k.data(), v.data(), dy.data());
    let mut dq = vec![0.0f32; b * lq * d];
    let mut dk = vec![0.0f32; b * lk * d];
    let mut dvb_all = vec![0.0f32; b * lk * dv];
    let mut s = vec![0.0f32; lk];
    let mut g = vec![0.0f32; lk];
    for bi in 0..b {
        let qb = &qd[bi * lq * d..(bi + 1) * lq * d];
        let kb = &kd[bi * lk * d..(bi + 1) * lk * d];
        let vb = &vd[bi * lk * dv..(bi + 1) * lk * dv];
        let dyb = &dyd[bi * lq * dv..(bi + 1) * lq * dv];
        let dqb = &mut dq[bi * lq * d..(bi + 1) * lq * d];
        let dkb = &mut dk[bi * lk * d..(bi + 1) * lk * d];
        let dvb = &mut dvb_all[bi * lk * dv..(bi + 1) * lk * dv];
        if bk != Backend::Scalar {
            tm_backward_vec(bk, qb, kb, vb, dyb, scale, lq, lk, d, dv, dqb, dkb, dvb);
            continue;
        }
        for i in 0..lq {
            // Recompute the softmax row exactly as the forward did.
            let qrow = &qb[i * d..(i + 1) * d];
            score_row_tm(qrow, kb, scale, lk, d, &mut s);
            softmax_row(&mut s);
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
            let dot: f32 = s.iter().zip(&g).map(|(&a, &b)| a * b).sum();
            for (gj, &wj) in g.iter_mut().zip(&s) {
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
    }
    (
        Tensor::from_vec(vec![b, lq, d], dq).expect("attention_tm dq"),
        Tensor::from_vec(vec![b, lk, d], dk).expect("attention_tm dk"),
        Tensor::from_vec(vec![b, lk, dv], dvb_all).expect("attention_tm dv"),
    )
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
    let mut scratch = vec![0.0f32; l];
    attention_fm_slices(
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
/// scratch of at least `l` elements (contents ignored; used by the plan
/// executor so the serial path allocates nothing per forward). The
/// parallel tile path allocates its per-worker tile buffers, exactly like
/// [`attention_tm_slices`]. `out` may hold any contents; every element is
/// overwritten.
///
/// # Panics
///
/// Panics on slice-length mismatches or if `scratch.len() < l`.
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
/// column at a time; the vector arm runs blocks of query columns — the
/// query-lane kernel where the backend has one, four-pass microkernel tiles
/// otherwise, fanned out above the shared threshold (see the module docs) —
/// matching the composed `bmm`/`scale`/`permute`/`softmax`/`bmm` chain
/// bitwise under the same backend.
///
/// # Panics
///
/// Panics on slice-length mismatches or if `scratch.len() < l`.
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
    assert!(scratch.len() >= l, "attention_fm scratch too small");
    let s = &mut scratch[..l];
    for bi in 0..b {
        let qb = &qd[bi * n * l..(bi + 1) * n * l];
        let kb = &kd[bi * n * l..(bi + 1) * n * l];
        let vb = &vd[bi * nv * l..(bi + 1) * nv * l];
        let ob = &mut out[bi * nv * l..(bi + 1) * nv * l];
        if bk != Backend::Scalar {
            fm_forward_vec(bk, qb, kb, vb, scale, n, nv, l, ob);
            continue;
        }
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

/// Vector-backend feature-major forward for one batch: the query-lane
/// kernel ([`fm_forward_query_lanes`]) where the backend has one, the
/// four-pass tile ([`fm_forward_tiled`]) otherwise. The rule is the
/// backend alone because the lane kernel measured no slower at any shape:
/// 0.42–0.51× of the tile's time at 2 channels, 0.8× at 32, 0.85–1.02× from
/// 64 to 256, flat in `L` (EXPERIMENTS.md has the sweep). Both produce the
/// bits of the composed chain under `bk`, so the choice is invisible in the
/// output.
#[allow(clippy::too_many_arguments)]
fn fm_forward_vec(
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
    if simd::has_query_lanes(bk) && n > 0 && nv > 0 {
        fm_forward_query_lanes(bk, qb, kb, vb, scale, n, nv, l, ob);
    } else {
        fm_forward_tiled(bk, qb, kb, vb, scale, n, nv, l, ob);
    }
}

/// Feature-major forward for one batch with the queries in the vector
/// lanes: blocks of [`QUERY_LANES`] query columns, each three sweeps over an
/// `[l, QUERY_LANES]` scratch ([`simd::fm_query_block`]) — no gather, no
/// pack, no transposed copy of the probabilities.
///
/// Blocks are independent, so under the shared threshold they fan out over
/// the pool in contiguous runs, one per worker, each worker filling its run
/// of a block-major staging buffer that is scattered into the interleaved
/// output columns after the join. Serially a block's outputs are contiguous
/// per channel in `ob` and are stored in place.
#[allow(clippy::too_many_arguments)]
fn fm_forward_query_lanes(
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
    let n_blocks = l.div_ceil(QUERY_LANES);
    let nt = if l * l * (n + nv) >= PAR_GEMM_FLOPS {
        pool::max_threads().min(n_blocks)
    } else {
        1
    };
    if nt <= 1 {
        return fm_query_blocks(bk, qb, kb, vb, scale, n, nv, l, 0, ob, false);
    }
    // Block `i` owns `staged[i * QUERY_LANES * nv..]`: every block but the
    // last is full, so a worker's run of whole blocks is contiguous.
    let per = n_blocks.div_ceil(nt) * QUERY_LANES;
    let mut staged = vec![0.0f32; nv * l];
    pool::parallel_chunks_mut(&mut staged, per * nv, |wi, run| {
        fm_query_blocks(bk, qb, kb, vb, scale, n, nv, l, wi * per, run, true);
    });
    for (bi, o_block) in staged.chunks(QUERY_LANES * nv).enumerate() {
        scatter_columns(o_block, nv, l, bi * QUERY_LANES, o_block.len() / nv, ob);
    }
}

/// The query-lane blocks of columns `[y0, y0 + cols)`, `y0` a multiple of
/// [`QUERY_LANES`]. In place (`staged == false`), `out` is the `[nv, l]`
/// output from column `y0` on and `cols = l - y0`; staged, `out` holds
/// `cols = out.len() / nv` columns block after block, each a contiguous
/// `[nv, t]` tile. The `[l, QUERY_LANES]` scratch is the executing thread's
/// [`simd::Scratch`], so a warm serial call allocates nothing.
#[allow(clippy::too_many_arguments)]
fn fm_query_blocks(
    bk: Backend,
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
        sc.tile_a.resize(QUERY_LANES * l, 0.0);
        for dy in (0..cols).step_by(QUERY_LANES) {
            let t = QUERY_LANES.min(cols - dy);
            let (at, o_stride) = if staged { (dy * nv, t) } else { (dy, l) };
            simd::fm_query_block(
                bk,
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

/// Four-pass feature-major forward for one batch. `k` is packed once;
/// query-column tiles then run through [`fm_tile_vec`], each producing a
/// tile-local `[nv, t]` block that is scattered into its output columns.
///
/// Tiles are independent (every output element is one thread-independent
/// FMA chain), so under the token-major path's threshold policy they fan
/// out over the pool in contiguous blocks, one per worker. A worker's
/// columns interleave with every other worker's in `ob`, so workers fill a
/// tile-major staging buffer (disjoint `&mut` blocks) that is scattered
/// after the join — bitwise identical at any thread count. Like the
/// token-major path, the parallel arm allocates its per-worker tile
/// buffers; the serial arm takes them from this thread's [`simd::Scratch`]
/// and allocates nothing.
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
    simd::with_scratch(|sc| {
        let simd::Scratch {
            pack_a: pk_buf,
            pack_b: pt_buf,
            tile_a: e_buf,
            tile_b: o_buf,
            tile_c: q_buf,
            ..
        } = sc;
        simd::pack_b(kb, n, l, false, pk_buf); // k panels: score contraction over n
        let pk: &[f32] = pk_buf;
        let n_tiles = l.div_ceil(ATTN_TILE);
        let nt = if l * l * (n + nv) >= PAR_GEMM_FLOPS && l > ATTN_TILE && nv > 0 {
            pool::max_threads().min(n_tiles)
        } else {
            1
        };
        if nt <= 1 {
            let mut y0 = 0;
            while y0 < l {
                let t = ATTN_TILE.min(l - y0);
                o_buf.resize(nv * t, 0.0);
                fm_tile_vec(
                    bk, qb, pk, vb, scale, n, nv, l, y0, t, q_buf, e_buf, pt_buf, o_buf,
                );
                scatter_columns(o_buf, nv, l, y0, t, ob);
                y0 += t;
            }
            return;
        }
        // Tile `i` owns `staged[i * ATTN_TILE * nv..]`: every tile but the
        // last is full, so a worker's block of whole tiles is contiguous.
        let tiles_per = n_tiles.div_ceil(nt);
        let mut staged = vec![0.0f32; nv * l];
        pool::parallel_chunks_mut(&mut staged, tiles_per * ATTN_TILE * nv, |wi, mut block| {
            let (mut q_buf, mut e_buf, mut pt_buf) = (Vec::new(), Vec::new(), Vec::new());
            let mut y0 = wi * tiles_per * ATTN_TILE;
            while !block.is_empty() {
                let t = ATTN_TILE.min(l - y0);
                let (o_tile, rest) = block.split_at_mut(nv * t);
                fm_tile_vec(
                    bk,
                    qb,
                    pk,
                    vb,
                    scale,
                    n,
                    nv,
                    l,
                    y0,
                    t,
                    &mut q_buf,
                    &mut e_buf,
                    &mut pt_buf,
                    o_tile,
                );
                block = rest;
                y0 += t;
            }
        });
        for (ti, o_tile) in staged.chunks(ATTN_TILE * nv).enumerate() {
            scatter_columns(o_tile, nv, l, ti * ATTN_TILE, o_tile.len() / nv, ob);
        }
    });
}

/// One vector feature-major forward tile: output columns `[y0, y0 + t)` as
/// a contiguous `[nv, t]` block in `o_tile`. Four passes over the
/// `[t, l]` tile, each leaving every element's arithmetic exactly that of
/// the composed `bmm`/`scale`/`permute`/`softmax`/`bmm` chain:
///
/// 1. score `e[r,x] = Σ_p q[p,y0+r]·k[p,x]` (TN microkernel; it overwrites
///    every element, so the reused buffer is never zero-filled);
/// 2. `e[r,·] ← exp(e[r,·]·scale − max)` with the row sum kept aside — the
///    scale multiply rides the max and exp sweeps instead of a pass of its
///    own ([`simd::exp_row_scaled`]);
/// 3. the softmax's divide, written straight into the transposed panels
///    the value product reads ([`simd::pack_bt_div`]) rather than back into
///    the tile to be re-read by a separate pack;
/// 4. value `o[c,r] = Σ_x v[c,x]·w[r,x]` (NT product as the NN microkernel).
///
/// The three `Vec`s are reusable scratch (contents ignored, grown on
/// demand).
#[allow(clippy::too_many_arguments)]
fn fm_tile_vec(
    bk: Backend,
    qb: &[f32],
    pk: &[f32],
    vb: &[f32],
    scale: f32,
    n: usize,
    nv: usize,
    l: usize,
    y0: usize,
    t: usize,
    q_buf: &mut Vec<f32>,
    e_buf: &mut Vec<f32>,
    pt_buf: &mut Vec<f32>,
    o_tile: &mut [f32],
) {
    gather_columns(qb, n, l, y0, t, q_buf);
    e_buf.resize(t * l, 0.0);
    let qview = AView {
        data: q_buf,
        base: 0,
        row_stride: 1,
        p_stride: t,
    };
    simd::kernel(bk, qview, pk, e_buf, t, n, l, false);
    let mut z = [0.0f32; ATTN_TILE];
    for (row, zr) in e_buf.chunks_mut(l).zip(&mut z) {
        *zr = simd::exp_row_scaled(bk, row, scale);
    }
    simd::pack_bt_div(e_buf, l, t, &z[..t], pt_buf);
    simd::kernel(bk, AView::rows(vb, 0, l), pt_buf, o_tile, nv, l, t, false);
}

/// Gathers columns `[y0, y0 + t)` of the row-major `[rows, l]` matrix `src`
/// into `buf` as a contiguous `[rows, t]` tile.
fn gather_columns(src: &[f32], rows: usize, l: usize, y0: usize, t: usize, buf: &mut Vec<f32>) {
    buf.clear();
    for r in 0..rows {
        buf.extend_from_slice(&src[r * l + y0..r * l + y0 + t]);
    }
}

/// Inverse of [`gather_columns`]: writes the `[rows, t]` tile into columns
/// `[y0, y0 + t)` of the row-major `[rows, l]` matrix `dst`.
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

/// Backward of [`attention_fm`]: returns `(dq, dk, dv)` for upstream
/// gradient `dy: [B, Dv, L]`. Score rows are recomputed per query column;
/// `dk` and `dv` accumulate over the query index in increasing order.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn attention_fm_backward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    scale: f32,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    attention_fm_backward_with(simd::active(), q, k, v, scale, dy)
}

/// Explicit-backend [`attention_fm_backward`] — the differential suite's
/// entry point. `dk`/`dv` accumulate over the query index in increasing
/// order on every backend; the vector arm recomputes the softmax tile with
/// exactly the forward's kernel sequence.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn attention_fm_backward_with(
    bk: Backend,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    scale: f32,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (b, n, l) = (q.shape()[0], q.shape()[1], q.shape()[2]);
    let nv = v.shape()[1];
    assert_eq!(
        dy.shape(),
        &[b, nv, l],
        "attention_fm_backward dy shape mismatch"
    );
    let (qd, kd, vd, dyd) = (q.data(), k.data(), v.data(), dy.data());
    let mut dq = vec![0.0f32; b * n * l];
    let mut dk = vec![0.0f32; b * n * l];
    let mut dv_all = vec![0.0f32; b * nv * l];
    let mut s = vec![0.0f32; l];
    let mut g = vec![0.0f32; l];
    for bi in 0..b {
        let qb = &qd[bi * n * l..(bi + 1) * n * l];
        let kb = &kd[bi * n * l..(bi + 1) * n * l];
        let vb = &vd[bi * nv * l..(bi + 1) * nv * l];
        let dyb = &dyd[bi * nv * l..(bi + 1) * nv * l];
        let dqb = &mut dq[bi * n * l..(bi + 1) * n * l];
        let dkb = &mut dk[bi * n * l..(bi + 1) * n * l];
        let dvb = &mut dv_all[bi * nv * l..(bi + 1) * nv * l];
        if bk != Backend::Scalar {
            fm_backward_vec(bk, qb, kb, vb, dyb, scale, n, nv, l, dqb, dkb, dvb);
            continue;
        }
        for y in 0..l {
            score_row_fm(qb, kb, scale, n, l, y, &mut s);
            softmax_row(&mut s);
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
                for (o, &wx) in dvrow.iter_mut().zip(&*s) {
                    *o += dyv * wx;
                }
            }
            // gs[x] = (w[x]·(g[x] - dot))·scale, overwriting g in place.
            let dot: f32 = s.iter().zip(&g).map(|(&a, &b)| a * b).sum();
            for (gx, &wx) in g.iter_mut().zip(&s) {
                *gx = (wx * (*gx - dot)) * scale;
            }
            // dq[p,y] = Σ_x k[p,x]·gs[x] with the composed lhs zero-skip.
            for p in 0..n {
                let krow = &kb[p * l..(p + 1) * l];
                let mut acc = 0.0f32;
                for (&kv, &gs) in krow.iter().zip(&*g) {
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
                for (o, &gs) in dkrow.iter_mut().zip(&*g) {
                    if gs == 0.0 {
                        continue;
                    }
                    *o += gs * qv;
                }
            }
        }
    }
    (
        Tensor::from_vec(vec![b, n, l], dq).expect("attention_fm dq"),
        Tensor::from_vec(vec![b, n, l], dk).expect("attention_fm dk"),
        Tensor::from_vec(vec![b, nv, l], dv_all).expect("attention_fm dv"),
    )
}

/// Vector-backend feature-major backward for one batch. Query-column tiles
/// run serially in increasing order; `dk`/`dv` chains resume across tiles
/// via accumulate reloads, and the softmax+scale backward rows use the
/// tape's exact scalar expressions.
#[allow(clippy::too_many_arguments)]
fn fm_backward_vec(
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
        let simd::Scratch {
            pack_a: pk_buf,
            pack_b: pv_buf,
            pack_c: pt_buf,
            tile_a: e_buf,
            tile_b: g_buf,
            tile_c: q_buf,
            tile_d: dy_buf,
        } = sc;
        simd::pack_b(kb, n, l, false, pk_buf); // k panels: score recompute
        simd::pack_b(vb, nv, l, false, pv_buf); // v panels: g = vᵀ·dy
        let mut y0 = 0;
        while y0 < l {
            let t = ATTN_TILE.min(l - y0);
            // Recompute the softmax tile exactly as the forward did.
            gather_columns(qb, n, l, y0, t, q_buf);
            e_buf.resize(t * l, 0.0);
            let qview = AView {
                data: q_buf,
                base: 0,
                row_stride: 1,
                p_stride: t,
            };
            simd::kernel(bk, qview, pk_buf, e_buf, t, n, l, false);
            for row in e_buf.chunks_mut(l) {
                simd::softmax_row_scaled(bk, row, scale);
            }
            gather_columns(dyb, nv, l, y0, t, dy_buf);
            // g[r,x] = Σ_c dy[c,y0+r]·v[c,x].
            g_buf.resize(t * l, 0.0);
            let dyview = AView {
                data: dy_buf,
                base: 0,
                row_stride: 1,
                p_stride: t,
            };
            simd::kernel(bk, dyview, pv_buf, g_buf, t, nv, l, false);
            // dv[c,x] += Σ_r dy[c,y0+r]·w[r,x]: accumulate chaining over
            // tiles keeps the query index globally increasing.
            simd::pack_b(e_buf, t, l, false, pt_buf);
            simd::kernel(bk, AView::rows(dy_buf, 0, t), pt_buf, dvb, nv, t, l, true);
            // gs[r,x] = (w[r,x]·(g[r,x] − dot))·scale, tape expressions.
            for r in 0..t {
                let srow = &e_buf[r * l..(r + 1) * l];
                let grow = &mut g_buf[r * l..(r + 1) * l];
                let dot: f32 = srow.iter().zip(grow.iter()).map(|(&a, &b)| a * b).sum();
                for (gx, &wx) in grow.iter_mut().zip(srow) {
                    *gx = (wx * (*gx - dot)) * scale;
                }
            }
            // dq[p,y0+r] = Σ_x k[p,x]·gs[r,x] via a transposed pack of gs;
            // the [n, t] tile reuses the dy buffer, then scatters back.
            simd::pack_b(g_buf, l, t, true, pt_buf);
            dy_buf.resize(n * t, 0.0);
            simd::kernel(bk, AView::rows(kb, 0, l), pt_buf, dy_buf, n, l, t, false);
            scatter_columns(dy_buf, n, l, y0, t, dqb);
            // dk[p,x] += Σ_r q[p,y0+r]·gs[r,x]: same accumulate chaining.
            simd::pack_b(g_buf, t, l, false, pt_buf);
            simd::kernel(bk, AView::rows(q_buf, 0, t), pt_buf, dkb, n, t, l, true);
            y0 += t;
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
        let scores = q.bmm(&kt).scale(scale);
        scores.softmax_lastdim().bmm(v)
    }

    /// Composed feature-major (PAM) reference: `bᵗ·c` scores, transposed
    /// row-softmax, `v·pᵗ` output.
    fn composed_fm(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Tensor {
        let bt = k.permute(&[0, 2, 1]);
        let e = bt.bmm(q).scale(scale);
        let p = e.permute(&[0, 2, 1]).softmax_lastdim();
        v.bmm(&p.permute(&[0, 2, 1]))
    }

    fn assert_bitwise(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
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
        // Both private forwards under the active backend (when it has a
        // query-lane kernel): ragged query blocks and key tails, one and
        // several channel groups, the tile path's ragged last tile.
        let bk = simd::active();
        if !simd::has_query_lanes(bk) {
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
                            fm_forward_query_lanes(bk, q, k, v, scale, n, nv, l, &mut lanes);
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

    #[test]
    fn fm_query_lane_scratch_stays_within_sixteen_l_floats() {
        // The grid-256 `mfa1` shape on a fresh thread, serial arm: the
        // thread's kernel scratch afterwards is this op's whole footprint
        // (the four-pass tile held a 2 MiB tile plus a 2 MiB packed copy).
        let bk = simd::active();
        if !simd::has_query_lanes(bk) {
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
    fn tm_backward_shapes_and_zero_dy() {
        let q = tensor(vec![2, 5, 3], 7);
        let k = tensor(vec![2, 4, 3], 8);
        let v = tensor(vec![2, 4, 6], 9);
        let dy = Tensor::zeros(vec![2, 5, 6]);
        let (dq, dk, dv) = attention_tm_backward(&q, &k, &v, 0.5, &dy);
        assert_eq!(dq.shape(), q.shape());
        assert_eq!(dk.shape(), k.shape());
        assert_eq!(dv.shape(), v.shape());
        assert!(dq.data().iter().all(|&x| x == 0.0));
        assert!(dk.data().iter().all(|&x| x == 0.0));
        assert!(dv.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn fm_backward_shapes() {
        let q = tensor(vec![1, 3, 7], 10);
        let k = tensor(vec![1, 3, 7], 11);
        let v = tensor(vec![1, 2, 7], 12);
        let dy = tensor(vec![1, 2, 7], 13);
        let (dq, dk, dv) = attention_fm_backward(&q, &k, &v, 1.0, &dy);
        assert_eq!(dq.shape(), q.shape());
        assert_eq!(dk.shape(), k.shape());
        assert_eq!(dv.shape(), v.shape());
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
