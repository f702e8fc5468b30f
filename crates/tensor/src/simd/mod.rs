//! Runtime-dispatched SIMD microkernels.
//!
//! The hot inner loops of the tensor crate — the GEMM family
//! (`matmul2d`/`bmm`/`bmm_nt`/`bmm_tn` and the plan executor's slice entry
//! points), softmax rows, the fused conv epilogue and the fused attention
//! tiles — route through one of two backends selected **once per
//! process**:
//!
//! - [`Backend::Scalar`] — the original scalar loops, kept verbatim in
//!   `kernels.rs`/`attention.rs`/`lowlevel.rs`. This is the **bitwise
//!   reference**: every golden file and every pre-existing equivalence
//!   suite pins its results to this backend. Every target without AVX2
//!   runs it.
//! - [`Backend::Avx2`] — AVX2 + FMA packed-panel microkernels (x86_64),
//!   detected via `is_x86_feature_detected!`. Where the host also has
//!   AVX-512F (detected once, beside the backend), the position-attention
//!   forward's query-lane kernel takes sixteen queries per block instead of
//!   eight ([`query_lanes`]): one generic kernel body over a lane-vector
//!   trait (`simd/lanes.rs`) with the same bits at either width, so it is
//!   neither a backend nor a knob.
//!
//! The backend is chosen from the `MFAPLACE_KERNELS` environment variable
//! (`auto` | `scalar` | `avx2`, default `auto`) on first kernel
//! use, or forced programmatically via [`force`] (the CLI `--kernels`
//! flag). Forcing an unsupported backend through the environment falls
//! back to auto-detection with a warning; forcing through [`force`]
//! returns an error so the CLI can reject it cleanly.
//!
//! # Numeric contract
//!
//! The vector backends do **not** promise bitwise equality with the scalar
//! reference — vectorized reductions use FMA chains (one rounding per
//! multiply-add instead of two) and the vector softmax uses a polynomial
//! `exp`. They promise something more structured:
//!
//! 1. **Per-element contraction-order chains.** Every GEMM-family output
//!    element is produced by a single accumulator walking the contraction
//!    index in increasing order (an FMA chain), vectorized across
//!    *independent output columns*. Column position, row blocking, panel
//!    packing, batch size and thread count never change an element's
//!    chain, so every *within-backend* bitwise contract in the codebase —
//!    fused-vs-composed attention (values and gradients), plan-vs-tape,
//!    batched-vs-single, serial-vs-parallel, `bmm_nt`/`bmm_tn` vs composed
//!    permute — holds under the vector backends exactly as it does under
//!    scalar. Only *scalar-vs-vector* comparisons need a tolerance.
//! 2. **Tolerance vs. scalar.** Vector results stay within `1e-5` of the
//!    output scale of the scalar reference in max-norm (`1e-6` would be
//!    too tight: FMA contraction differences grow with reduction length). `crates/tensor/tests/simd_equivalence.rs`
//!    enforces this per kernel; `crates/core/tests/kernel_tolerance.rs`
//!    enforces it end-to-end per zoo architecture, where the predictor-level
//!    acceptance is "the 8-class argmax congestion level map is unchanged".
//! 3. **Elementwise ops stay bitwise.** The fused conv epilogue
//!    (bias/affine/ReLU) is elementwise; its vector form performs the same
//!    IEEE ops per element and remains bitwise identical to scalar.

use std::sync::atomic::{AtomicU8, Ordering};

use mfaplace_rt::pool;

use crate::kernels;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod exp;
#[cfg(target_arch = "x86_64")]
mod lanes;

/// Kernel backend identifier. See the module docs for the numeric
/// contract each backend carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar loops — the bitwise-golden reference.
    Scalar,
    /// AVX2 + FMA microkernels (x86_64).
    Avx2,
}

impl Backend {
    /// Stable lowercase name (`scalar` / `avx2`) used by the CLI,
    /// `model-info`, the `mfaplace_kernel_backend` metrics gauge and bench
    /// labels.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parses a knob value. `auto` (or empty) parses to `None`, meaning
    /// "detect the best supported backend".
    pub fn parse(s: &str) -> Result<Option<Backend>, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Ok(None),
            "scalar" => Ok(Some(Backend::Scalar)),
            "avx2" => Ok(Some(Backend::Avx2)),
            other => Err(format!(
                "unknown kernel backend '{other}' (expected auto|scalar|avx2)"
            )),
        }
    }

    /// Whether this backend can execute on the current host.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => false,
        }
    }
}

/// Best backend the current host supports.
pub fn detect() -> Backend {
    if Backend::Avx2.is_supported() {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

/// Every backend the current host supports, scalar first.
pub fn supported() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    if Backend::Avx2.is_supported() {
        v.push(Backend::Avx2);
    }
    v
}

/// Whether the host has AVX-512F, detected once: it sets the query-lane
/// forward's width under [`Backend::Avx2`] ([`query_lanes`]), not a backend.
fn has_avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static DETECTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Process-global active backend: 0 = uninitialized, else `Backend as u8
/// + 1`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => 1,
        Backend::Avx2 => 2,
    }
}

fn decode(v: u8) -> Option<Backend> {
    match v {
        1 => Some(Backend::Scalar),
        2 => Some(Backend::Avx2),
        _ => None,
    }
}

/// The active backend, initializing from `MFAPLACE_KERNELS` on first use.
///
/// An unknown or host-unsupported value in the environment prints one
/// warning to stderr and falls back to auto-detection — kernels must keep
/// working under a typo'd service environment. Use [`force`] for strict
/// validation.
pub fn active() -> Backend {
    if let Some(b) = decode(ACTIVE.load(Ordering::Relaxed)) {
        return b;
    }
    let requested = std::env::var("MFAPLACE_KERNELS").unwrap_or_default();
    let chosen = match Backend::parse(&requested) {
        Ok(None) => detect(),
        Ok(Some(b)) if b.is_supported() => b,
        Ok(Some(b)) => {
            eprintln!(
                "warning: MFAPLACE_KERNELS={} is not supported on this host; using {}",
                b.name(),
                detect().name()
            );
            detect()
        }
        Err(e) => {
            eprintln!("warning: {e}; using {}", detect().name());
            detect()
        }
    };
    // A racing initializer computes the same value; last store wins.
    ACTIVE.store(encode(chosen), Ordering::Relaxed);
    chosen
}

/// Forces the active backend for the rest of the process (`None` =
/// auto-detect). Returns the backend that is now active, or an error if
/// the requested backend is not supported on this host.
pub fn force(choice: Option<Backend>) -> Result<Backend, String> {
    let chosen = match choice {
        None => detect(),
        Some(b) if b.is_supported() => b,
        Some(b) => {
            return Err(format!(
                "kernel backend '{}' is not supported on this host (detected: {})",
                b.name(),
                detect().name()
            ))
        }
    };
    ACTIVE.store(encode(chosen), Ordering::Relaxed);
    Ok(chosen)
}

// --------------------------------------------------------------- scratch

/// Vector-lane panel width of the packed-B microkernels: AVX2 consumes a
/// panel row as two 8-lane registers.
pub(crate) const NR: usize = 16;

/// Output rows per microkernel step.
const MR: usize = 4;

/// Per-thread reusable buffers for panel packing, attention tiles and the
/// direct convolution's column blocks, so the steady-state path allocates
/// nothing per call (matching the plan executor's amortized
/// zero-allocation property).
#[derive(Default)]
pub(crate) struct Scratch {
    pub pack_a: Vec<f32>,
    pub tile_a: Vec<f32>,
    pub tile_b: Vec<f32>,
    /// One column block of a convolution's lowering, packed.
    pub conv_cols: Vec<f32>,
    /// That block's `[oc, width]` product, before the epilogue.
    pub conv_out: Vec<f32>,
}

#[cfg(test)]
impl Scratch {
    /// Floats this thread's scratch currently holds allocated.
    pub(crate) fn floats(&self) -> usize {
        let Scratch {
            pack_a,
            tile_a,
            tile_b,
            conv_cols,
            conv_out,
        } = self;
        [pack_a, tile_a, tile_b, conv_cols, conv_out]
            .iter()
            .map(|v| v.capacity())
            .sum()
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

/// Runs `f` with this thread's kernel scratch. Do not nest.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

// ------------------------------------------------------------ B packing

/// Packs `b` into `ceil(n / NR)` column panels of `k` rows each
/// (`panel[jb][p][lane] = b[p, jb*NR + lane]`), zero-padding lanes past
/// `n`. With `trans`, `b` is `[n, k]` and the packed panel reads
/// `b[jb*NR + lane, p]` — the packed result is the transpose, which turns
/// an NT product into the NN microkernel without changing any output
/// element's contraction order.
///
/// Every element of the packed length is written (pad lanes included), so
/// `buf` is only resized, never cleared first: a reused buffer costs no
/// zero-fill pass and its stale contents are never observable.
pub(crate) fn pack_b(src: &[f32], k: usize, n: usize, trans: bool, buf: &mut Vec<f32>) {
    if trans {
        return pack_bt(src, k, n, buf);
    }
    let nb = n.div_ceil(NR);
    buf.resize(nb * k * NR, 0.0);
    for jb in 0..nb {
        let j0 = jb * NR;
        let width = NR.min(n - j0);
        let panel = &mut buf[jb * k * NR..(jb + 1) * k * NR];
        for (p, prow) in panel.chunks_mut(NR).enumerate() {
            prow[..width].copy_from_slice(&src[p * n + j0..p * n + j0 + width]);
            prow[width..].fill(0.0);
        }
    }
}

/// Panel rows staged per block of the transposed pack: the `NR`-wide block
/// being filled (8 KiB) and the source-row stage stay L1-resident.
const PACK_BLOCK: usize = 128;

/// Source rows interleaved per store of the transposed pack.
const PACK_LANES: usize = 4;

/// Transposed pack core. A source row is contiguous along `p` while a
/// panel wants it at stride `NR`, so writing one source row at a time
/// sweeps the whole `k * NR` panel once per lane. Instead the panel is
/// filled in blocks of [`PACK_BLOCK`] rows: `PACK_LANES` source-row
/// segments are staged into a small contiguous buffer and interleaved into
/// the block `PACK_LANES` lanes per store, so every panel row is completed
/// while its block is in L1. Pure data movement — the packed bytes are
/// those of the one-line definition in [`pack_b`].
fn pack_bt(src: &[f32], k: usize, n: usize, buf: &mut Vec<f32>) {
    let nb = n.div_ceil(NR);
    buf.resize(nb * k * NR, 0.0);
    let mut stage = [[0.0f32; PACK_BLOCK]; PACK_LANES];
    for jb in 0..nb {
        let j0 = jb * NR;
        let width = NR.min(n - j0);
        let panel = &mut buf[jb * k * NR..(jb + 1) * k * NR];
        for (bi, block) in panel.chunks_mut(PACK_BLOCK * NR).enumerate() {
            let p0 = bi * PACK_BLOCK;
            let pb = block.len() / NR;
            for g in (0..NR).step_by(PACK_LANES) {
                for (lane, st) in (g..).zip(stage.iter_mut()) {
                    let st = &mut st[..pb];
                    if lane >= width {
                        st.fill(0.0);
                        continue;
                    }
                    let row = j0 + lane;
                    st.copy_from_slice(&src[row * k + p0..row * k + p0 + pb]);
                }
                let [s0, s1, s2, s3] = &stage;
                for ((((prow, &a), &b), &c), &d) in
                    block.chunks_exact_mut(NR).zip(s0).zip(s1).zip(s2).zip(s3)
                {
                    prow[g..g + PACK_LANES].copy_from_slice(&[a, b, c, d]);
                }
            }
        }
    }
}

// ----------------------------------------------------------- microkernel

/// Strided view of the A operand of [`kernel`]: element `(row, p)` of the
/// product reads `a[base + row * row_stride + p * p_stride]`. Covers NN
/// (`row_stride = k, p_stride = 1`), TN (`row_stride = 1, p_stride = m`)
/// and the unit tests' four-pass attention tiles without copying A.
#[derive(Clone, Copy)]
pub(crate) struct AView<'a> {
    pub data: &'a [f32],
    pub base: usize,
    pub row_stride: usize,
    pub p_stride: usize,
}

impl<'a> AView<'a> {
    pub(crate) fn rows(data: &'a [f32], base: usize, k: usize) -> Self {
        AView {
            data,
            base,
            row_stride: k,
            p_stride: 1,
        }
    }
}

/// Packed-panel GEMM microkernel: `out[r, j] (+)= Σ_p A(row0+r, p) ·
/// panel[j, p]` over `rows x n` outputs, `out` row-major with stride `n`.
///
/// Each output element is one FMA chain over `p` in increasing order —
/// lane position, row grouping and column-tail handling never change an
/// element's arithmetic, which is what keeps every within-backend bitwise
/// contract intact (see module docs). With `accumulate`, chains start from
/// the existing `out` value (an exact f32 reload), so tiled accumulation
/// over a leading index is bitwise identical to one long chain.
///
/// # Panics
///
/// Panics if `bk == Backend::Scalar` (callers dispatch the scalar
/// reference in `kernels.rs` instead), or on slice-length mismatches.
#[allow(clippy::too_many_arguments)]
pub(crate) fn kernel(
    bk: Backend,
    a: AView<'_>,
    packed: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    if rows == 0 || n == 0 {
        return;
    }
    assert_eq!(out.len(), rows * n, "simd kernel output length mismatch");
    assert!(
        packed.len() >= n.div_ceil(NR) * k * NR,
        "simd kernel packed panel too small"
    );
    if k > 0 {
        let last = a.base + (rows - 1) * a.row_stride + (k - 1) * a.p_stride;
        assert!(last < a.data.len(), "simd kernel A view out of bounds");
    }
    match bk {
        Backend::Scalar => panic!("simd kernel called with scalar backend"),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` is only ever active()/forced when
        // `is_x86_feature_detected!` confirmed avx2+fma; bounds asserted
        // above.
        Backend::Avx2 => unsafe { avx2::gemm_packed(a, packed, out, rows, k, n, accumulate) },
        #[allow(unreachable_patterns)]
        other => panic!(
            "kernel backend {} not compiled on this target",
            other.name()
        ),
    }
}

// ------------------------------------------------- dispatched GEMM entry

/// Vector-backend GEMM `out (+)= a[m,k] * b[k,n]` with the same
/// row-parallel fan-out policy as the scalar [`kernels::gemm`]. Packs `b`
/// once into this thread's scratch; worker rows share the packed panels.
#[allow(clippy::too_many_arguments)]
fn gemm_vec(
    bk: Backend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    trans_b: bool,
    a_tn: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    with_scratch(|sc| {
        pack_b(b, k, n, trans_b, &mut sc.pack_a);
        let packed: &[f32] = &sc.pack_a;
        let aview = |row0: usize| {
            if a_tn {
                AView {
                    data: a,
                    base: row0,
                    row_stride: 1,
                    p_stride: m,
                }
            } else {
                AView::rows(a, row0 * k, k)
            }
        };
        pool::row_blocks(out, m, m * k * n, |row0, rows| {
            kernel(
                bk,
                aview(row0),
                packed,
                rows,
                rows.len() / n,
                k,
                n,
                accumulate,
            );
        });
    });
}

/// Explicit-backend `out (+)= a[m,k] x b[k,n]` — the differential test
/// suite's entry point; the dispatched [`kernels::gemm`] calls this with
/// [`active`]. Scalar delegates to the verbatim reference loops.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with(
    bk: Backend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm output length mismatch");
    match bk {
        Backend::Scalar => kernels::gemm_scalar(a, b, out, m, k, n, accumulate),
        bk => gemm_vec(bk, a, b, out, m, k, n, accumulate, false, false),
    }
}

/// Explicit-backend `out (+)= a[m,k] x b[n,k]^T`. See [`gemm_with`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_with(
    bk: Backend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm_nt lhs length mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_nt output length mismatch");
    match bk {
        Backend::Scalar => kernels::gemm_nt_scalar(a, b, out, m, k, n, accumulate),
        bk => gemm_vec(bk, a, b, out, m, k, n, accumulate, true, false),
    }
}

/// Explicit-backend `out = a[k,m]^T x b[k,n]`. See [`gemm_with`].
pub fn gemm_tn_with(
    bk: Backend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), k * m, "gemm_tn lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_tn output length mismatch");
    match bk {
        Backend::Scalar => kernels::gemm_tn_scalar(a, b, out, m, k, n),
        bk => gemm_vec(bk, a, b, out, m, k, n, false, false, true),
    }
}

// --------------------------------------------------------------- softmax

/// Explicit-backend in-place softmax of one row. The scalar backend is the
/// verbatim reference loop (max fold, `f32::exp` + sum pass, divide); the
/// vector backends are `softmax_row_scaled` at scale `1.0` (`x * 1.0` is
/// the bitwise identity). Deterministic per backend.
pub fn softmax_row_with(bk: Backend, row: &mut [f32]) {
    match bk {
        Backend::Scalar => crate::attention::softmax_row_scalar(row),
        bk => softmax_row_scaled(bk, row, 1.0),
    }
}

/// Vector-backend in-place softmax of `row * scale`: the numerators of
/// [`exp_row_scaled`], then one exact IEEE divide per element (the same
/// bits at any vector width, so it needs no per-backend code). Bitwise
/// identical to an elementwise scale pass followed by [`softmax_row_with`].
///
/// # Panics
///
/// Panics if `bk == Backend::Scalar`.
pub(crate) fn softmax_row_scaled(bk: Backend, row: &mut [f32], scale: f32) {
    let z = exp_row_scaled(bk, row, scale);
    for x in row.iter_mut() {
        *x /= z;
    }
}

/// Vector-backend softmax numerators of one scaled row, in place:
/// `row[i] = exp(row[i]·scale − max_j(row[j]·scale))`; returns their sum.
///
/// The scale multiply is folded into the max sweep and repeated in the exp
/// sweep (an exact IEEE multiply either way), the max is exact, `exp` is
/// the polynomial (Cephes coefficients, FMA evaluation, identical per
/// element between the vector body and the scalar-code tail) and the sum
/// is a fixed-tree lane sum plus in-order tail — per element exactly what
/// a separate scale pass followed by the row softmax computes.
///
/// # Panics
///
/// Panics if `bk == Backend::Scalar` (the scalar reference softmax is
/// [`softmax_row_with`]).
pub(crate) fn exp_row_scaled(bk: Backend, row: &mut [f32], scale: f32) -> f32 {
    match bk {
        Backend::Scalar => panic!("exp_row_scaled called with scalar backend"),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only active when detection confirmed avx2+fma.
        Backend::Avx2 => unsafe { avx2::exp_row_scaled(row, scale) },
        #[allow(unreachable_patterns)]
        other => panic!(
            "kernel backend {} not compiled on this target",
            other.name()
        ),
    }
}

// ------------------------------------- feature-major attention, query lanes

/// Query columns per block of the query-lane backward, and of the forward
/// on a host without AVX-512F: the lanes of one AVX2 register.
pub(crate) const QUERY_LANES: usize = 8;

/// Query columns per block of the forward where the host has AVX-512F: the
/// lanes of one `__m512`.
const WIDE_QUERY_LANES: usize = 16;

/// The feature-major attention forward's query-block width under `bk`, and
/// the instruction set that runs it: `(16, "avx512f")` where the AVX2
/// backend runs on a host with AVX-512F, `(8, "avx2")` on one without, and
/// `(1, "scalar")` for the scalar loop, which takes one query at a time.
/// Every width gives the same bits (see `fm_query_block`); there is no
/// knob — `mfaplace kernels` and `mfaplace profile` print it.
pub fn query_lanes(bk: Backend) -> (usize, &'static str) {
    match bk {
        Backend::Scalar => (1, "scalar"),
        Backend::Avx2 if has_avx512f() => (WIDE_QUERY_LANES, "avx512f"),
        Backend::Avx2 => (QUERY_LANES, "avx2"),
    }
}

/// One block of the feature-major attention forward with the queries in the
/// vector lanes: output columns `[y0, y0 + t)`, `t ≤ width`, of one batch
/// (`q`, `k`: `[n, l]`, `v`: `[nv, l]`), channel `c` written to
/// `out[c * o_stride..][..t]`. `scr` is `width * l` floats of scratch
/// (contents ignored). Per element the arithmetic is that of the composed
/// `bmm → scale → softmax → bmm` chain under `bk`, at either width — see
/// the kernel's docs (`simd/lanes.rs`) for the sweep-by-sweep argument.
///
/// # Panics
///
/// Panics unless `bk` is the AVX2 backend and `width` is
/// [`QUERY_LANES`] or, on a host with AVX-512F, sixteen; or on a shape the
/// kernel's contract excludes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fm_query_block(
    bk: Backend,
    width: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
    n: usize,
    nv: usize,
    l: usize,
    y0: usize,
    t: usize,
    scr: &mut [f32],
    out: &mut [f32],
    o_stride: usize,
) {
    assert!(n >= 1 && nv >= 1, "query-lane block needs channels");
    assert!(
        (1..=width).contains(&t) && y0 + t <= l,
        "query-lane block out of range"
    );
    assert!(
        q.len() == n * l && k.len() == n * l && v.len() == nv * l,
        "query-lane operand length mismatch"
    );
    assert!(scr.len() >= width * l, "query-lane scratch too small");
    assert!(
        out.len() >= (nv - 1) * o_stride + t,
        "query-lane output too small"
    );
    match (bk, width) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only active when detection confirmed avx2+fma;
        // the kernel's shape contract is asserted above.
        (Backend::Avx2, QUERY_LANES) => unsafe {
            lanes::fm_query_block_x8(q, k, v, scale, n, nv, l, y0, t, scr, out, o_stride)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: detection confirmed avx512f; shapes asserted above.
        (Backend::Avx2, WIDE_QUERY_LANES) if has_avx512f() => unsafe {
            lanes::fm_query_block_x16(q, k, v, scale, n, nv, l, y0, t, scr, out, o_stride)
        },
        (bk, width) => panic!(
            "kernel backend {} has no {width}-lane query block on this host",
            bk.name()
        ),
    }
}

/// One block of the feature-major attention backward with the queries in the
/// vector lanes: for queries `[y0, y0 + t)` of one batch (`q`, `k`, `dq`,
/// `dk`: `[n, l]`; `v`, `dy`, `dv`: `[nv, l]`), writes their columns of `dq`
/// and adds their terms to `dk` and `dv`. `scr` and `scr_g` are
/// `QUERY_LANES * l` floats of scratch each (contents ignored). Run over the
/// blocks in increasing `y0` from zeroed `dk` / `dv`, the result is the
/// four-pass tile backward's, bit for bit — see the kernel's docs for the
/// sweep-by-sweep argument.
///
/// # Panics
///
/// Panics if `bk == Backend::Scalar`, or on a shape the kernel's contract
/// excludes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fm_query_block_backward(
    bk: Backend,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    dy: &[f32],
    scale: f32,
    n: usize,
    nv: usize,
    l: usize,
    y0: usize,
    t: usize,
    scr: &mut [f32],
    scr_g: &mut [f32],
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    assert!(n >= 1 && nv >= 1, "query-lane block needs channels");
    assert!(
        (1..=QUERY_LANES).contains(&t) && y0 + t <= l,
        "query-lane block out of range"
    );
    assert!(
        [q.len(), k.len(), dq.len(), dk.len()] == [n * l; 4]
            && [v.len(), dy.len(), dv.len()] == [nv * l; 3],
        "query-lane operand length mismatch"
    );
    assert!(
        scr.len() >= QUERY_LANES * l && scr_g.len() >= QUERY_LANES * l,
        "query-lane scratch too small"
    );
    match bk {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only active when detection confirmed avx2+fma;
        // the kernel's shape contract is asserted above.
        Backend::Avx2 => unsafe {
            avx2::fm_query_block_backward(
                q, k, v, dy, scale, n, nv, l, y0, t, scr, scr_g, dq, dk, dv,
            )
        },
        other => panic!("kernel backend {} has no query-lane kernel", other.name()),
    }
}

// ------------------------------------------------------------ layer norm

/// Explicit-backend layer norm over rows of width `d`:
/// `out[r,k] = gamma[k] * (src[r,k] - mean_r) * inv_std_r + beta[k]`.
///
/// Optional `xhat` (`rows*d`) and `inv_std` (`rows`) outputs serve the
/// tape's backward pass; filling them never changes `out`. The scalar
/// backend is the verbatim reference loop (in-order sums, mul-then-add
/// affine); the vector backends use lane-parallel FMA reduction chains
/// for the mean/variance sums (fixed-tree lane combine plus in-order
/// scalar tail) and one FMA per element for the affine, with the
/// row-tail elements computed by `f32::mul_add` so every element of a row
/// sees identical arithmetic. Deterministic per backend; scalar-vs-vector
/// differences stay within the module-level tolerance contract.
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_rows_with(
    bk: Backend,
    src: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    d: usize,
    out: &mut [f32],
    xhat: Option<&mut [f32]>,
    inv_std: Option<&mut [f32]>,
) {
    assert!(d > 0, "layer norm row width must be positive");
    assert_eq!(src.len() % d, 0, "layer norm input not a multiple of d");
    assert_eq!(src.len(), out.len(), "layer norm output length mismatch");
    assert!(
        gamma.len() >= d && beta.len() >= d,
        "layer norm affine too short"
    );
    let rows = src.len() / d;
    if let Some(xh) = &xhat {
        assert_eq!(xh.len(), src.len(), "layer norm xhat length mismatch");
    }
    if let Some(is) = &inv_std {
        assert_eq!(is.len(), rows, "layer norm inv_std length mismatch");
    }
    match bk {
        Backend::Scalar => layer_norm_rows_scalar(src, gamma, beta, eps, d, out, xhat, inv_std),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only active when detection confirmed avx2+fma;
        // lengths asserted above.
        Backend::Avx2 => unsafe {
            avx2::layer_norm_rows(src, gamma, beta, eps, d, out, xhat, inv_std)
        },
        #[allow(unreachable_patterns)]
        other => panic!(
            "kernel backend {} not compiled on this target",
            other.name()
        ),
    }
}

/// Scalar reference layer norm — the exact per-element arithmetic the
/// tape recorded before vectorization (golden files pin this path).
#[allow(clippy::too_many_arguments)]
pub(crate) fn layer_norm_rows_scalar(
    src: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    d: usize,
    out: &mut [f32],
    mut xhat: Option<&mut [f32]>,
    mut inv_std: Option<&mut [f32]>,
) {
    let rows = src.len() / d;
    for r in 0..rows {
        let row = &src[r * d..(r + 1) * d];
        let mean: f32 = row.iter().sum::<f32>() / d as f32;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let is = 1.0 / (var + eps).sqrt();
        if let Some(buf) = inv_std.as_deref_mut() {
            buf[r] = is;
        }
        for k in 0..d {
            let xh = (row[k] - mean) * is;
            if let Some(buf) = xhat.as_deref_mut() {
                buf[r * d + k] = xh;
            }
            out[r * d + k] = gamma[k] * xh + beta[k];
        }
    }
}

// --------------------------------------------------------- conv epilogue

/// Explicit-backend fused conv epilogue over one contiguous run:
/// `dst = relu(scale*(src + bias) + shift)` with each stage optional.
/// Elementwise, so **bitwise identical across all backends** — the vector
/// form issues the same IEEE add/mul/add/max per element as the scalar
/// loop (`mul` + `add` for the affine stage, deliberately *not* FMA).
pub fn conv_epilogue_with(
    bk: Backend,
    src: &[f32],
    dst: &mut [f32],
    bias: Option<f32>,
    affine: Option<(f32, f32)>,
    relu: bool,
) {
    assert_eq!(src.len(), dst.len(), "conv epilogue length mismatch");
    match bk {
        Backend::Scalar => conv_epilogue_scalar(src, dst, bias, affine, relu),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only active when detection confirmed avx2+fma.
        Backend::Avx2 => unsafe { avx2::conv_epilogue(src, dst, bias, affine, relu) },
        #[allow(unreachable_patterns)]
        other => panic!(
            "kernel backend {} not compiled on this target",
            other.name()
        ),
    }
}

/// Scalar reference epilogue run — the exact per-element sequence of the
/// tape's `AddBiasChannel` → `ChannelAffine` → `Relu` nodes.
pub(crate) fn conv_epilogue_scalar(
    src: &[f32],
    dst: &mut [f32],
    bias: Option<f32>,
    affine: Option<(f32, f32)>,
    relu: bool,
) {
    for (o, &yv) in dst.iter_mut().zip(src) {
        let mut v = yv;
        if let Some(bv) = bias {
            v += bv;
        }
        if let Some((sc, sh)) = affine {
            v = sc * v + sh;
        }
        if relu {
            v = v.max(0.0);
        }
        *o = v;
    }
}

// ------------------------------------------------------------- int8 GEMM

/// Largest contraction length the exact int8 GEMM accepts: i32
/// accumulation of |q| ≤ 127 products cannot overflow while
/// `k ≤ i32::MAX / 127²` (≈ 133k — far above any captured conv/matmul).
pub const I8_GEMM_MAX_K: usize = (i32::MAX as usize) / (127 * 127);

/// Scalar reference int8 GEMM: `out[r, j] = Σ_p a[r,p] · b[p,j]` with i32
/// accumulation in increasing-`p` order. Integer sums are exact, so every
/// backend reproduces this result **bitwise** (unlike the f32 kernels,
/// which only promise the tolerance contract).
fn i8_gemm_scalar(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    for r in 0..m {
        let arow = &a[r * k..(r + 1) * k];
        let orow = &mut out[r * n..(r + 1) * n];
        orow.fill(0);
        for (p, &av) in arow.iter().enumerate() {
            let av = i32::from(av);
            let brow = &b[p * n..p * n + n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * i32::from(bv);
            }
        }
    }
}

/// Explicit-backend exact int8 GEMM `out[m,n] = a[m,k] × b[k,n]` with i32
/// accumulators — the quantized plan executor's conv/matmul core and the
/// differential suite's entry point. All backends are bitwise identical,
/// and large products split over output-row blocks like the f32 GEMM's:
/// rows are independent exact integer chains, so partitioning can never
/// change a bit.
pub fn i8_gemm_with(
    bk: Backend,
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "i8 gemm lhs length mismatch");
    assert_eq!(b.len(), k * n, "i8 gemm rhs length mismatch");
    assert_eq!(out.len(), m * n, "i8 gemm output length mismatch");
    assert!(
        k <= I8_GEMM_MAX_K,
        "i8 gemm contraction too long for exact i32"
    );
    if m == 0 || n == 0 {
        return;
    }
    pool::row_blocks(out, m, m * k * n, |r0, out| {
        let m = out.len() / n;
        let a = &a[r0 * k..(r0 + m) * k];
        match bk {
            Backend::Scalar => i8_gemm_scalar(a, b, out, m, k, n),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2` is only ever active()/forced when
            // `is_x86_feature_detected!` confirmed avx2; lengths asserted.
            Backend::Avx2 => unsafe { avx2::i8_gemm(a, b, out, m, k, n) },
            #[allow(unreachable_patterns)]
            other => panic!(
                "kernel backend {} not compiled on this target",
                other.name()
            ),
        }
    });
}

/// [`i8_gemm_with`] over the active backend.
pub fn i8_gemm(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    i8_gemm_with(active(), a, b, out, m, k, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip_and_auto() {
        assert_eq!(Backend::parse("auto").unwrap(), None);
        assert_eq!(Backend::parse("").unwrap(), None);
        assert_eq!(Backend::parse("Scalar").unwrap(), Some(Backend::Scalar));
        assert_eq!(Backend::parse("AVX2").unwrap(), Some(Backend::Avx2));
        assert!(Backend::parse("sse9").is_err());
        let e = Backend::parse("neon").unwrap_err();
        assert!(e.contains("expected auto|scalar|avx2)"), "{e}");
        for b in supported() {
            assert_eq!(Backend::parse(b.name()).unwrap(), Some(b));
            assert!(b.is_supported());
        }
    }

    #[test]
    fn detect_is_supported_and_listed() {
        let d = detect();
        assert!(d.is_supported());
        assert!(supported().contains(&d));
        assert_eq!(supported()[0], Backend::Scalar);
    }

    #[test]
    fn pack_b_pads_column_tails_with_zeros() {
        // k = 2, n = 3: one NR-wide panel, lanes 3.. zero.
        let b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut buf = Vec::new();
        pack_b(&b, 2, 3, false, &mut buf);
        assert_eq!(buf.len(), 2 * NR);
        assert_eq!(&buf[..3], &[1.0, 2.0, 3.0]);
        assert!(buf[3..NR].iter().all(|&x| x == 0.0));
        assert_eq!(&buf[NR..NR + 3], &[4.0, 5.0, 6.0]);
        // Transposed pack of the same data viewed as [n=2, k=3].
        pack_b(&b, 3, 2, true, &mut buf);
        assert_eq!(buf.len(), 3 * NR);
        assert_eq!(buf[0], 1.0); // b[0*k+0]
        assert_eq!(buf[1], 4.0); // b[1*k+0]
        assert_eq!(buf[NR], 2.0); // p=1 lane 0
    }

    /// The one-line definition of the packed layout:
    /// `panel[jb][p][lane] = b[p, jb*NR + lane]`, zero past `n`, where
    /// `b[p, j]` is `src[p*n + j]` or, transposed, `src[j*k + p]`.
    fn pack_reference(src: &[f32], k: usize, n: usize, trans: bool) -> Vec<f32> {
        let mut out = vec![0.0f32; n.div_ceil(NR) * k * NR];
        for j in 0..n {
            for p in 0..k {
                out[(j / NR * k + p) * NR + j % NR] = if trans {
                    src[j * k + p]
                } else {
                    src[p * n + j]
                };
            }
        }
        out
    }

    #[test]
    fn packs_match_the_reference_definition_bytewise() {
        use mfaplace_rt::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xB0_0C);
        // One buffer across every case, refilled with NaN (longer than any
        // packed result) before each pack: pad lanes must be rewritten, not
        // inherited. Shapes cover k around PACK_BLOCK, n % NR != 0 tails,
        // single rows/columns and empty dims.
        let mut buf = Vec::new();
        let dirty = |buf: &mut Vec<f32>| {
            buf.clear();
            buf.resize(1 << 15, f32::NAN);
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut shapes = vec![
            (1, 1),
            (3, 16),
            (PACK_BLOCK, 32),
            (PACK_BLOCK + 1, 5),
            (2 * PACK_BLOCK + 37, 33),
            (0, 4),
            (4, 0),
        ];
        for _ in 0..24 {
            shapes.push((rng.gen_range(1usize..300), rng.gen_range(1usize..70)));
        }
        for (k, n) in shapes {
            let src: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            for trans in [false, true] {
                dirty(&mut buf);
                pack_b(&src, k, n, trans, &mut buf);
                assert_eq!(
                    bits(&buf),
                    bits(&pack_reference(&src, k, n, trans)),
                    "pack_b k={k} n={n} trans={trans}"
                );
            }
        }
    }

    #[test]
    fn gemm_with_scalar_matches_reference_and_vector_within_tolerance() {
        let (m, k, n) = (5, 7, 19); // n crosses one NR panel
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 23) as f32 - 11.0) * 0.13)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 29 % 19) as f32 - 9.0) * 0.07)
            .collect();
        let mut reference = vec![0.0f32; m * n];
        gemm_with(Backend::Scalar, &a, &b, &mut reference, m, k, n, false);
        for bk in supported() {
            let mut out = vec![f32::NAN; m * n];
            gemm_with(bk, &a, &b, &mut out, m, k, n, false);
            let scale = reference.iter().fold(0.0f32, |acc, x| acc.max(x.abs()));
            for (x, y) in out.iter().zip(&reference) {
                assert!((x - y).abs() <= 1e-5 * scale.max(1.0), "{bk:?}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn empty_dims_are_noops() {
        for bk in supported() {
            let mut out = vec![0.0f32; 0];
            gemm_with(bk, &[], &[], &mut out, 0, 3, 0, false);
            let mut out1 = vec![7.0f32; 4];
            // k = 0: accumulate leaves out unchanged, overwrite zeroes it.
            gemm_with(bk, &[], &[], &mut out1, 2, 0, 2, true);
            assert_eq!(out1, vec![7.0; 4]);
            gemm_with(bk, &[], &[], &mut out1, 2, 0, 2, false);
            assert_eq!(out1, vec![0.0; 4]);
        }
    }
}
