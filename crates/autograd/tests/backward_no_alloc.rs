//! The backward allocation contract: once a training loop is warm, the
//! tape's backward takes every gradient and every scratch buffer from the
//! graph's buffer pool, so `backward_seeded` asks the allocator for no
//! `f32` buffer at all. Only `Tensor` shape vectors (a few `usize`s) may
//! still be allocated.
//!
//! Every non-scalar tensor on the tape below has at least 32 elements, so
//! any `f32` buffer is a request of more than 64 bytes, while a rank-4
//! shape vector is 32. Requests are counted by a wrapping
//! `#[global_allocator]`, on the test thread only and only while the
//! second cycle's backward runs. Kernels are pinned to one pool thread:
//! fanning out spawns threads, which is the pool's cost, not the tape's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mfaplace_autograd::{Graph, Var};
use mfaplace_rt::pool;
use mfaplace_tensor::Tensor;

/// The largest request this contract lets backward make: a shape vector.
const SHAPE_BYTES: usize = 64;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static LARGE: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn record(size: usize) {
        if COUNTING.get() {
            LARGEST.set(LARGEST.get().max(size));
            if size > SHAPE_BYTES {
                LARGE.set(LARGE.get() + 1);
            }
        }
    }
}

// SAFETY: defers every request to `System` unchanged; the bookkeeping
// touches only const-initialized, destructor-free thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(requests over SHAPE_BYTES, largest request in bytes)` that `f` makes
/// on this thread.
fn requests_in(f: impl FnOnce()) -> (usize, usize) {
    LARGE.set(0);
    LARGEST.set(0);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    (LARGE.get(), LARGEST.get())
}

fn tensor(shape: &[usize], seed: usize) -> Tensor {
    Tensor::from_fn(shape.to_vec(), |i| {
        (((i * 2_654_435_761 + seed * 97) % 1000) as f32 / 499.5 - 1.0) * 0.5
    })
}

struct Params {
    w1: Var,
    bias_c: Var,
    gamma: Var,
    beta: Var,
    ln_gamma: Var,
    ln_beta: Var,
    bias_r: Var,
    w_mm: Var,
    w_bmm: Var,
    alpha: Var,
}

/// One training forward touching every backward kernel family: conv (the
/// `dy` reorder and col2im), channel / row bias sums, batch and layer norm,
/// ReLU, leaky ReLU, sigmoid, GELU, channel affine, max-pool and upsample,
/// add / sub / mul / neg / scale, slice and concat, permute and reshape,
/// the 2-D and batched products, softmax, both attentions, the scalar-var
/// product, and the four losses and reductions.
fn forward(g: &mut Graph, p: &Params, x: &Tensor, target: &Tensor, labels: &[u8]) -> Var {
    let x = g.constant(x.clone()); // [2, 40, 6, 6]
    let c1 = g.conv2d(x, p.w1, 1, 1); // [2, 36, 6, 6]
    let b1 = g.add_bias_channel(c1, p.bias_c);
    let (n1, _, _) = g.batch_norm2d(b1, p.gamma, p.beta, 1e-5);
    let r1 = g.relu(n1);
    let a1 = g.channel_affine(r1, vec![0.9; 36], vec![0.05; 36]);
    let l1 = g.leaky_relu(a1, 0.1);
    let p1 = g.maxpool2x2(l1); // [2, 36, 3, 3]
    let u1 = g.upsample2x(p1); // [2, 36, 6, 6]
    let s1 = g.add(u1, l1);
    let d1 = g.sub(s1, r1);
    let m1 = g.mul(d1, s1);
    let ng = g.neg(m1);
    let sc = g.scale(ng, 0.5);
    let sl = g.slice_channels(sc, 4, 16); // [2, 12, 6, 6]
    let cat = g.concat_channels(&[sl, sc]); // [2, 48, 6, 6]
    let sig = g.sigmoid(cat);
    let pm = g.permute(sig, &[0, 2, 3, 1]); // [2, 6, 6, 48]
    let tokens = g.reshape(pm, vec![2, 36, 48]);
    let ln = g.layer_norm(tokens, p.ln_gamma, p.ln_beta, 1e-5);
    let rb = g.add_bias_row(ln, p.bias_r);
    let ge = g.gelu(rb);
    let flat = g.reshape(ge, vec![72, 48]);
    let mm = g.matmul(flat, p.w_mm); // [72, 40]
    let h = g.reshape(mm, vec![2, 36, 40]);
    let hb = g.bmm(h, p.w_bmm); // [2, 36, 40]
    let scores = g.bmm_nt(hb, h); // [2, 36, 36]
    let probs = g.softmax_last(scores);
    let gram = g.bmm_tn(hb, h); // [2, 40, 40]
    let att = g.attention(hb, h, hb, 0.3); // [2, 36, 40]
    let fm = g.permute(att, &[0, 2, 1]); // [2, 40, 36]
    let pam = g.attention_fm(fm, fm, fm, 1.0);
    let gated = g.mul_scalar_var(pam, p.alpha);
    let logits = g.reshape(gated, vec![2, 40, 6, 6]);
    let ce = g.cross_entropy2d(logits, labels, None);
    let mse = g.mse_loss(att, target);
    let mean = g.mean(probs);
    let sum = g.sum(gram);
    let l = g.add(ce, mse);
    let l = g.add(l, mean);
    g.add(l, sum)
}

#[test]
fn warm_backward_takes_no_f32_buffer_from_the_allocator() {
    let mut g = Graph::new();
    let p = Params {
        w1: g.param(tensor(&[36, 40, 3, 3], 1)),
        bias_c: g.param(tensor(&[36], 2)),
        gamma: g.param(tensor(&[36], 3)),
        beta: g.param(tensor(&[36], 4)),
        ln_gamma: g.param(tensor(&[48], 5)),
        ln_beta: g.param(tensor(&[48], 6)),
        bias_r: g.param(tensor(&[48], 7)),
        w_mm: g.param(tensor(&[48, 40], 8)),
        w_bmm: g.param(tensor(&[2, 40, 40], 9)),
        alpha: g.param(Tensor::from_vec(vec![1], vec![0.7]).expect("scalar")),
    };
    let x = tensor(&[2, 40, 6, 6], 10);
    let target = tensor(&[2, 36, 40], 11);
    let labels: Vec<u8> = (0..2 * 36).map(|i| (i * 7 % 40) as u8).collect();
    let mark = g.mark();
    pool::with_threads(1, || {
        let cycle = |g: &mut Graph| {
            let loss = forward(g, &p, &x, &target, &labels);
            g.zero_grads();
            let requests = requests_in(|| g.backward_seeded(loss, 0.5));
            let grad = g.grad(p.w1).expect("conv weight grad").clone();
            g.truncate(mark);
            (requests, grad)
        };
        let (_, warm) = cycle(&mut g);
        let ((large, largest), grad) = cycle(&mut g);
        assert_eq!(grad, warm, "the second cycle's gradient drifted");
        assert_eq!(
            large, 0,
            "warm backward made {large} requests over {SHAPE_BYTES} bytes (largest {largest})"
        );
    });
}
