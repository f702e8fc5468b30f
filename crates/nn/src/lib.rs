//! Neural-network building blocks on top of [`mfaplace_autograd`].
//!
//! Provides the layers needed by the congestion-prediction models of the
//! paper (convolution, batch/layer normalization, linear projections,
//! multi-head self-attention, transformer encoder blocks), plus optimizers
//! (Adam, SGD) and loss helpers.
//!
//! Layers implement [`Module`]: they own their parameter `Var`s inside a
//! shared `Graph` and build the forward computation on demand.
//!
//! # Example: one training step of a tiny conv net
//!
//! ```
//! use mfaplace_autograd::Graph;
//! use mfaplace_nn::{Conv2d, Module, Adam};
//! use mfaplace_tensor::Tensor;
//! use mfaplace_rt::rng::{SeedableRng, StdRng};
//!
//! let mut g = Graph::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut conv = Conv2d::new(&mut g, 3, 8, 3, 1, 1, true, &mut rng);
//! let mut opt = Adam::new(1e-3);
//! let mark = g.mark();
//!
//! let x = g.constant(Tensor::randn(vec![2, 3, 8, 8], 1.0, &mut rng));
//! let y = conv.forward(&mut g, x, true);
//! let target = Tensor::zeros(vec![2, 8, 8, 8]);
//! let loss = g.mse_loss(y, &target);
//! g.zero_grads();
//! g.backward(loss);
//! opt.step(&mut g, &conv.params());
//! g.truncate(mark);
//! ```

mod attention;
pub mod checkpoint;
mod conv;
mod dropout;
mod linear;
mod loss;
mod module;
mod norm;
mod optim;
mod schedule;
mod transformer;

pub use attention::MultiHeadSelfAttention;
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use linear::Linear;
pub use loss::{class_weights_from_labels, one_hot_levels};
pub use module::Module;
pub use norm::{BatchNorm2d, LayerNorm};
pub use optim::{Adam, Sgd};
pub use schedule::{ConstantLr, CosineLr, LrSchedule, StepDecay};
pub use transformer::{Mlp, TransformerBlock};
