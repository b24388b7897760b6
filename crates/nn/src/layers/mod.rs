//! Network layers with explicit forward and backward passes.
//!
//! Every layer follows the same pattern: `forward(&self, input)` returns
//! the output (the caller keeps the input as the backward cache), and
//! `backward(&self, input, grad_output)` returns the gradient with
//! respect to the input plus, for parameterised layers, the gradients of
//! the parameters in the same flat order as their `params()` method.

mod activation;
pub(crate) mod conv;
mod linear;
mod pool;

pub use activation::Relu;
pub use conv::Conv2d;
pub use linear::Linear;
pub use pool::GlobalAvgPool;
