//! # p3-tensor — dense tensor-lite with exact backpropagation
//!
//! The real-math substrate for the paper's accuracy experiments (Figures 11
//! and 15): a minimal row-major [`Matrix`], an [`Mlp`] classifier with
//! exact gradients (finite-difference-checked in the test suite), and
//! deterministic synthetic datasets ([`gaussian_blobs`], [`spirals`]) that
//! substitute for CIFAR-10 at laptop scale (DESIGN.md §2).
//!
//! Everything is seeded and deterministic, so the accuracy curves in
//! `EXPERIMENTS.md` regenerate exactly.
//!
//! # Examples
//!
//! ```
//! use p3_des::SplitMix64;
//! use p3_tensor::{gaussian_blobs, Mlp};
//!
//! let data = gaussian_blobs(3, 6, 300, 60, 0.7, 1);
//! let mut rng = SplitMix64::new(2);
//! let mut mlp = Mlp::new(&[6, 16, 3], &mut rng);
//! for _ in 0..50 {
//!     let (_, grads) = mlp.loss_and_grads(&data.train_x, &data.train_y);
//!     mlp.apply_sgd(&grads, 0.5);
//! }
//! assert!(mlp.accuracy(&data.val_x, &data.val_y) > 0.8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod data;
mod matrix;
mod mlp;

pub use data::{gather, gaussian_blobs, spirals, BatchSchedule, Dataset};
pub use matrix::Matrix;
pub use mlp::{DenseGrad, Mlp};
