//! # p3-compress — gradient compression baselines
//!
//! The lossy-compression techniques the paper positions P3 against (§5.6,
//! §6): [`Dgc`] (Deep Gradient Compression, the main comparison of
//! Figure 11), [`Qsgd`], [`TernGrad`], [`OneBitSgd`] and [`GradDrop`].
//! All are implemented from their original papers with residual / error
//! feedback where prescribed, and are exercised by `p3-train`'s real
//! data-parallel runs.
//!
//! P3 itself never appears here — its whole point is that it transmits
//! **full** gradients and therefore cannot affect convergence; these
//! baselines quantify the accuracy cost of the alternative.
//!
//! # Examples
//!
//! ```
//! use p3_compress::Dgc;
//!
//! let mut dgc = Dgc::new(10_000, 0.9, 0.999, 4);
//! dgc.set_epoch(99); // past warm-up
//! let grad = vec![0.001f32; 10_000];
//! let sparse = dgc.step(&grad);
//! // 99.9% sparsity: 10 of 10,000 coordinates transmitted.
//! assert_eq!(sparse.nnz(), 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dgc;
mod dropping;
mod quant;
mod sparse;

pub use dgc::Dgc;
pub use dropping::GradDrop;
pub use quant::{OneBitSgd, Qsgd, TernGrad};
pub use sparse::SparseGrad;
