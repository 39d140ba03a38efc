//! # p3-models — DNN model zoo and compute-time model
//!
//! Layer-accurate structural descriptions of every model the P3 paper
//! evaluates — ResNet-50, InceptionV3, VGG-19, Sockeye, ResNet-110 (plus
//! AlexNet) — at two granularities: **compute blocks** (the ops the
//! framework executes) and **parameter arrays** (the key-value units the
//! parameter server stores, one point per array in the paper's Figure 5).
//!
//! [`ModelSpec::block_times`] turns a model into per-block forward /
//! backward durations, calibrated to the paper's testbed throughput but
//! with the time *distribution* derived from per-block FLOPs.
//!
//! # Examples
//!
//! ```
//! use p3_models::ModelSpec;
//!
//! let vgg = ModelSpec::vgg19();
//! // Figure 5(b): one dense array holds 71.5% of VGG-19's parameters.
//! let heaviest = vgg.heaviest_array().unwrap();
//! assert!(heaviest.params as f64 / vgg.total_params() as f64 > 0.7);
//!
//! // Sockeye is the opposite: its heaviest array is the *first* block.
//! let sockeye = ModelSpec::sockeye();
//! assert_eq!(sockeye.heaviest_block_index(), Some(0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod compute;
mod layer;
mod zoo;

pub use builder::ConvStack;
pub use compute::BlockTiming;
pub use layer::{BlockKind, ComputeBlock, ModelSpec, ParamArray, SampleUnit, BYTES_PER_PARAM};
