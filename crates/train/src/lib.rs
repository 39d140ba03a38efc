//! # p3-train — real data-parallel training
//!
//! The accuracy half of the reproduction (Figures 11 and 15): actual
//! multi-worker training of MLP classifiers over the real
//! [`KvServer`](p3_pserver::KvServer). [`train`] is the one training loop,
//! and the [`SyncMode`] it is given is the only variable —
//!
//! * [`SyncMode::FullSync`] — synchronous SGD on full gradients; P3's
//!   convergence is *identical* to this by construction (it never alters
//!   values, only transmission order);
//! * [`SyncMode::Dgc`] and friends — the lossy compression baselines from
//!   `p3-compress`;
//! * [`SyncMode::Async`] — barrier-free ASGD: a server that updates on
//!   every push, fed each gradient `staleness` worker steps late.
//!
//! Every run is deterministic given its seed, so independent runs can
//! share a thread pool without changing any result.
//!
//! # Examples
//!
//! ```
//! use p3_tensor::gaussian_blobs;
//! use p3_train::{train, SyncMode, TrainConfig};
//!
//! let data = gaussian_blobs(4, 8, 400, 100, 0.9, 7);
//! let mut cfg = TrainConfig::new(4);
//! cfg.hidden = vec![24];
//! let full = train(&data, &cfg, SyncMode::FullSync);
//! let dgc = train(&data, &cfg,
//!     SyncMode::Dgc { final_sparsity: 0.999, warmup_epochs: 2 });
//! // P3 transmits full gradients: it cannot do worse than DGC by more
//! // than noise (and in the paper is consistently better).
//! assert!(full.final_accuracy + 0.05 >= dgc.final_accuracy);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod parallel;
mod train;

pub use config::{EpochRecord, LrDecay, SyncMode, TrainConfig, TrainRun};
pub use parallel::accuracy_band;
pub use train::train;
