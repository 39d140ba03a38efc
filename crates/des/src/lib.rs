//! # p3-des — deterministic discrete-event simulation kernel
//!
//! The foundation of the P3 reproduction: integer-nanosecond simulated time
//! ([`SimTime`], [`SimDuration`]), the workspace's one deterministic ordered
//! queue ([`OrderedQueue`]: least key first, FIFO among equal keys), the
//! event calendar ([`EventQueue`]: FIFO runs of rising schedules merged
//! with an [`OrderedQueue`] spill, popping in time then schedule order), a
//! seedable generator for workload jitter ([`SplitMix64`]), streaming
//! statistics ([`Summary`]) used by the experiment harnesses, and the
//! snapshot codec ([`snap`]) the engine and the network fabric both walk
//! their state through.
//!
//! Determinism is a design requirement, not an accident: every experiment in
//! the paper reproduction is a pure function of its configuration and seed,
//! so results in `EXPERIMENTS.md` can be regenerated bit-for-bit.
//!
//! # Examples
//!
//! A two-event simulation:
//!
//! ```
//! use p3_des::{EventQueue, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { ComputeDone, TransferDone }
//!
//! let mut q = EventQueue::new();
//! q.schedule_in(SimDuration::from_millis(3), Ev::ComputeDone);
//! q.schedule_in(SimDuration::from_millis(5), Ev::TransferDone);
//!
//! let mut log = Vec::new();
//! while let Some((t, ev)) = q.pop() {
//!     log.push((t.as_secs_f64(), ev));
//! }
//! assert_eq!(log[0].1, Ev::ComputeDone);
//! assert_eq!(log[1].0, 0.005);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::indexing_slicing)]

mod queue;
mod rng;
pub mod snap;
mod stats;
mod time;

pub use queue::{EventQueue, OrderedQueue};
pub use rng::SplitMix64;
pub use stats::{quantile, Histogram, Summary};
pub use time::{SimDuration, SimTime};
