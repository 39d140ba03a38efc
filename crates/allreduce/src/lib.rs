//! # p3-allreduce — P3's principles on collective aggregation
//!
//! The paper closes §2 with a claim it never evaluates: *"we believe, P3
//! design principles (namely, parameter slicing and priority-based
//! propagation) are general enough to be applied to any gradient
//! aggregation methods."* The cluster engine tests that claim with its
//! ring and halving–doubling backends (`p3 simulate --backend
//! ring|halving-doubling`). This crate supplies the data they replay: a
//! [`CollectiveSchedule`] says which machine sends how many bytes to which
//! machine in each step of one allreduce, and [`DEFAULT_COLLECTIVE_SLICE`]
//! is the slice size collectives are run at.
//!
//! # Examples
//!
//! ```
//! use p3_allreduce::{CollectiveSchedule, ScheduleKind, DEFAULT_COLLECTIVE_SLICE};
//!
//! // One 2M-parameter (8 MB) slice through a 4-machine ring: each NIC
//! // carries 2·S·(N−1)/N bytes, the bandwidth-optimal volume.
//! let bytes = DEFAULT_COLLECTIVE_SLICE * 4;
//! let ring = CollectiveSchedule::new(ScheduleKind::Ring, 4).unwrap();
//! assert_eq!(ring.busiest_link_bytes(bytes), 2 * bytes * 3 / 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod schedule;

pub use schedule::{CollectiveSchedule, ScheduleKind, Transfer, DEFAULT_COLLECTIVE_SLICE};
