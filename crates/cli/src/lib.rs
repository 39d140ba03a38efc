//! # p3-cli — command-line interface to the P3 reproduction
//!
//! The `p3` binary wraps the workspace in a handful of commands:
//!
//! ```text
//! p3 models                                   # the model zoo and its stats
//! p3 plan      --model vgg19 --strategy p3    # shard-plan statistics
//! p3 simulate  --model vgg19 --strategy p3 --machines 4 --gbps 15
//! p3 sweep     --model resnet50 --gbps 1,2,4,8
//! p3 simulate  --model vgg19 --backend ring --strategy p3 --slice-params 2000000
//! p3 train     --mode dgc --epochs 20
//! p3 figures   --quick                        # the paper's figures + claims
//! p3 help
//! ```
//!
//! Command implementations live here (library) so they are unit-testable;
//! `main.rs` only parses `std::env::args` and prints.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod args;
mod commands;
mod perf;

pub use args::{ArgError, Args};
pub use commands::{dispatch, CliError};
