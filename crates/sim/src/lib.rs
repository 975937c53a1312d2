//! # realloc-sim
//!
//! Simulation harness for the reallocation-scheduling experiments:
//! [`runner`] drives any [`realloc_core::Reallocator`] over a request
//! sequence with per-request cost metering and optional per-step
//! feasibility validation; [`stats`] summarizes cost distributions;
//! [`report`] prints the fixed-width tables the experiments produce.
//!
//! One binary per experiment lives in `src/bin/` (`exp_*`); each prints
//! the tables of one experiment, and its module header names the
//! theorem, lemma or figure it measures (`E2 + E3` in `exp_theorem1`,
//! and so on) — that header is the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;
pub mod runner;
pub mod stats;

pub use runner::{run, RunOptions, RunReport};
pub use stats::Summary;
