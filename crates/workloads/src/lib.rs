//! # realloc-workloads
//!
//! Request-sequence generators for the reallocation-scheduling experiments:
//!
//! * [`churn`] — random insert/delete churn with **certified
//!   underallocation**: a laminar budget over aligned windows enforces the
//!   Lemma 2 density bound `count(W) ≤ m·|W|/γ` for every aligned window at
//!   all times, so generated sequences are `γ`-dense by construction;
//! * [`adversary`] — the paper's lower-bound constructions: the Lemma 11
//!   migration adversary (`Ω(s)` migrations for any scheduler), the
//!   Lemma 12 toggle (`Ω(s²)` reallocations without slack), and the
//!   Observation 13 sized-job slide (`Ω(kn)` with job sizes `{1, k}`);
//! * [`scenarios`] — themed presets: the doctor's office from the paper's
//!   introduction, and a cloud batch cluster;
//! * [`feed`] — scenario → engine-request adapters: flush-sized batches
//!   and multi-tenant interleaving for `realloc-engine` ingestion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod churn;
pub mod feed;
pub mod scenarios;

pub use adversary::{lemma12_toggle, obs13_slide, Lemma11Adversary, SizedRequest};
pub use churn::{ChurnConfig, ChurnGenerator};
pub use feed::TenantFeed;
pub use scenarios::{hotspot, HOTSPOT_WHALE};
