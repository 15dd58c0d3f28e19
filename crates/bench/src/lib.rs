//! # icash-bench — the harness that regenerates the paper's evaluation
//!
//! `run_all` regenerates every figure and table for EXPERIMENTS.md
//! (`--only fig13` … picks exhibits); the campaign and ablation binaries
//! sit beside it. This library holds the shared machinery: the exhibit
//! table, building the five storage systems the paper compares (§4.4),
//! and replaying one recorded trace against each.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod exhibits;
pub mod harness;
pub mod scale;

pub use harness::{ExperimentConfig, SystemKind};
