//! # scd-bench — experiment harness for every table and figure
//!
//! One module per group of paper artifacts; each experiment is exposed
//! both as a library function (used by the tests and Criterion benches)
//! and as a runnable binary (`cargo run -p scd-bench --release --bin
//! <experiment>`). See `DESIGN.md` §3 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.

#![warn(missing_docs)]

pub mod extensions;
pub mod inference_experiments;
pub mod l2_study;
pub mod serving_experiments;
pub mod spec_tables;
pub mod timeline;
pub mod training_experiments;
pub mod validation;
