//! End-to-end and per-layer benchmark of the SCD serving simulator and
//! the paper's analytic artifacts.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! repeats passes of one workload for `s` seconds, checks every pass's
//! output, and prints as its last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`, which also writes a Chrome Trace Event span file).
//! Every metric is timed from outside, around calls into the public API
//! of the layer it names, and every time is reported in reference-host
//! seconds (see [`calibrate`]).

pub mod calibrate;
pub mod check;
pub mod host;
pub mod run;
pub mod spans;
pub mod workloads;
