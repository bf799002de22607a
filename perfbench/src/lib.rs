//! The UCAM repository benchmark: workload loops, the outside-in span
//! tracer, and the metric report. `main.rs` is the command line; the
//! tests in `tests/` check that every count-type metric repeats exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;
pub mod report;
pub mod rig;
pub mod trace;
pub mod workloads;
