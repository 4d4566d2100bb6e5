//! End-to-end and per-layer benchmark for the BayesLSH workspace.
//!
//! One process runs one workload ([`workload::Spec`]) for a fixed
//! measuring time, checks every answer against exact ground truth or
//! against the program's own bit-identity contracts, and prints one JSON
//! result line ([`report::result_line`]). With tracing on, every operation
//! is also replayed layer by layer through the layers' public functions
//! ([`replay`]) with a span around each call ([`trace`]), which yields the
//! per-layer metrics.

pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
