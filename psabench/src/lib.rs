//! End-to-end and per-layer benchmark of the PSA pipeline.
//!
//! Three closed-loop workloads — `detect`, `monitor` and `localize` —
//! drive the workspace crates through their public entry points on a
//! `psa_runtime::Engine`. The untraced run reports end-to-end metrics;
//! the traced run replays sampled ops layer by layer
//! ([`replay`]) and reports per-layer metrics. See `README.md`.

// Timing is this crate's purpose: the workspace's ban on reading the
// clock keeps library code replayable, and the benchmark sits outside
// that library code.
#![allow(clippy::disallowed_methods)]

pub mod detect;
pub mod load;
pub mod localize;
pub mod metrics;
pub mod monitor;
pub mod replay;
pub mod report;
pub mod stats;
pub mod workload;
