//! Seeded end-to-end and per-layer benchmark of the sketch service.
//!
//! One run starts live daemons (and, for the cluster workload, a router
//! over a replicated ring) in this process, preloads them, drives a timed
//! closed-loop phase over the real wire protocol from two connections,
//! converges the replicas with the anti-entropy calls, and then checks
//! every answer against a mirror replayed from `hmh-core` alone. An
//! untraced run reports the end-to-end metrics; a traced run reports
//! per-layer metrics from spans around every call the benchmark makes
//! into `hmh-serve`, `hmh-route`, `hmh-replica`, `hmh-store` and
//! `hmh-core`. See `README.md` beside this crate for the workloads and
//! what each metric should move.

#![forbid(unsafe_code)]

pub mod deploy;
pub mod gen;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

pub use run::{run, Config, Metric, Outcome};
