//! # hyperminhash
//!
//! A full reproduction of *HyperMinHash: MinHash in LogLog space*
//! (Yu & Weber, ICDE 2023): streaming probabilistic sketches for Jaccard
//! index, union cardinality and intersection cardinality in
//! `O(ε⁻²(log log n + log 1/(tε)))` space, together with every substrate
//! and baseline the paper relies on.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`sketch`] ([`hmh_core`]) — the HyperMinHash sketch itself.
//! * [`hll`] ([`hmh_hll`]) — HyperLogLog with FFGM07, Ertl-improved, MLE and
//!   joint-MLE estimators (the §1.3 baselines and the Algorithm 3 head).
//! * [`minhash`] ([`hmh_minhash`]) — classic MinHash variants and b-bit
//!   fingerprints (the §1.1/§1.3 baselines).
//! * [`hashing`] ([`hmh_hash`]) — the seeded random-oracle substrate.
//! * [`math`] ([`hmh_math`]) — numerics: log-space probability kernels,
//!   extended-precision arithmetic, statistics, distributions.
//! * [`simulate`] ([`hmh_simulate`]) — order-statistics sketch simulation
//!   for cardinalities far beyond what can be inserted (the 10^19 claims).
//! * [`cnf`] ([`hmh_cnf`]) — Boolean CNF queries over sketch catalogs.
//! * [`workloads`] ([`hmh_workloads`]) — generators and exact ground truth.
//! * [`store`] ([`hmh_store`]) — crash-safe sketch persistence with
//!   salvage recovery and deterministic fault injection.
//!
//! ## Quickstart
//!
//! ```
//! use hyperminhash::prelude::*;
//!
//! let params = HmhParams::new(12, 6, 10).unwrap();
//! let mut a = HyperMinHash::new(params);
//! let mut b = HyperMinHash::new(params);
//! for i in 0..30_000u64 {
//!     a.insert(&i);
//! }
//! for i in 15_000..45_000u64 {
//!     b.insert(&i);
//! }
//! let j = a.jaccard(&b).unwrap().estimate;
//! assert!((j - 1.0 / 3.0).abs() < 0.05, "jaccard ≈ 1/3, got {j}");
//!
//! let u = a.union(&b).unwrap();
//! let card = u.cardinality();
//! assert!((card / 45_000.0 - 1.0).abs() < 0.05, "union ≈ 45k, got {card}");
//! ```

#![deny(missing_docs)]

pub use hmh_cnf as cnf;
pub use hmh_core as sketch;
pub use hmh_hash as hashing;
pub use hmh_hll as hll;
pub use hmh_ingest as ingest;
pub use hmh_math as math;
pub use hmh_minhash as minhash;
pub use hmh_simulate as simulate;
pub use hmh_store as store;
pub use hmh_workloads as workloads;

/// Convenience re-exports of the most common types.
pub mod prelude {
    pub use hmh_core::{HmhParams, HyperMinHash, JaccardEstimate};
    pub use hmh_hash::{HashAlgorithm, RandomOracle};
    pub use hmh_hll::HyperLogLog;
    pub use hmh_minhash::{BBitMinHash, BottomK, KHashMinHash, KPartitionMinHash};
}
