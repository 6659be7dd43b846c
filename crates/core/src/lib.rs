//! # hmh-core — the HyperMinHash sketch
//!
//! Implements the primary contribution of *HyperMinHash: MinHash in LogLog
//! space* (Yu & Weber, ICDE 2023): a streaming probabilistic sketch that
//! estimates Jaccard index, union cardinality and intersection cardinality
//! in `O(ε⁻²(log log n + log 1/(tε)))` space.
//!
//! HyperMinHash is k-partition MinHash with adaptive-precision registers:
//! each of the `2^p` buckets stores, for the minimum hash in the bucket, a
//! `q`-bit LogLog counter (the position of the leading 1 bit, saturated)
//! and the `r` bits that follow it. Equal registers then mean "same
//! minimum" up to an accidental-collision probability of roughly `2^-r`,
//! which Lemma 4 / Theorem 1 quantify exactly and [`collisions`] corrects
//! for.
//!
//! Module map (pseudocode → code):
//!
//! | Paper | Module |
//! |---|---|
//! | Definition 1 / Algorithm 1 (sketch) | [`params`], [`registers`], [`sketch`] |
//! | Algorithm 2 (union) | [`sketch::HyperMinHash::union`] |
//! | Algorithm 3 (cardinality) | [`cardinality`] |
//! | Algorithm 4 (Jaccard) | [`jaccard`] |
//! | Lemma 4 / Algorithm 5 (exact collisions) | [`collisions::exact`] |
//! | Algorithm 6 (approx collisions) | [`collisions::approx`] |
//! | Theorems 1–2 (bounds) | [`collisions::bounds`] |
//! | Intersection / k-way queries | [`intersect`] |
//!
//! ## Register-cap convention
//!
//! The paper's idealized counter stores `min(ρ, 2^q)` — `2^q + 1` states
//! plus "empty", one more than `q` bits hold. Like the practical
//! implementations the paper's appendix points to, we saturate at
//! `cap = 2^q − 1` so counter-plus-empty exactly fills `q` bits and the
//! whole register packs into a `q + r`-bit word (Appendix A.1,
//! optimization 1). Every formula in [`collisions`] is derived for this
//! packed semantics (replace `2^q` by `cap` in Lemma 4); the difference is
//! one extra halving step at the precision floor, i.e. a factor-≤2 change
//! in the *subdominant* `n/2^{p+2^q+r}` term of Theorem 1.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cardinality;
pub mod collisions;
pub mod error;
pub mod format;
pub mod intersect;
pub mod jaccard;
pub mod params;
#[cfg(test)]
mod reference;
pub mod registers;
pub mod sketch;

pub use cardinality::CardinalityEstimator;
pub use error::HmhError;
pub use intersect::IntersectionEstimate;
pub use jaccard::{CollisionCorrection, JaccardEstimate};
pub use params::HmhParams;
pub use sketch::HyperMinHash;
