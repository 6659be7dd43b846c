//! Expected accidental collisions between HyperMinHash sketches of
//! *disjoint* sets — the quantity Lemma 4 computes, Algorithm 5 evaluates,
//! Algorithm 6 approximates and Theorems 1–2 bound.
//!
//! All formulas below use this crate's packed-register semantics: the
//! counter saturates at `cap = 2^q − 1` (see the crate docs), so every
//! occurrence of the paper's `2^q` is replaced by `cap`. The derivations
//! otherwise follow the paper line by line; the tests cross-check the three
//! implementations against each other and against brute-force simulation.

pub mod approx;
pub mod bounds;
pub mod exact;

pub use approx::{approx_expected_collisions, approx_expected_collisions_of, CollisionProfile};
pub use bounds::{theorem1_bound, theorem2_variance_bound};
pub use exact::{expected_collisions, expected_collisions_bigfloat};
