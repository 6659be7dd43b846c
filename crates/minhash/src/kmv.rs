//! The k-minimum-values (KMV / bottom-k) sketch.
//!
//! §1.1 item 2 and Bar-Yossef et al. \[3\]: one hash function, keep the `k`
//! smallest distinct values. `O(n log k)` generation; the `k`-th order
//! statistic gives an unbiased cardinality estimate, and the overlap of two
//! sketches' bottom-k within the union's bottom-k gives the Jaccard index.
//! Algorithm 3's large-cardinality tail is the same order-statistics idea
//! applied to HyperMinHash's packed registers.

use crate::common::MinHashError;
use hmh_hash::{HashableItem, RandomOracle};

/// A bottom-k sketch: the `k` smallest distinct 64-bit hash values.
///
/// ```
/// use hmh_minhash::BottomK;
/// use hmh_hash::RandomOracle;
///
/// let mut a = BottomK::new(512, RandomOracle::default());
/// let mut b = BottomK::new(512, RandomOracle::default());
/// for i in 0..20_000u64 { a.insert(&i); }
/// for i in 10_000..30_000u64 { b.insert(&i); }
/// let j = a.jaccard(&b).unwrap();
/// assert!((j - 1.0 / 3.0).abs() < 0.07);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BottomK {
    oracle: RandomOracle,
    k: usize,
    /// Sorted ascending, distinct, length ≤ k.
    values: Vec<u64>,
}

impl BottomK {
    /// New sketch keeping the `k` smallest values.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new(k: usize, oracle: RandomOracle) -> Self {
        assert!(k > 0, "k must be positive");
        Self { oracle, k, values: Vec::with_capacity(k) }
    }

    /// The `k` parameter.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The base oracle.
    pub fn oracle(&self) -> RandomOracle {
        self.oracle
    }

    /// The stored values (sorted ascending).
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Sketch memory in bytes.
    pub fn byte_size(&self) -> usize {
        self.k * 8
    }

    /// Insert one item — `O(log k)` comparisons plus an `O(k)` shift when
    /// the value enters the sketch.
    pub fn insert<T: HashableItem + ?Sized>(&mut self, item: &T) {
        self.observe(self.oracle.digest64(item));
    }

    /// Insert a raw hash value (used by the simulator).
    pub fn observe(&mut self, h: u64) {
        let full = self.values.len() == self.k;
        if full && h >= *self.values.last().expect("invariant: len == k ≥ 1") {
            return;
        }
        match self.values.binary_search(&h) {
            Ok(_) => {} // duplicate hash → same element (or full collision)
            Err(pos) => {
                self.values.insert(pos, h);
                if self.values.len() > self.k {
                    self.values.pop();
                }
            }
        }
    }

    /// Cardinality estimate: exact count while under-full, else the
    /// unbiased order-statistics estimator `(k − 1) / U₍ₖ₎` where `U₍ₖ₎` is
    /// the k-th smallest hash as a fraction of the hash space.
    pub fn cardinality(&self) -> f64 {
        if self.values.len() < self.k {
            return self.values.len() as f64;
        }
        let last = *self.values.last().expect("invariant: sketch is full (len == k ≥ 1)");
        let kth = last as f64 + 1.0;
        (self.k as f64 - 1.0) / (kth / 2f64.powi(64))
    }

    /// Lossless union: merge and keep the `k` smallest distinct values.
    pub fn union(&self, other: &Self) -> Result<Self, MinHashError> {
        self.check_compatible(other)?;
        let mut out = self.clone();
        for &v in &other.values {
            out.observe(v);
        }
        Ok(out)
    }

    /// Jaccard estimate: with `X` the bottom-k of the union,
    /// `|X ∩ A ∩ B| / |X|` is an unbiased estimate of `|A∩B| / |A∪B|`.
    pub fn jaccard(&self, other: &Self) -> Result<f64, MinHashError> {
        let union = self.union(other)?;
        if union.values.is_empty() {
            return Ok(0.0);
        }
        let in_both = union
            .values
            .iter()
            .filter(|v| {
                self.values.binary_search(v).is_ok() && other.values.binary_search(v).is_ok()
            })
            .count();
        Ok(in_both as f64 / union.values.len() as f64)
    }

    /// Intersection cardinality: `Ĵ · |A∪B|̂`.
    pub fn intersection(&self, other: &Self) -> Result<f64, MinHashError> {
        let j = self.jaccard(other)?;
        let u = self.union(other)?.cardinality();
        Ok(j * u)
    }

    fn check_compatible(&self, other: &Self) -> Result<(), MinHashError> {
        if self.k != other.k {
            return Err(MinHashError::ParameterMismatch { what: "k differs" });
        }
        if self.oracle != other.oracle {
            return Err(MinHashError::OracleMismatch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_range(lo: u64, hi: u64, k: usize) -> BottomK {
        let mut s = BottomK::new(k, RandomOracle::default());
        for i in lo..hi {
            s.insert(&i);
        }
        s
    }

    #[test]
    fn underfull_sketch_is_exact() {
        let s = sketch_range(0, 100, 256);
        assert_eq!(s.cardinality(), 100.0);
        assert_eq!(s.values().len(), 100);
    }

    #[test]
    fn cardinality_estimate_at_scale() {
        let s = sketch_range(0, 100_000, 1024);
        let e = s.cardinality();
        assert!((e / 100_000.0 - 1.0).abs() < 0.1, "estimate {e}");
    }

    #[test]
    fn values_stay_sorted_and_bounded() {
        let s = sketch_range(0, 10_000, 64);
        assert_eq!(s.values().len(), 64);
        assert!(s.values().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut s = BottomK::new(32, RandomOracle::default());
        for _ in 0..10 {
            for i in 0..20u64 {
                s.insert(&i);
            }
        }
        assert_eq!(s.cardinality(), 20.0);
    }

    #[test]
    fn union_matches_direct() {
        let a = sketch_range(0, 3000, 128);
        let b = sketch_range(1500, 4500, 128);
        let direct = sketch_range(0, 4500, 128);
        assert_eq!(a.union(&b).unwrap(), direct);
    }

    #[test]
    fn jaccard_of_half_overlap() {
        let a = sketch_range(0, 20_000, 512);
        let b = sketch_range(10_000, 30_000, 512);
        let j = a.jaccard(&b).unwrap();
        assert!((j - 1.0 / 3.0).abs() < 0.06, "j = {j}");
    }

    #[test]
    fn intersection_estimate() {
        let a = sketch_range(0, 20_000, 512);
        let b = sketch_range(10_000, 30_000, 512);
        let i = a.intersection(&b).unwrap();
        assert!((i / 10_000.0 - 1.0).abs() < 0.2, "intersection {i}");
    }

    #[test]
    fn jaccard_extremes() {
        let a = sketch_range(0, 1000, 128);
        assert_eq!(a.jaccard(&a.clone()).unwrap(), 1.0);
        let b = sketch_range(50_000, 51_000, 128);
        assert_eq!(a.jaccard(&b).unwrap(), 0.0);
        let empty = BottomK::new(128, RandomOracle::default());
        assert_eq!(empty.jaccard(&empty.clone()).unwrap(), 0.0);
    }

    #[test]
    fn mismatched_k_errors() {
        let a = BottomK::new(16, RandomOracle::default());
        let b = BottomK::new(32, RandomOracle::default());
        assert!(a.union(&b).is_err());
    }
}
