//! The k-hash-functions MinHash variant.
//!
//! The textbook scheme (§1.1 item 1): `k` independent hash functions, each
//! tracking its own minimum over the whole set. Θ(nk) to build — the
//! shortcoming the other variants address — but the cleanest statistics:
//! every bucket is an independent Bernoulli(t) match.

use crate::common::{jaccard_from_counts, MinHashError};
use hmh_hash::{HashableItem, RandomOracle};

/// A k-hash-functions MinHash sketch storing full 64-bit minima.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KHashMinHash {
    oracle: RandomOracle,
    /// Minimum hash per function; `u64::MAX` = empty.
    minima: Vec<u64>,
}

impl KHashMinHash {
    /// New sketch with `k` hash functions derived from `oracle`.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new(k: usize, oracle: RandomOracle) -> Self {
        assert!(k > 0, "k must be positive");
        Self { oracle, minima: vec![u64::MAX; k] }
    }

    /// Number of hash functions / buckets.
    pub fn k(&self) -> usize {
        self.minima.len()
    }

    /// The base oracle.
    pub fn oracle(&self) -> RandomOracle {
        self.oracle
    }

    /// Sketch memory in bytes.
    pub fn byte_size(&self) -> usize {
        self.minima.len() * 8
    }

    /// Register view (u64::MAX = empty).
    pub fn registers(&self) -> &[u64] {
        &self.minima
    }

    /// Insert one item — Θ(k) work.
    pub fn insert<T: HashableItem + ?Sized>(&mut self, item: &T) {
        for (i, slot) in self.minima.iter_mut().enumerate() {
            let h = self.oracle.derived(i as u64).digest64(item);
            if h < *slot {
                *slot = h;
            }
        }
    }

    /// Jaccard estimate: fraction of matching non-empty buckets.
    pub fn jaccard(&self, other: &Self) -> Result<f64, MinHashError> {
        self.check_compatible(other)?;
        let mut matching = 0usize;
        let mut occupied = 0usize;
        for (&a, &b) in self.minima.iter().zip(&other.minima) {
            if a != u64::MAX || b != u64::MAX {
                occupied += 1;
                if a == b {
                    matching += 1;
                }
            }
        }
        Ok(jaccard_from_counts(matching, occupied))
    }

    /// Lossless union (element-wise min).
    pub fn union(&self, other: &Self) -> Result<Self, MinHashError> {
        self.check_compatible(other)?;
        let mut out = self.clone();
        for (a, &b) in out.minima.iter_mut().zip(&other.minima) {
            *a = (*a).min(b);
        }
        Ok(out)
    }

    /// Cardinality estimate from order statistics: each occupied register
    /// is the minimum of `n` uniforms with mean `1/(n+1)`, so the MLE over
    /// the `k` (approximately exponential) minima is `n̂ ≈ k / Σ vᵢ`.
    pub fn cardinality(&self) -> f64 {
        let occupied = self.minima.iter().filter(|&&v| v != u64::MAX).count();
        if occupied == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .minima
            .iter()
            .filter(|&&v| v != u64::MAX)
            .map(|&v| (v as f64 + 0.5) / 2f64.powi(64))
            .sum();
        if sum == 0.0 {
            return f64::INFINITY;
        }
        (occupied as f64 / sum - 1.0).max(occupied as f64)
    }

    fn check_compatible(&self, other: &Self) -> Result<(), MinHashError> {
        if self.k() != other.k() {
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

    fn sketch_range(lo: u64, hi: u64, k: usize) -> KHashMinHash {
        let mut s = KHashMinHash::new(k, RandomOracle::default());
        for i in lo..hi {
            s.insert(&i);
        }
        s
    }

    #[test]
    fn jaccard_of_half_overlap() {
        // |A|=|B|=2000, overlap 1000 → J = 1/3.
        let a = sketch_range(0, 2000, 512);
        let b = sketch_range(1000, 3000, 512);
        let j = a.jaccard(&b).unwrap();
        assert!((j - 1.0 / 3.0).abs() < 0.07, "j = {j}");
    }

    #[test]
    fn identical_sets_match_exactly() {
        let a = sketch_range(0, 500, 64);
        let b = sketch_range(0, 500, 64);
        assert_eq!(a.jaccard(&b).unwrap(), 1.0);
    }

    #[test]
    fn disjoint_sets_rarely_match() {
        let a = sketch_range(0, 5000, 256);
        let b = sketch_range(10_000, 15_000, 256);
        // 64-bit registers: accidental collisions are ~impossible.
        assert_eq!(a.jaccard(&b).unwrap(), 0.0);
    }

    #[test]
    fn union_matches_direct_sketch() {
        let a = sketch_range(0, 1000, 128);
        let b = sketch_range(500, 1500, 128);
        let direct = sketch_range(0, 1500, 128);
        assert_eq!(a.union(&b).unwrap(), direct);
    }

    #[test]
    fn cardinality_order_of_magnitude() {
        let s = sketch_range(0, 10_000, 512);
        let e = s.cardinality();
        assert!((e / 10_000.0 - 1.0).abs() < 0.15, "estimate {e}");
    }

    #[test]
    fn empty_sketch() {
        let s = KHashMinHash::new(16, RandomOracle::default());
        assert_eq!(s.cardinality(), 0.0);
        assert_eq!(s.jaccard(&s.clone()).unwrap(), 0.0);
    }

    #[test]
    fn incompatible_sketches_error() {
        let a = KHashMinHash::new(16, RandomOracle::default());
        let b = KHashMinHash::new(32, RandomOracle::default());
        assert!(a.jaccard(&b).is_err());
        let c = KHashMinHash::new(16, RandomOracle::with_seed(5));
        assert_eq!(a.union(&c).unwrap_err(), MinHashError::OracleMismatch);
    }
}
