//! The k-partition (one-permutation) MinHash variant.
//!
//! §1.1 item 3 and Li, Owen & Zhang \[17\]: hash each item once, partition by
//! the first `p` bits, keep the minimum hash value within each of the `2^p`
//! partitions. `O(n)` generation, `O(k)` Jaccard computation.
//!
//! This is both the scaffold HyperMinHash compresses and the "MinHash"
//! baseline of Figure 6, where the minima are stored at a fixed register
//! width (8 or 16 bits): once cardinalities grow, truncated minima collide
//! accidentally and the Jaccard estimate degrades — exactly the failure
//! mode HyperMinHash's adaptive-precision registers avoid.

use crate::common::{jaccard_from_counts, MinHashError};
use hmh_hash::{HashableItem, RandomOracle};
use hmh_hll::registers::BitPacked;

/// A k-partition MinHash sketch with `2^p` fixed-width registers.
///
/// ```
/// use hmh_minhash::KPartitionMinHash;
/// use hmh_hash::RandomOracle;
///
/// // Figure 6's "256 byte MinHash": 256 buckets of 8 bits.
/// let mut s = KPartitionMinHash::new(8, 8, RandomOracle::default());
/// for i in 0..1000u64 { s.insert(&i); }
/// assert_eq!(s.byte_size(), 256);
/// assert!((s.cardinality() / 1000.0 - 1.0).abs() < 0.3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KPartitionMinHash {
    p: u32,
    bits: u32,
    oracle: RandomOracle,
    registers: BitPacked,
    /// Occupancy mask (a truncated minimum of 2^bits−1 is a legitimate
    /// value, so "empty" needs out-of-band storage; the paper's byte
    /// accounting, like ours via [`Self::byte_size`], counts registers
    /// only).
    occupied: Vec<bool>,
}

impl KPartitionMinHash {
    /// New sketch with `2^p` registers of `bits` bits each.
    ///
    /// Figure 6's baselines are `(p, bits) = (8, 8)` (256 B) and `(7, 16)`
    /// (also 256 B).
    ///
    /// # Panics
    /// If `p ∉ 1..=24` or `bits ∉ 1..=32`.
    pub fn new(p: u32, bits: u32, oracle: RandomOracle) -> Self {
        assert!((1..=24).contains(&p), "p = {p} out of 1..=24");
        assert!((1..=32).contains(&bits), "bits = {bits} out of 1..=32");
        Self {
            p,
            bits,
            oracle,
            registers: BitPacked::new(bits, 1 << p),
            occupied: vec![false; 1 << p],
        }
    }

    /// Partition-count exponent `p`.
    pub fn p(&self) -> u32 {
        self.p
    }

    /// Register width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of partitions `2^p`.
    pub fn num_registers(&self) -> usize {
        // hmh-lint: allow(shift-overflow-hazard) — p ∈ 1..=24 asserted by new
        1 << self.p
    }

    /// The base oracle.
    pub fn oracle(&self) -> RandomOracle {
        self.oracle
    }

    /// Register memory in bytes (the paper's sketch-size accounting).
    pub fn byte_size(&self) -> usize {
        (self.num_registers() * self.bits as usize).div_ceil(8)
    }

    /// Insert one item.
    pub fn insert<T: HashableItem + ?Sized>(&mut self, item: &T) {
        let digest = self.oracle.digest(item);
        let bucket = digest.take_bits(0, self.p) as usize;
        let value = digest.take_bits(self.p, self.bits) as u32;
        self.observe(bucket, value);
    }

    /// Record a truncated minimum directly (used by the simulator).
    pub fn observe(&mut self, bucket: usize, value: u32) {
        if !self.occupied[bucket] || value < self.registers.get(bucket) {
            self.registers.set(bucket, value);
            self.occupied[bucket] = true;
        }
    }

    /// Register value, `None` if the partition is empty.
    pub fn register(&self, bucket: usize) -> Option<u32> {
        self.occupied[bucket].then(|| self.registers.get(bucket))
    }

    /// Jaccard estimate: matching non-empty registers over occupied ones —
    /// no correction for accidental truncation collisions (matching the
    /// Figure 6 protocol, "without estimated collision correction").
    pub fn jaccard(&self, other: &Self) -> Result<f64, MinHashError> {
        self.check_compatible(other)?;
        let mut matching = 0usize;
        let mut occupied = 0usize;
        for i in 0..self.num_registers() {
            match (self.register(i), other.register(i)) {
                (None, None) => {}
                (a, b) => {
                    occupied += 1;
                    if a.is_some() && a == b {
                        matching += 1;
                    }
                }
            }
        }
        Ok(jaccard_from_counts(matching, occupied))
    }

    /// Lossless union (element-wise min with occupancy OR).
    pub fn union(&self, other: &Self) -> Result<Self, MinHashError> {
        self.check_compatible(other)?;
        let mut out = self.clone();
        for i in 0..out.num_registers() {
            if let Some(v) = other.register(i) {
                out.observe(i, v);
            }
        }
        Ok(out)
    }

    /// Cardinality estimate.
    ///
    /// With empties present, occupancy linear counting
    /// (`P(empty) = (1 − 2^{-p})^n`); once all partitions are occupied, the
    /// order-statistics estimator `m² / Σ vᵢ` over the register fractions
    /// `vᵢ ∈ [0, 1)` — each register is `min ≈ Exp(n/m)/1`-scale, the same
    /// estimator as Algorithm 3's KMV tail. Truncation floors the registers
    /// at `2^{-bits}` resolution, which caps the reachable range — the
    /// Figure 6 failure mode.
    pub fn cardinality(&self) -> f64 {
        let m = self.num_registers() as f64;
        let empties = self.occupied.iter().filter(|&&o| !o).count();
        if empties > 0 {
            return m * (m / empties as f64).ln();
        }
        let scale = 2f64.powi(self.bits as i32);
        let sum: f64 = (0..self.num_registers())
            .map(|i| (f64::from(self.registers.get(i)) + 0.5) / scale)
            .sum();
        if sum == 0.0 {
            return f64::INFINITY;
        }
        m * m / sum
    }

    fn check_compatible(&self, other: &Self) -> Result<(), MinHashError> {
        if self.p != other.p {
            return Err(MinHashError::ParameterMismatch { what: "p differs" });
        }
        if self.bits != other.bits {
            return Err(MinHashError::ParameterMismatch { what: "register width differs" });
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

    fn sketch_range(lo: u64, hi: u64, p: u32, bits: u32) -> KPartitionMinHash {
        let mut s = KPartitionMinHash::new(p, bits, RandomOracle::default());
        for i in lo..hi {
            s.insert(&i);
        }
        s
    }

    #[test]
    fn figure6_sketch_sizes() {
        // "256 byte MinHash sketch with 256 buckets of 8 bits each"
        assert_eq!(KPartitionMinHash::new(8, 8, RandomOracle::default()).byte_size(), 256);
        // "256 byte MinHash sketch with 128 buckets of 16 bits"
        assert_eq!(KPartitionMinHash::new(7, 16, RandomOracle::default()).byte_size(), 256);
    }

    #[test]
    fn jaccard_at_low_cardinality_with_wide_registers() {
        // Wide (24-bit) registers at n = 6000: collisions negligible.
        let a = sketch_range(0, 6000, 8, 24);
        let b = sketch_range(3000, 9000, 8, 24);
        let j = a.jaccard(&b).unwrap();
        assert!((j - 1.0 / 3.0).abs() < 0.1, "j = {j}");
    }

    #[test]
    fn narrow_registers_collide_at_high_cardinality() {
        // The Figure 6 failure mode: 8-bit registers, disjoint sets, large
        // n → spurious matches dominate.
        let a = sketch_range(0, 2_000_000, 8, 8);
        let b = sketch_range(10_000_000, 12_000_000, 8, 8);
        let j = a.jaccard(&b).unwrap();
        assert!(j > 0.5, "truncated registers should collide: j = {j}");

        // Same sets, 32-bit registers: no spurious matches.
        let a = sketch_range(0, 100_000, 8, 32);
        let b = sketch_range(10_000_000, 10_100_000, 8, 32);
        let j = a.jaccard(&b).unwrap();
        assert!(j < 0.02, "wide registers should not collide: j = {j}");
    }

    #[test]
    fn union_matches_direct() {
        let a = sketch_range(0, 2000, 6, 16);
        let b = sketch_range(1000, 3000, 6, 16);
        let direct = sketch_range(0, 3000, 6, 16);
        assert_eq!(a.union(&b).unwrap(), direct);
    }

    #[test]
    fn union_commutative_idempotent() {
        let a = sketch_range(0, 500, 5, 12);
        let b = sketch_range(400, 900, 5, 12);
        assert_eq!(a.union(&b).unwrap(), b.union(&a).unwrap());
        assert_eq!(a.union(&a).unwrap(), a);
    }

    #[test]
    fn cardinality_linear_counting_and_order_statistics() {
        // Sparse: exactish linear counting.
        let s = sketch_range(0, 50, 8, 16);
        let e = s.cardinality();
        assert!((e - 50.0).abs() < 8.0, "sparse estimate {e}");
        // Dense: order statistics.
        let s = sketch_range(0, 100_000, 8, 24);
        let e = s.cardinality();
        assert!((e / 100_000.0 - 1.0).abs() < 0.15, "dense estimate {e}");
    }

    #[test]
    fn empty_sketch_behaviour() {
        let s = KPartitionMinHash::new(6, 8, RandomOracle::default());
        assert_eq!(s.cardinality(), 0.0);
        assert_eq!(s.jaccard(&s.clone()).unwrap(), 0.0);
        assert_eq!(s.register(0), None);
    }

    #[test]
    fn zero_value_register_is_distinct_from_empty() {
        let mut s = KPartitionMinHash::new(4, 8, RandomOracle::default());
        s.observe(3, 0);
        assert_eq!(s.register(3), Some(0));
        assert_eq!(s.register(2), None);
        // A second observation cannot "lower" below 0.
        s.observe(3, 5);
        assert_eq!(s.register(3), Some(0));
    }

    #[test]
    fn compatibility_checks() {
        let a = KPartitionMinHash::new(6, 8, RandomOracle::default());
        assert!(a.union(&KPartitionMinHash::new(7, 8, RandomOracle::default())).is_err());
        assert!(a.union(&KPartitionMinHash::new(6, 16, RandomOracle::default())).is_err());
        assert!(a.union(&KPartitionMinHash::new(6, 8, RandomOracle::with_seed(1))).is_err());
    }
}
