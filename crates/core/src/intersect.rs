//! Intersection cardinality and k-way queries.
//!
//! The paper's pipeline: `|A ∩ B| = t̂(A, B) · |A ∪ B|̂`, both factors from
//! the sketches. The k-way generalization — the chance that *all* k bucket
//! minima agree is `|∩ᵢ Sᵢ| / |∪ᵢ Sᵢ|` — is what lets CNF queries
//! (`hmh-cnf`) evaluate intersections of unions with error bounded by the
//! final result size (§5).

use crate::error::HmhError;
use crate::jaccard::{jaccard, CollisionCorrection};
use crate::registers::{self, Lane, Lanes};
use crate::sketch::HyperMinHash;

/// An intersection estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntersectionEstimate {
    /// Estimated Jaccard index (collision-corrected).
    pub jaccard: f64,
    /// Estimated union cardinality.
    pub union: f64,
    /// Estimated intersection cardinality `jaccard · union`.
    pub intersection: f64,
}

/// Pairwise intersection: `t̂ · |A ∪ B|̂`.
pub fn intersection(a: &HyperMinHash, b: &HyperMinHash) -> Result<IntersectionEstimate, HmhError> {
    let j = jaccard(a, b, CollisionCorrection::Approx)?;
    let union = a.union(b)?.cardinality();
    Ok(IntersectionEstimate { jaccard: j.estimate, union, intersection: j.estimate * union })
}

/// k-way Jaccard: the fraction of buckets, occupied in the union, whose
/// registers agree across *all* sketches — an unbiased estimate of
/// `|∩ᵢ Sᵢ| / |∪ᵢ Sᵢ|` up to accidental collisions.
///
/// No collision correction is applied for `k > 2` (the pairwise `EC`
/// theory doesn't transfer; with ≥ 2 mantissa-bit registers the k-way
/// accidental-collision floor is `≲ 2^{-r(k-1)}`, far below the pairwise
/// one).
///
/// # Errors
/// If fewer than two sketches are given or any pair is incompatible.
pub fn jaccard_many(sketches: &[&HyperMinHash]) -> Result<f64, HmhError> {
    let [first, rest @ ..] = sketches else {
        return Err(HmhError::InvalidParams {
            reason: "k-way Jaccard needs at least two sketches".into(),
        });
    };
    if rest.is_empty() {
        return Err(HmhError::InvalidParams {
            reason: "k-way Jaccard needs at least two sketches".into(),
        });
    }
    for s in rest {
        first.check_compatible(s)?;
    }
    let empty = registers::mantissa_mask(first.params());
    let counts = match first.lanes() {
        Lanes::U16(_) => kway_counts::<u16>(sketches, empty),
        Lanes::U32(_) => kway_counts::<u32>(sketches, empty),
    };
    // Equal parameters imply equal lane widths.
    let Some((matching, occupied)) = counts else {
        return Err(HmhError::ParameterMismatch { left: first.params(), right: rest[0].params() });
    };
    Ok(if occupied == 0 { 0.0 } else { matching as f64 / occupied as f64 })
}

/// The k-way counts `(C, N)`: buckets where every register equals the
/// first and is occupied, and buckets occupied in any sketch. `None` if a
/// sketch's lanes are not `L`. Runs in blocks so each sketch is one slice
/// pass per block into a running max and an all-equal flag.
fn kway_counts<L: Lane>(sketches: &[&HyperMinHash], empty: u32) -> Option<(usize, usize)> {
    const BLOCK: usize = 256;
    let lanes: Vec<&[L]> = sketches.iter().map(|s| L::slice(s.lanes())).collect::<Option<_>>()?;
    let (first, rest) = lanes.split_first()?;
    let empty = L::from_rank(empty);
    let (mut matching, mut occupied) = (0usize, 0usize);
    let mut hi = [L::default(); BLOCK];
    let mut same = [true; BLOCK];
    for (block, base) in first.chunks(BLOCK).zip((0..).step_by(BLOCK)) {
        let n = block.len();
        let (hi, same) = (&mut hi[..n], &mut same[..n]);
        hi.copy_from_slice(block);
        same.fill(true);
        for other in rest {
            let other = &other[base..base + n];
            for (((h, s), &x), &y) in hi.iter_mut().zip(same.iter_mut()).zip(other).zip(block) {
                *h = (*h).max(x);
                *s &= x == y;
            }
        }
        for ((&h, &s), &x) in hi.iter().zip(same.iter()).zip(block) {
            occupied += usize::from(h > empty);
            matching += usize::from(s & (x > empty));
        }
    }
    Some((matching, occupied))
}

/// k-way intersection: `t̂ₖ · |∪ᵢ Sᵢ|̂`.
pub fn intersection_many(sketches: &[&HyperMinHash]) -> Result<IntersectionEstimate, HmhError> {
    let j = jaccard_many(sketches)?;
    let mut union =
        (*sketches.first().expect("invariant: jaccard_many errors on empty input")).clone();
    for s in &sketches[1..] {
        union.merge(s)?;
    }
    let u = union.cardinality();
    Ok(IntersectionEstimate { jaccard: j, union: u, intersection: j * u })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HmhParams;

    fn params() -> HmhParams {
        HmhParams::new(11, 6, 10).unwrap()
    }

    #[test]
    fn pairwise_intersection() {
        let p = params();
        let a = HyperMinHash::from_items(p, 0..30_000u64);
        let b = HyperMinHash::from_items(p, 15_000..45_000u64);
        let est = intersection(&a, &b).unwrap();
        assert!((est.intersection / 15_000.0 - 1.0).abs() < 0.12, "{est:?}");
        assert!((est.union / 45_000.0 - 1.0).abs() < 0.05, "{est:?}");
    }

    #[test]
    fn three_way_jaccard() {
        // A = [0, 30k), B = [10k, 40k), C = [20k, 50k):
        // ∩ = [20k, 30k) = 10k, ∪ = 50k → t₃ = 0.2.
        let p = params();
        let a = HyperMinHash::from_items(p, 0..30_000u64);
        let b = HyperMinHash::from_items(p, 10_000..40_000u64);
        let c = HyperMinHash::from_items(p, 20_000..50_000u64);
        let j = jaccard_many(&[&a, &b, &c]).unwrap();
        assert!((j - 0.2).abs() < 0.04, "j = {j}");
        let est = intersection_many(&[&a, &b, &c]).unwrap();
        assert!((est.intersection / 10_000.0 - 1.0).abs() < 0.2, "{est:?}");
    }

    #[test]
    fn two_way_many_matches_pairwise_raw() {
        let p = params();
        let a = HyperMinHash::from_items(p, 0..10_000u64);
        let b = HyperMinHash::from_items(p, 5_000..15_000u64);
        let many = jaccard_many(&[&a, &b]).unwrap();
        let pairwise = crate::jaccard::jaccard(&a, &b, CollisionCorrection::None).unwrap();
        assert_eq!(many, pairwise.raw);
    }

    #[test]
    fn disjoint_three_way_is_near_zero() {
        let p = params();
        let a = HyperMinHash::from_items(p, 0..10_000u64);
        let b = HyperMinHash::from_items(p, 1_000_000..1_010_000u64);
        let c = HyperMinHash::from_items(p, 2_000_000..2_010_000u64);
        let j = jaccard_many(&[&a, &b, &c]).unwrap();
        assert!(j < 0.01, "j = {j}");
    }

    #[test]
    fn needs_two_sketches() {
        let p = params();
        let a = HyperMinHash::from_items(p, 0..100u64);
        assert!(jaccard_many(&[&a]).is_err());
        assert!(jaccard_many(&[]).is_err());
    }

    #[test]
    fn empty_sketches_kway() {
        let p = params();
        let a = HyperMinHash::new(p);
        let b = HyperMinHash::new(p);
        assert_eq!(jaccard_many(&[&a, &b]).unwrap(), 0.0);
    }
}
