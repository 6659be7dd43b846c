//! The `(p, q, r)` parameterization of a HyperMinHash sketch.

use crate::error::HmhError;

/// HyperMinHash parameters (Definition 1):
///
/// * `p` — partition exponent: `2^p` buckets.
/// * `q` — LogLog-counter width in bits; the counter saturates at
///   `cap = 2^q − 1` (see the crate docs for the cap convention).
/// * `r` — mantissa bits stored after the leading 1.
///
/// Each register occupies `q + r` bits; the sketch occupies
/// `2^p · (q + r)` bits. The paper's two reference configurations:
///
/// * Figure 6: `p = 8, q = 4, r = 4` — 256 buckets × 8 bits = 256 bytes.
/// * Headline (§5): `p = 15, q = 6, r = 10` — 2^15 × 16 bits = 64 KiB,
///   "estimating Jaccard indices of 0.01 for set cardinalities on the
///   order of 10^19 with accuracy around 5%".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HmhParams {
    p: u32,
    q: u32,
    r: u32,
}

impl HmhParams {
    /// Validated construction.
    ///
    /// Constraints:
    /// * `p ≤ 24` (register count; 16 Mi buckets is far past any published
    ///   use),
    /// * `1 ≤ q ≤ 6` (`q = 6` saturates at 63, covering cardinalities
    ///   ~2^64 — "storing 6 bits is sufficient", §2),
    /// * `1 ≤ r ≤ 24`, and `q + r ≤ 32` (one packed word),
    /// * `p + cap − 1 + r ≤ 128` (bits consumed from one digest).
    pub fn new(p: u32, q: u32, r: u32) -> Result<Self, HmhError> {
        let fail = |reason: String| Err(HmhError::InvalidParams { reason });
        if p > 24 {
            return fail(format!("p = {p} exceeds 24"));
        }
        if !(1..=6).contains(&q) {
            return fail(format!("q = {q} out of 1..=6"));
        }
        if !(1..=24).contains(&r) {
            return fail(format!("r = {r} out of 1..=24"));
        }
        if q + r > 32 {
            return fail(format!("q + r = {} exceeds one 32-bit register word", q + r));
        }
        let params = Self { p, q, r };
        let consumed = p + (params.cap() - 1) + r;
        if consumed > 128 {
            return fail(format!("p + cap − 1 + r = {consumed} exceeds the 128-bit digest"));
        }
        Ok(params)
    }

    /// The Figure 6 configuration: 256 bytes, `p = 8, q = 4, r = 4`.
    pub fn figure6() -> Self {
        Self::new(8, 4, 4).expect("invariant: figure 6 parameters are valid")
    }

    /// The §5 headline configuration: 64 KiB, `p = 15, q = 6, r = 10`.
    pub fn headline() -> Self {
        Self::new(15, 6, 10).expect("invariant: headline parameters are valid")
    }

    /// Partition exponent `p`.
    pub const fn p(self) -> u32 {
        self.p
    }

    /// Counter width `q` in bits.
    pub const fn q(self) -> u32 {
        self.q
    }

    /// Mantissa width `r` in bits.
    pub const fn r(self) -> u32 {
        self.r
    }

    /// Number of buckets `m = 2^p`.
    pub const fn num_buckets(self) -> usize {
        // hmh-lint: allow(shift-overflow-hazard) — p ≤ 24 enforced by HmhParams::new
        1 << self.p
    }

    /// Counter saturation value `cap = 2^q − 1`.
    pub const fn cap(self) -> u32 {
        // hmh-lint: allow(shift-overflow-hazard) — q ≤ 6 enforced by HmhParams::new
        (1 << self.q) - 1
    }

    /// Bits per packed register word (`q + r`).
    pub const fn word_bits(self) -> u32 {
        self.q + self.r
    }

    /// Number of mantissa values `2^r`.
    pub const fn mantissa_values(self) -> u64 {
        // hmh-lint: allow(shift-overflow-hazard) — r ≤ 24 enforced by HmhParams::new
        1 << self.r
    }

    /// Sketch size in bytes: `⌈2^p (q + r) / 8⌉`.
    pub const fn byte_size(self) -> usize {
        (self.num_buckets() * self.word_bits() as usize).div_ceil(8)
    }

    /// The largest cardinality before the LogLog counters hit their
    /// precision floor and the second Theorem-1 term starts to dominate:
    /// `2^{p + cap − 1 + r}`-scale ("around n > 2^{2^q + p} the number of
    /// collisions starts increasing", Appendix A.1).
    pub fn collision_range_limit(self) -> f64 {
        2f64.powi((self.p + self.cap() - 1) as i32)
    }
}

impl std::fmt::Display for HmhParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HmhParams(p={}, q={}, r={})", self.p, self.q, self.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_configurations() {
        let fig6 = HmhParams::figure6();
        assert_eq!(fig6.num_buckets(), 256);
        assert_eq!(fig6.word_bits(), 8);
        assert_eq!(fig6.byte_size(), 256);
        assert_eq!(fig6.cap(), 15);

        let headline = HmhParams::headline();
        assert_eq!(headline.num_buckets(), 1 << 15);
        assert_eq!(headline.word_bits(), 16);
        assert_eq!(headline.byte_size(), 64 * 1024);
        assert_eq!(headline.cap(), 63);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(HmhParams::new(25, 4, 4).is_err());
        assert!(HmhParams::new(8, 0, 4).is_err());
        assert!(HmhParams::new(8, 7, 4).is_err());
        assert!(HmhParams::new(8, 4, 0).is_err());
        assert!(HmhParams::new(8, 4, 25).is_err());
        // The digest-width constraint is defensive: within the individual
        // caps above, p + cap − 1 + r maxes out at 110 < 128.
        assert!(HmhParams::new(24, 6, 24).is_ok());
    }

    #[test]
    fn validation_accepts_extremes() {
        assert!(HmhParams::new(0, 1, 1).is_ok(), "single bucket is legal");
        assert!(HmhParams::new(24, 6, 16).is_ok());
    }

    #[test]
    fn accessors_are_consistent() {
        let p = HmhParams::new(10, 5, 8).unwrap();
        assert_eq!(p.p(), 10);
        assert_eq!(p.q(), 5);
        assert_eq!(p.r(), 8);
        assert_eq!(p.cap(), 31);
        assert_eq!(p.mantissa_values(), 256);
        assert_eq!(p.byte_size(), 1024 * 13 / 8);
        assert!(p.collision_range_limit() > 1e12);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(HmhParams::figure6().to_string(), "HmhParams(p=8, q=4, r=4)");
    }
}
