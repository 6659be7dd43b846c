//! MSB-first bit-field extraction over 128-bit digests.
//!
//! The paper treats a hash output as an infinite binary expansion of a
//! uniform number in `[0, 1)`: `h(x) = 0.b₁b₂b₃…`. Algorithm 1 then slices
//! fixed-length regions off the front: `p` bucket bits, a LogLog window for
//! the leading-one position `ρ`, and `r` mantissa bits (the figure-1 note:
//! "using a single hash function but dividing the bitstring into
//! fixed-length regions"). [`Digest128`] is that bitstring, truncated to 128
//! bits — enough for every parameterization this workspace accepts
//! (`p + cap - 1 + r ≤ 128`).
//!
//! Bit indexing convention: **bit 0 is the most significant bit** of the
//! digest, i.e. `b₁` of the binary expansion, so "the first k bits" of the
//! paper is `take_bits(0, k)` here.

/// A 128-bit hash digest viewed as the binary expansion `0.b₁b₂…b₁₂₈`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest128(u128);

impl Digest128 {
    /// Build from high and low 64-bit words (`hi` holds bits `b₁..b₆₄`).
    #[inline]
    pub const fn new(hi: u64, lo: u64) -> Self {
        Self(((hi as u128) << 64) | lo as u128)
    }

    /// Build from a raw `u128` (MSB = `b₁`).
    #[inline]
    pub const fn from_u128(x: u128) -> Self {
        Self(x)
    }

    /// High 64 bits (`b₁..b₆₄`).
    #[inline]
    pub const fn hi(self) -> u64 {
        (self.0 >> 64) as u64
    }

    /// Low 64 bits (`b₆₅..b₁₂₈`).
    #[inline]
    pub const fn lo(self) -> u64 {
        self.0 as u64
    }

    /// The raw 128-bit value.
    #[inline]
    pub const fn as_u128(self) -> u128 {
        self.0
    }

    /// Extract `len` bits starting at bit `start` (MSB-first), right-aligned.
    ///
    /// `len == 0` returns 0. Bits beyond position 127 read as zero, so a
    /// window may run off the end (the paper's "infinite" expansion has an
    /// all-zero tail with probability 1 at the precision we consume).
    ///
    /// # Panics
    /// If `len > 64`.
    #[inline]
    pub fn take_bits(self, start: u32, len: u32) -> u64 {
        assert!(len <= 64, "take_bits len {len} > 64");
        if len == 0 {
            return 0;
        }
        let shifted = if start >= 128 { 0 } else { self.0 << start };
        (shifted >> (128 - len)) as u64
    }

    /// 1-indexed position of the first 1-bit in the window
    /// `[start, start + window)`, or `None` if the window is all zeros.
    ///
    /// This is the paper's `ρ` restricted to a finite window: for
    /// `x = 0.b_{start+1}…`, `ρ(x) = ⌊−log₂ x⌋ + 1` whenever the leading one
    /// falls inside the window.
    #[inline]
    pub fn leading_one(self, start: u32, window: u32) -> Option<u32> {
        if start >= 128 || window == 0 {
            return None;
        }
        let shifted = self.0 << start;
        let lz = shifted.leading_zeros(); // 128 if shifted == 0
        let effective = window.min(128 - start);
        if lz < effective {
            Some(lz + 1)
        } else {
            None
        }
    }

    /// Register extraction per Definition 1 / Algorithm 1: returns
    /// `(counter, mantissa)` for a window beginning at bit `start`.
    ///
    /// * `cap` — maximum counter value (the paper's `2^q`; the packed
    ///   register variant uses `2^q − 1` so the counter plus the empty state
    ///   fit in `q` bits).
    /// * `r` — number of mantissa bits.
    ///
    /// Semantics: let `ρ` be the 1-indexed leading-one position of the
    /// window bits. If `ρ < cap` (leading one within the first `cap − 1`
    /// bits), the counter is `ρ` and the mantissa is the `r` bits
    /// immediately *after* the leading one. Otherwise the counter saturates
    /// at `cap` and the mantissa is the `r` bits at the fixed positions
    /// `cap, …, cap + r − 1` — exactly the `i = 2^q` case of Lemma 4, whose
    /// sub-interval boundaries are `j / 2^(r + i − 1)`.
    ///
    /// The returned counter is always in `1..=cap` (an occupied register is
    /// never 0; sketches reserve 0 for "empty").
    #[inline]
    pub fn rho_sigma(self, start: u32, cap: u32, r: u32) -> (u32, u64) {
        debug_assert!(cap >= 1);
        match self.leading_one(start, cap - 1) {
            Some(rho) => (rho, self.take_bits(start + rho, r)),
            None => (cap, self.take_bits(start + cap - 1, r)),
        }
    }

    /// Interpret bits `[start, start + bits)` as a uniform fraction in
    /// `[0, 1)`.
    #[inline]
    pub fn unit_fraction(self, start: u32, bits: u32) -> f64 {
        assert!(bits <= 53, "unit_fraction supports at most 53 bits");
        self.take_bits(start, bits) as f64 / (1u64 << bits) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_bits_msb_first() {
        let d = Digest128::new(0x8000_0000_0000_0000, 0);
        assert_eq!(d.take_bits(0, 1), 1);
        assert_eq!(d.take_bits(0, 4), 0b1000);
        assert_eq!(d.take_bits(1, 4), 0);

        let d = Digest128::new(0xF0F0_0000_0000_0000, 0);
        assert_eq!(d.take_bits(0, 8), 0xF0);
        assert_eq!(d.take_bits(4, 8), 0x0F);
        assert_eq!(d.take_bits(0, 16), 0xF0F0);
    }

    #[test]
    fn take_bits_spans_the_word_boundary() {
        let d = Digest128::new(0x0000_0000_0000_00FF, 0xFF00_0000_0000_0000);
        assert_eq!(d.take_bits(56, 16), 0xFFFF);
        assert_eq!(d.take_bits(48, 16), 0x00FF);
    }

    #[test]
    fn take_bits_past_the_end_reads_zero() {
        let d = Digest128::from_u128(u128::MAX);
        assert_eq!(d.take_bits(120, 16), 0xFF00);
        assert_eq!(d.take_bits(128, 8), 0);
        assert_eq!(d.take_bits(200, 8), 0);
    }

    #[test]
    fn leading_one_positions() {
        // 0.001xxxx… → ρ = 3.
        let d = Digest128::from_u128(1u128 << 125);
        assert_eq!(d.leading_one(0, 64), Some(3));
        assert_eq!(d.leading_one(0, 3), Some(3));
        assert_eq!(d.leading_one(0, 2), None);
        // Window starting past the bit.
        assert_eq!(d.leading_one(3, 64), None);
        // Window starting exactly on the bit.
        assert_eq!(d.leading_one(2, 64), Some(1));
        // All-zero digest.
        assert_eq!(Digest128::from_u128(0).leading_one(0, 128), None);
    }

    #[test]
    fn rho_sigma_uncapped() {
        // Window: 0 0 1 | 1 0 1 1 …  → ρ=3, mantissa(r=4) = 1011.
        let bits: u128 = 0b0011_0111 << (128 - 8);
        let d = Digest128::from_u128(bits);
        let (rho, sigma) = d.rho_sigma(0, 16, 4);
        assert_eq!(rho, 3);
        assert_eq!(sigma, 0b1011);
    }

    #[test]
    fn rho_sigma_capped() {
        // cap = 4: first cap-1 = 3 bits zero → counter = 4, mantissa = bits
        // at positions 4..8 (0-indexed offsets 3..7).
        let bits: u128 = 0b0001_1010 << (128 - 8);
        let d = Digest128::from_u128(bits);
        let (rho, sigma) = d.rho_sigma(0, 4, 4);
        assert_eq!(rho, 4);
        assert_eq!(sigma, 0b1101);
    }

    #[test]
    fn rho_sigma_capped_all_zero_window() {
        let d = Digest128::from_u128(0);
        let (rho, sigma) = d.rho_sigma(0, 64, 10);
        assert_eq!(rho, 64);
        assert_eq!(sigma, 0);
    }

    #[test]
    fn rho_sigma_respects_start_offset() {
        // p = 8 bucket bits of ones, then 0 1 …
        let bits: u128 = (0xFFu128 << 120) | (1u128 << 118);
        let d = Digest128::from_u128(bits);
        let (rho, _) = d.rho_sigma(8, 32, 4);
        assert_eq!(rho, 2);
    }

    #[test]
    fn rho_sigma_boundary_between_capped_and_not() {
        // Leading one exactly at position cap-1 → NOT capped, counter=cap-1.
        let cap = 8u32;
        let d = Digest128::from_u128(1u128 << (128 - (cap - 1)));
        let (rho, _) = d.rho_sigma(0, cap, 4);
        assert_eq!(rho, cap - 1);
        // Leading one at position cap → capped at cap.
        let d = Digest128::from_u128(1u128 << (128 - cap));
        let (rho, sigma) = d.rho_sigma(0, cap, 4);
        assert_eq!(rho, cap);
        // The capped mantissa window starts at offset cap-1, which is that
        // one bit followed by zeros: 1000.
        assert_eq!(sigma, 0b1000);
    }

    #[test]
    fn unit_fraction_halves() {
        let d = Digest128::new(0x8000_0000_0000_0000, 0);
        assert_eq!(d.unit_fraction(0, 1), 0.5);
        assert_eq!(d.unit_fraction(0, 2), 0.5);
        assert_eq!(d.unit_fraction(1, 2), 0.0);
    }

    #[test]
    fn ordering_matches_numeric_value() {
        let small = Digest128::new(0, 1);
        let big = Digest128::new(1, 0);
        assert!(small < big);
    }
}
