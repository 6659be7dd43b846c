//! Packed `(counter, mantissa)` register words and the rank-space lanes
//! that hold them in memory.
//!
//! Appendix A.1, optimization 1: "Pack the hashed tuple into a single word;
//! this enables Jaccard index computation while using only one comparison
//! per bucket." A register word is `counter << r | mantissa` in `q + r`
//! bits; the empty register is the all-zero word (an occupied register has
//! `counter ≥ 1`, so its word is ≥ `2^r` and never collides with empty).
//!
//! Appendix A.1, optimization 2 ("use the max instead of min of the
//! subbuckets") is realized by [`rank`]: a monotone re-encoding under which
//! the *better* register (larger ρ, then smaller mantissa) is the *larger*
//! value. The re-encoding is `word ^ mantissa_mask`, an involution, so a
//! sketch keeps its registers in rank space (as `Lanes`) and every kernel
//! — union, Jaccard counts, the counter histogram — is one pass over a
//! plain `u16`/`u32` slice. The bit-packed `HMH1` form exists only on the
//! wire and on disk ([`crate::format`]).

use crate::params::HmhParams;

/// A packed register word (`q + r` significant bits, 0 = empty).
pub type Word = u32;

/// Pack `(counter, mantissa)` into a word.
#[inline]
pub fn pack(params: HmhParams, counter: u32, mantissa: u32) -> Word {
    debug_assert!(counter <= params.cap(), "counter {counter} > cap");
    debug_assert!(
        u64::from(mantissa) < params.mantissa_values(),
        "mantissa {mantissa} out of range"
    );
    (counter << params.r()) | mantissa
}

/// Unpack a word into `(counter, mantissa)`.
#[inline]
pub fn unpack(params: HmhParams, word: Word) -> (u32, u32) {
    (word >> params.r(), word & mantissa_mask(params))
}

/// The mantissa bits of a word, `2^r − 1`. Also the rank of the empty
/// register.
#[inline]
pub fn mantissa_mask(params: HmhParams) -> u32 {
    (params.mantissa_values() - 1) as u32
}

/// Monotone rank: `rank(a) > rank(b)` iff register `a` encodes a *smaller*
/// minimum hash than `b` (larger counter wins; ties broken by smaller
/// mantissa). The empty word ranks below every occupied word.
///
/// Flipping the mantissa bits makes a smaller mantissa the larger rank
/// within a counter class, and the empty word `(0, 0)` becomes
/// `mask < 2^r ≤` any occupied rank. (This equals the paper-style
/// `(word | mask) − (word & mask)`: the subtraction never borrows.) The
/// map is its own inverse, so `rank(params, rank(params, w)) == w`.
#[inline]
pub fn rank(params: HmhParams, word: Word) -> u32 {
    word ^ mantissa_mask(params)
}

/// Which of two register words represents the smaller minimum (i.e. should
/// survive a union). Returns `true` when `candidate` beats `incumbent`.
#[inline]
pub fn beats(params: HmhParams, candidate: Word, incumbent: Word) -> bool {
    rank(params, candidate) > rank(params, incumbent)
}

/// One rank-space register: `u16` when `q + r ≤ 16`, else `u32`.
pub(crate) trait Lane:
    Copy + Ord + Default + Into<u32> + std::ops::Add<Output = Self>
{
    /// The largest lane value.
    const MAX: Self;

    /// The lane holding `rank`, which fits the lane by the width choice
    /// in [`Lanes::empty`].
    fn from_rank(rank: u32) -> Self;

    /// The lanes as a slice of `Self`, if that is their width.
    fn slice(lanes: &Lanes) -> Option<&[Self]>;
}

impl Lane for u16 {
    const MAX: Self = u16::MAX;

    #[inline]
    fn from_rank(rank: u32) -> Self {
        debug_assert!(rank <= 0xffff, "rank {rank} overflows a u16 lane");
        (rank & 0xffff) as u16
    }

    fn slice(lanes: &Lanes) -> Option<&[Self]> {
        match lanes {
            Lanes::U16(v) => Some(v),
            Lanes::U32(_) => None,
        }
    }
}

impl Lane for u32 {
    const MAX: Self = u32::MAX;

    #[inline]
    fn from_rank(rank: u32) -> Self {
        rank
    }

    fn slice(lanes: &Lanes) -> Option<&[Self]> {
        match lanes {
            Lanes::U32(v) => Some(v),
            Lanes::U16(_) => None,
        }
    }
}

/// A sketch's registers in rank space, one lane per bucket in bucket
/// order. Invariant: every lane lies in `[mask, 2^(q+r))`, the first value
/// being the empty register; a smaller lane would be counter 0 with a
/// nonzero mantissa, which no insert produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Lanes {
    /// `q + r ≤ 16`.
    U16(Vec<u16>),
    /// `q + r > 16`.
    U32(Vec<u32>),
}

/// Apply one generic lane kernel to whichever width `$lanes` holds.
macro_rules! with_lanes {
    ($lanes:expr, |$v:ident| $body:expr) => {
        match $lanes {
            $crate::registers::Lanes::U16($v) => $body,
            $crate::registers::Lanes::U32($v) => $body,
        }
    };
}
pub(crate) use with_lanes;

impl Lanes {
    /// All buckets empty, at the lane width `params` calls for.
    pub(crate) fn empty(params: HmhParams) -> Self {
        let empty = mantissa_mask(params);
        Self::from_ranks(params, std::iter::repeat_n(empty, params.num_buckets()))
    }

    /// Lanes holding `ranks` in bucket order, at the lane width `params`
    /// calls for. The ranks must fit `q + r` bits.
    pub(crate) fn from_ranks(params: HmhParams, ranks: impl Iterator<Item = u32>) -> Self {
        if params.word_bits() <= 16 {
            Self::U16(ranks.map(u16::from_rank).collect())
        } else {
            Self::U32(ranks.collect())
        }
    }

    /// The rank held by `bucket`.
    ///
    /// # Panics
    /// If `bucket` is out of range.
    #[inline]
    pub(crate) fn get(&self, bucket: usize) -> u32 {
        with_lanes!(self, |v| rank_at(v, bucket))
    }

    /// Keep the larger of the held rank and `rank` (one register update).
    ///
    /// # Panics
    /// If `bucket` is out of range.
    #[inline]
    pub(crate) fn raise(&mut self, bucket: usize, rank: u32) {
        with_lanes!(self, |v| raise(v, bucket, rank))
    }

    /// Check the lanes against `params`: the width `params` calls for,
    /// one lane per bucket, and every lane inside `[mask, 2^(q+r))`.
    pub(crate) fn validate(&self, params: HmhParams) -> Result<(), String> {
        let wide = params.word_bits() > 16;
        if wide != matches!(self, Self::U32(_)) {
            return Err(format!("lane width does not match q + r = {}", params.word_bits()));
        }
        let len = with_lanes!(self, |v| v.len());
        if len != params.num_buckets() {
            return Err(format!("expected {} registers, got {len}", params.num_buckets()));
        }
        let (lo, hi) = with_lanes!(self, |v| lane_range(v));
        check_range(params, lo, hi)
    }
}

/// Check the smallest and largest lane of a sketch against the values a
/// register can hold: no lane below the empty one (that would be counter 0
/// with a nonzero mantissa, which no insert produces) and none wider than
/// `q + r` bits.
pub(crate) fn check_range(params: HmhParams, lo: u32, hi: u32) -> Result<(), String> {
    if lo < mantissa_mask(params) {
        return Err("register with counter 0 and a nonzero mantissa".to_string());
    }
    if u64::from(hi) >> params.word_bits() != 0 {
        return Err(format!("register wider than q + r = {} bits", params.word_bits()));
    }
    Ok(())
}

#[inline]
fn rank_at<L: Lane>(lanes: &[L], bucket: usize) -> u32 {
    lanes[bucket].into()
}

#[inline]
pub(crate) fn raise<L: Lane>(lanes: &mut [L], bucket: usize, rank: u32) {
    let slot = &mut lanes[bucket];
    *slot = (*slot).max(L::from_rank(rank));
}

/// `(min, max)` lane (`(u32::MAX, 0)` for no lanes), in one pass.
fn lane_range<L: Lane>(lanes: &[L]) -> (u32, u32) {
    let (lo, hi) = lanes.iter().fold((L::MAX, L::default()), |(lo, hi), &l| (lo.min(l), hi.max(l)));
    (lo.into(), hi.into())
}

/// Union: `dst[i] = max(dst[i], src[i])`.
pub(crate) fn max_into<L: Lane>(dst: &mut [L], src: &[L]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d).max(s);
    }
}

/// Counts of lanes in one block never overflow a `u16` lane counter.
const COUNT_BLOCK: usize = 1 << 15;

/// Buckets above `empty` (occupied).
pub(crate) fn count_occupied<L: Lane>(lanes: &[L], empty: L) -> usize {
    lanes
        .chunks(COUNT_BLOCK)
        .map(|block| {
            let n = block.iter().fold(L::default(), |n, &l| n + L::from_rank(u32::from(l > empty)));
            n.into() as usize
        })
        .sum()
}

/// Algorithm 4's counts for two sketches: `(C, N)`, the buckets where both
/// registers are equal and occupied, and the buckets occupied in either.
/// Counting in lane-width accumulators per block keeps the pass in the
/// lanes' own vector width.
pub(crate) fn match_counts<L: Lane>(a: &[L], b: &[L], empty: L) -> (usize, usize) {
    let (mut matching, mut occupied) = (0usize, 0usize);
    for (a, b) in a.chunks(COUNT_BLOCK).zip(b.chunks(COUNT_BLOCK)) {
        let (mut c, mut n) = (L::default(), L::default());
        for (&x, &y) in a.iter().zip(b) {
            c = c + L::from_rank(u32::from((x == y) & (x > empty)));
            n = n + L::from_rank(u32::from(x.max(y) > empty));
        }
        matching += c.into() as usize;
        occupied += n.into() as usize;
    }
    (matching, occupied)
}

/// Histogram of the LogLog counters, `bins = cap + 1` entries. The counter
/// of a lane is `lane >> r`: the rank flip only touches mantissa bits.
/// Four interleaved sub-histograms keep a run of equal counters (most
/// buckets share a few) from serializing on one bin's increment.
pub(crate) fn counter_histogram<L: Lane>(lanes: &[L], r: u32, bins: usize) -> Vec<u64> {
    const BINS: usize = 64;
    debug_assert!(bins <= BINS, "cap + 1 = {bins} exceeds {BINS} bins");
    let bin = |l: L| (Into::<u32>::into(l) >> r) as usize & (BINS - 1);
    let mut sub = [[0u32; BINS]; 4];
    let mut quads = lanes.chunks_exact(4);
    for quad in &mut quads {
        sub[0][bin(quad[0])] += 1;
        sub[1][bin(quad[1])] += 1;
        sub[2][bin(quad[2])] += 1;
        sub[3][bin(quad[3])] += 1;
    }
    for &l in quads.remainder() {
        sub[0][bin(l)] += 1;
    }
    (0..bins).map(|i| sub.iter().map(|s| u64::from(s[i])).sum()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HmhParams {
        HmhParams::new(8, 4, 6).unwrap()
    }

    #[test]
    fn pack_unpack_round_trip() {
        let p = params();
        for counter in 0..=p.cap() {
            for mantissa in [0u32, 1, 31, 63] {
                let w = pack(p, counter, mantissa);
                assert_eq!(unpack(p, w), (counter, mantissa));
            }
        }
    }

    #[test]
    fn empty_word_is_zero() {
        let p = params();
        assert_eq!(pack(p, 0, 0), 0);
        assert_eq!(unpack(p, 0), (0, 0));
    }

    #[test]
    fn occupied_words_are_nonzero() {
        let p = params();
        assert!(pack(p, 1, 0) > 0);
    }

    #[test]
    fn rank_orders_by_counter_then_inverse_mantissa() {
        let p = params();
        // Larger counter beats smaller.
        assert!(beats(p, pack(p, 5, 63), pack(p, 4, 0)));
        // Same counter: smaller mantissa beats larger.
        assert!(beats(p, pack(p, 5, 10), pack(p, 5, 11)));
        assert!(!beats(p, pack(p, 5, 11), pack(p, 5, 10)));
        // Equal registers: no strict beat.
        assert!(!beats(p, pack(p, 5, 10), pack(p, 5, 10)));
    }

    #[test]
    fn everything_beats_empty() {
        let p = params();
        for counter in 1..=p.cap() {
            for mantissa in [0u32, 63] {
                assert!(beats(p, pack(p, counter, mantissa), 0));
                assert!(!beats(p, 0, pack(p, counter, mantissa)));
            }
        }
        assert!(!beats(p, 0, 0));
    }

    #[test]
    fn rank_agrees_with_true_value_order() {
        // The register encodes the interval [s1, s2) of the underlying
        // minimum (Lemma 4); rank order must equal descending s1 order.
        let p = params();
        let s1 = |counter: u32, mantissa: u32| -> f64 {
            let r = p.r() as i32;
            let cap = p.cap();
            if counter < cap {
                (p.mantissa_values() as f64 + f64::from(mantissa))
                    / 2f64.powi(r + counter as i32)
            } else {
                f64::from(mantissa) / 2f64.powi(r + cap as i32 - 1)
            }
        };
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for c in 1..=p.cap() {
            for m in [0u32, 1, 17, 63] {
                entries.push((c, m));
            }
        }
        for &(c1, m1) in &entries {
            for &(c2, m2) in &entries {
                let by_rank = rank(p, pack(p, c1, m1)).cmp(&rank(p, pack(p, c2, m2)));
                let by_value = s1(c2, m2)
                    .partial_cmp(&s1(c1, m1))
                    .expect("finite");
                assert_eq!(by_rank, by_value, "({c1},{m1}) vs ({c2},{m2})");
            }
        }
    }
}
