//! The scalar register store that rank-space lanes replaced, kept as a
//! test oracle.
//!
//! [`Scalar`] holds registers as bit-packed words in a [`BitPacked`] and
//! runs every kernel bucket by bucket with per-bucket `get`/`set` and the
//! paper-style rank compare — the implementation `HyperMinHash` had before
//! its registers moved to rank-space lanes. The differential sweep below
//! requires the lane kernels to agree with it exactly: the same `HMH1`
//! bytes after inserts, merges and `reduce_r`, the same Jaccard counts,
//! and the same bits of every floating-point estimate.
//!
//! [`approx_expected_collisions`] likewise keeps Algorithm 6 as it was
//! before its small-cardinality branch became a dot product of per-side
//! profiles, for a bit-exact differential against the profiled form.

use crate::cardinality::CardinalityEstimator;
use crate::collisions::approx::ASYMPTOTIC_COLLISION_CONSTANT;
use crate::collisions::expected_collisions;
use crate::error::HmhError;
use crate::format::{algorithm_to_byte, MAGIC, VERSION};
use crate::jaccard::CollisionCorrection;
use crate::params::HmhParams;
use crate::registers::{pack, unpack, Word};
use hmh_hash::xxhash::xxh64;
use hmh_hash::{HashableItem, RandomOracle};
use hmh_hll::estimators::estimate as hll_estimate;
use hmh_hll::registers::BitPacked;
use hmh_math::logspace::pow1m;
use hmh_math::KahanSum;

/// The paper-style monotone rank, `(word | mask) − (word & mask)`.
pub(crate) fn rank(params: HmhParams, word: Word) -> u32 {
    let mask = (params.mantissa_values() - 1) as u32;
    (word | mask) - (word & mask)
}

/// Whether `candidate` survives a union against `incumbent`.
fn beats(params: HmhParams, candidate: Word, incumbent: Word) -> bool {
    rank(params, candidate) > rank(params, incumbent)
}

/// Algorithm 6 with its small-cardinality branch summed box by box in
/// one loop over both sides.
pub(crate) fn approx_expected_collisions(
    params: HmhParams,
    n: f64,
    m: f64,
) -> Result<f64, HmhError> {
    let (n, m) = if n >= m { (n, m) } else { (m, n) };
    if n <= 0.0 || m <= 0.0 {
        return Ok(0.0);
    }
    let limit = 2f64.powi((params.cap() - 1 + params.p()) as i32);
    if n > limit {
        return Err(HmhError::CardinalityTooLarge { n, limit });
    }
    let r_scale = 2f64.powi(-(params.r() as i32));
    if n > 2f64.powi(params.p() as i32 + 5) {
        let ratio = n / m;
        let phi = 4.0 * ratio / ((1.0 + ratio) * (1.0 + ratio));
        return Ok(ASYMPTOTIC_COLLISION_CONSTANT * 2f64.powi(params.p() as i32) * r_scale * phi);
    }
    // The log-space kernel as one expression.
    let pow1m_diff = |b1: f64, b2: f64, n: f64| {
        if b1 == b2 || n == 0.0 {
            return 0.0;
        }
        if b2 >= 1.0 {
            return pow1m(b1, n);
        }
        let ratio = (b2 - b1) / (1.0 - b1);
        pow1m(b1, n) * (-(n * (-ratio).ln_1p()).exp_m1())
    };
    let (p, cap) = (params.p(), params.cap());
    let mut total = KahanSum::new();
    for i in 1..=cap {
        let (b1, b2) = if i < cap {
            (2f64.powi(-((i + p) as i32)), 2f64.powi(-((i + p) as i32 - 1)))
        } else {
            (0.0, 2f64.powi(-((cap + p) as i32 - 1)))
        };
        total.add(pow1m_diff(b1, b2, n) * pow1m_diff(b1, b2, m));
    }
    Ok(total.total() * 2f64.powi(p as i32) * r_scale)
}

/// Jaccard result fields, floats as bits.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct JaccardBits {
    pub matching: usize,
    pub occupied: usize,
    pub estimate: u64,
    pub raw: u64,
    pub expected_collisions: u64,
}

/// A HyperMinHash over packed words, one bounds-checked access per bucket.
#[derive(Debug, Clone)]
pub(crate) struct Scalar {
    params: HmhParams,
    oracle: RandomOracle,
    words: BitPacked,
}

impl Scalar {
    pub fn new(params: HmhParams, oracle: RandomOracle) -> Self {
        Self { params, oracle, words: BitPacked::new(params.word_bits(), params.num_buckets()) }
    }

    pub fn observe(&mut self, bucket: usize, counter: u32, mantissa: u32) {
        let candidate = pack(self.params, counter, mantissa);
        if beats(self.params, candidate, self.words.get(bucket)) {
            self.words.set(bucket, candidate);
        }
    }

    pub fn insert_batch<T: HashableItem>(&mut self, items: &[T]) {
        let (p, cap, r) = (self.params.p(), self.params.cap(), self.params.r());
        for item in items {
            let digest = self.oracle.digest(item);
            let bucket = digest.take_bits(0, p) as usize;
            let (counter, mantissa) = digest.rho_sigma(p, cap, r);
            self.observe(bucket, counter, mantissa as u32);
        }
    }

    pub fn merge(&mut self, other: &Self) {
        for bucket in 0..self.params.num_buckets() {
            let candidate = other.words.get(bucket);
            if beats(self.params, candidate, self.words.get(bucket)) {
                self.words.set(bucket, candidate);
            }
        }
    }

    fn register(&self, bucket: usize) -> Option<(u32, u32)> {
        let w = self.words.get(bucket);
        (w != 0).then(|| unpack(self.params, w))
    }

    pub fn occupied(&self) -> usize {
        self.words.iter().filter(|&w| w != 0).count()
    }

    pub fn counter_histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; self.params.cap() as usize + 1];
        for w in self.words.iter() {
            hist[(w >> self.params.r()) as usize] += 1;
        }
        hist
    }

    pub fn cardinality(&self, estimator: CardinalityEstimator) -> f64 {
        let head = hll_estimate(&self.counter_histogram(), estimator.hll_estimator);
        let threshold = estimator.tail_threshold_factor * self.params.num_buckets() as f64;
        if head < threshold {
            head
        } else {
            self.tail_estimate()
        }
    }

    pub fn tail_estimate(&self) -> f64 {
        let m = self.params.num_buckets() as f64;
        let mut sum = KahanSum::new();
        for bucket in 0..self.params.num_buckets() {
            sum.add(self.reconstruct_min(self.register(bucket)));
        }
        let total = sum.total();
        if total == 0.0 {
            f64::INFINITY
        } else {
            m * m / total
        }
    }

    fn reconstruct_min(&self, register: Option<(u32, u32)>) -> f64 {
        let Some((counter, mantissa)) = register else {
            return 1.0;
        };
        let r_values = self.params.mantissa_values() as f64;
        if counter < self.params.cap() {
            2f64.powi(-(counter as i32)) * (1.0 + (f64::from(mantissa) + 0.5) / r_values)
        } else {
            2f64.powi(-(self.params.cap() as i32 - 1)) * (f64::from(mantissa) + 0.5) / r_values
        }
    }

    pub fn jaccard(&self, other: &Self, correction: CollisionCorrection) -> JaccardBits {
        let mut matching = 0usize;
        let mut occupied = 0usize;
        for bucket in 0..self.params.num_buckets() {
            let (wa, wb) = (self.words.get(bucket), other.words.get(bucket));
            if wa != 0 || wb != 0 {
                occupied += 1;
                if wa == wb {
                    matching += 1;
                }
            }
        }
        let raw = if occupied == 0 { 0.0 } else { matching as f64 / occupied as f64 };
        let cardinalities = || {
            let estimator = CardinalityEstimator::default();
            (self.cardinality(estimator), other.cardinality(estimator))
        };
        let ec = match correction {
            CollisionCorrection::None => 0.0,
            CollisionCorrection::Approx => {
                let (n, m) = cardinalities();
                approx_expected_collisions(self.params, n, m).unwrap_or(0.0)
            }
            CollisionCorrection::Exact => {
                let (n, m) = cardinalities();
                expected_collisions(self.params, n, m)
            }
        };
        let estimate = if occupied == 0 {
            0.0
        } else {
            ((matching as f64 - ec) / occupied as f64).clamp(0.0, 1.0)
        };
        JaccardBits {
            matching,
            occupied,
            estimate: estimate.to_bits(),
            raw: raw.to_bits(),
            expected_collisions: ec.to_bits(),
        }
    }

    pub fn jaccard_many(sketches: &[&Self]) -> f64 {
        let (first, rest) = sketches.split_first().expect("invariant: callers pass ≥ 2 sketches");
        let mut matching = 0usize;
        let mut occupied = 0usize;
        for bucket in 0..first.params.num_buckets() {
            let w0 = first.words.get(bucket);
            let mut any = w0 != 0;
            let mut all_match = true;
            for s in rest {
                let w = s.words.get(bucket);
                any |= w != 0;
                all_match &= w == w0;
            }
            if any {
                occupied += 1;
                if all_match && w0 != 0 {
                    matching += 1;
                }
            }
        }
        if occupied == 0 {
            0.0
        } else {
            matching as f64 / occupied as f64
        }
    }

    pub fn reduce_r(&self, new_r: u32) -> Self {
        let params = HmhParams::new(self.params.p(), self.params.q(), new_r)
            .expect("invariant: callers narrow r within a valid shape");
        let shift = self.params.r() - new_r;
        let mut out = Self::new(params, self.oracle);
        for bucket in 0..self.params.num_buckets() {
            if let Some((counter, mantissa)) = self.register(bucket) {
                out.observe(bucket, counter, mantissa >> shift);
            }
        }
        out
    }

    /// The `HMH1` encoding, straight from the packed words.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(VERSION);
        out.extend([self.params.p(), self.params.q(), self.params.r()].map(|x| x as u8));
        out.push(algorithm_to_byte(self.oracle.algorithm()));
        out.extend_from_slice(&self.oracle.seed().to_le_bytes());
        for w in self.words.raw_words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        let digest = xxh64(&out, 0);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::tail_estimate;
    use crate::format::encode;
    use crate::intersect::jaccard_many;
    use crate::jaccard::jaccard;
    use crate::registers;
    use crate::sketch::HyperMinHash;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rank_is_mantissa_xor_for_every_word_up_to_16_bits() {
        for q in 1..=6u32 {
            for r in 1..=(16 - q) {
                let params = HmhParams::new(0, q, r).expect("q + r ≤ 16 is valid");
                let mask = (1u32 << r) - 1;
                for word in 0..(1u32 << (q + r)) {
                    assert_eq!(rank(params, word), word ^ mask, "({q},{r}) word {word:#x}");
                    assert_eq!(registers::rank(params, word), word ^ mask);
                }
            }
        }
    }

    /// The profiled Algorithm 6 must reproduce the one-loop form bit for
    /// bit on every branch: zero, small-cardinality, plateau and
    /// cardinality-too-large.
    #[test]
    fn profiled_algorithm6_matches_the_one_loop_form() {
        use crate::collisions::{
            approx_expected_collisions as profiled, approx_expected_collisions_of, CollisionProfile,
        };
        let mut rng = StdRng::seed_from_u64(0xa1_6006);
        // [zero, small, plateau, too large] outcomes seen.
        let mut seen = [0usize; 4];
        for _ in 0..4_000 {
            let q = rng.gen_range(1..=6u32);
            let r = rng.gen_range(1..=(32 - q).min(24));
            let params = HmhParams::new(rng.gen_range(0..=24), q, r).expect("valid grid shape");
            let top = f64::from(params.p() + params.cap() + 2);
            let draw = |rng: &mut StdRng| match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => rng.gen_range(0.0..1.0),
                _ => 2f64.powf(rng.gen_range(0.0..top)),
            };
            let (n, m) = (draw(&mut rng), draw(&mut rng));
            let want = approx_expected_collisions(params, n, m);
            let got = profiled(params, n, m);
            let (pn, pm) = (CollisionProfile::new(params, n), CollisionProfile::new(params, m));
            let what = format!("{params:?} n={n} m={m}");
            match (&want, &got) {
                (Ok(w), Ok(g)) => assert_eq!(w.to_bits(), g.to_bits(), "{what}"),
                _ => assert_eq!(want, got, "{what}"),
            }
            let of = approx_expected_collisions_of(params, &pn, &pm);
            assert_eq!(got.map(f64::to_bits), of.map(f64::to_bits), "{what}: profiles");
            let big = n.max(m);
            seen[match want {
                Err(_) => 3,
                Ok(_) if n.min(m) <= 0.0 => 0,
                Ok(_) if big > 2f64.powi(params.p() as i32 + 5) => 2,
                Ok(_) => 1,
            }] += 1;
        }
        assert!(seen.iter().all(|&k| k > 100), "every branch exercised: {seen:?}");
    }

    /// One sketch in both representations, fed identical observations.
    struct Pair {
        lanes: HyperMinHash,
        scalar: Scalar,
    }

    impl Pair {
        fn new(params: HmhParams, oracle: RandomOracle) -> Self {
            Self {
                lanes: HyperMinHash::with_oracle(params, oracle),
                scalar: Scalar::new(params, oracle),
            }
        }

        fn observe(&mut self, bucket: usize, register: Option<(u32, u32)>) {
            if let Some((counter, mantissa)) = register {
                self.lanes.observe(bucket, counter, mantissa);
                self.scalar.observe(bucket, counter, mantissa);
            }
        }

        fn assert_same(&self, what: &str) {
            assert_eq!(encode(&self.lanes), self.scalar.encode(), "{what}: HMH1 bytes");
        }
    }

    /// A random register at load `level`: empty with probability
    /// `empty`, else a counter near `level` and a uniform mantissa.
    fn register(rng: &mut StdRng, params: HmhParams, level: u32, empty: f64) -> Option<(u32, u32)> {
        if rng.gen_bool(empty) {
            return None;
        }
        let mut counter = level.max(1);
        while counter < params.cap() && rng.gen_bool(0.5) {
            counter += 1;
        }
        let mantissa = rng.gen_range(0..params.mantissa_values()) as u32;
        Some((counter, mantissa))
    }

    /// Three related sketches: `b` and `c` copy `a`'s register in a
    /// random share of buckets and draw their own elsewhere.
    fn triple(rng: &mut StdRng, params: HmhParams, oracle: RandomOracle) -> [Pair; 3] {
        let mut sketches = [(); 3].map(|_| Pair::new(params, oracle));
        let level = rng.gen_range(0..=params.cap());
        let empty = [0.0, 0.1, 0.5, 0.95][rng.gen_range(0..4usize)];
        let share = [0.0, 0.3, 0.9, 1.0][rng.gen_range(0..4usize)];
        for bucket in 0..params.num_buckets() {
            let a = register(rng, params, level, empty);
            sketches[0].observe(bucket, a);
            for s in &mut sketches[1..] {
                let own = if rng.gen_bool(share) { a } else { register(rng, params, level, empty) };
                s.observe(bucket, own);
            }
        }
        sketches
    }

    fn assert_jaccard(a: &Pair, b: &Pair, correction: CollisionCorrection, what: &str) {
        let lanes = jaccard(&a.lanes, &b.lanes, correction).expect("compatible sketches");
        let got = JaccardBits {
            matching: lanes.matching,
            occupied: lanes.occupied,
            estimate: lanes.estimate.to_bits(),
            raw: lanes.raw.to_bits(),
            expected_collisions: lanes.expected_collisions.to_bits(),
        };
        assert_eq!(got, a.scalar.jaccard(&b.scalar, correction), "{what}: {correction:?}");
    }

    fn assert_estimates(s: &Pair, what: &str) {
        assert_eq!(s.lanes.counter_histogram(), s.scalar.counter_histogram(), "{what}: histogram");
        assert_eq!(s.lanes.occupied(), s.scalar.occupied(), "{what}: occupied");
        for estimator in [CardinalityEstimator::default(), CardinalityEstimator::pseudocode()] {
            assert_eq!(
                estimator.estimate(&s.lanes).to_bits(),
                s.scalar.cardinality(estimator).to_bits(),
                "{what}: cardinality {estimator:?}"
            );
        }
        assert_eq!(
            tail_estimate(&s.lanes).to_bits(),
            s.scalar.tail_estimate().to_bits(),
            "{what}: tail estimate"
        );
    }

    /// Every shape with `p ≤ 12`: the lane kernels must reproduce the
    /// scalar reference bit for bit.
    #[test]
    fn lanes_match_the_scalar_reference_on_every_shape() {
        let mut rng = StdRng::seed_from_u64(0x1a9e_5ca1);
        for p in 0..=12u32 {
            for q in 1..=6u32 {
                for r in 1..=24u32 {
                    let params = HmhParams::new(p, q, r).expect("every grid shape is valid");
                    let oracle = RandomOracle::with_seed(rng.gen());
                    let what = format!("({p},{q},{r})");
                    let [a, b, c] = triple(&mut rng, params, oracle);
                    for s in [&a, &b, &c] {
                        s.assert_same(&what);
                        assert_estimates(s, &what);
                    }

                    // Exact correction sums cap·2^r terms; it sees the
                    // lanes only through C, N and the two cardinalities,
                    // which every shape already compares.
                    let exact = u64::from(params.cap()) * params.mantissa_values() <= 1 << 12;
                    assert_jaccard(&a, &b, CollisionCorrection::None, &what);
                    assert_jaccard(&a, &c, CollisionCorrection::Approx, &what);
                    if exact {
                        assert_jaccard(&b, &c, CollisionCorrection::Exact, &what);
                    }
                    assert_eq!(
                        jaccard_many(&[&a.lanes, &b.lanes, &c.lanes])
                            .expect("compatible")
                            .to_bits(),
                        Scalar::jaccard_many(&[&a.scalar, &b.scalar, &c.scalar]).to_bits(),
                        "{what}: jaccard_many"
                    );

                    let mut union = Pair { lanes: a.lanes.clone(), scalar: a.scalar.clone() };
                    union.lanes.merge(&b.lanes).expect("compatible sketches");
                    union.scalar.merge(&b.scalar);
                    union.assert_same(&format!("{what} merge"));
                    assert_estimates(&union, &format!("{what} merge"));

                    let new_r = rng.gen_range(1..=r);
                    let reduced = Pair {
                        lanes: c.lanes.reduce_r(new_r).expect("narrowing is valid"),
                        scalar: c.scalar.reduce_r(new_r),
                    };
                    reduced.assert_same(&format!("{what} reduce_r({new_r})"));

                    let items: Vec<u64> = (0..params.num_buckets() as u64 + 17)
                        .map(|i| {
                            i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(p * 64 + q * 32 + r)
                        })
                        .collect();
                    let mut inserted = Pair::new(params, oracle);
                    inserted.lanes.insert_batch(&items);
                    inserted.scalar.insert_batch(&items);
                    inserted.assert_same(&format!("{what} insert_batch"));
                }
            }
        }
    }
}
