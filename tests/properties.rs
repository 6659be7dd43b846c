//! Property-based tests on the core invariants the paper's algebra
//! depends on.
//!
//! Formerly driven by `proptest`; now a deterministic seeded harness (the
//! build environment vendors its dependencies, and a fixed-seed sweep
//! makes failures exactly reproducible without a shrinker). Each property
//! runs against `CASES` independently generated inputs.

use hyperminhash::hashing::bits::Digest128;
use hyperminhash::math::{BigFloat, BigUint};
use hyperminhash::prelude::*;
use hyperminhash::sketch::format;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases per property (matches the old `ProptestConfig::with_cases(64)`).
const CASES: u64 = 64;

/// Deterministic input generator for one property case.
struct Gen {
    rng: StdRng,
}

impl Gen {
    fn new(property: u64, case: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(property.wrapping_mul(0x9e37_79b9) ^ case) }
    }

    /// Valid `HmhParams` over the old strategy's ranges:
    /// p ∈ [0,8], q ∈ [2,6], r ∈ [1,12].
    fn params(&mut self) -> HmhParams {
        let p = self.rng.gen_range(0u32..=8);
        let q = self.rng.gen_range(2u32..=6);
        let r = self.rng.gen_range(1u32..=12);
        HmhParams::new(p, q, r).expect("ranges are valid")
    }

    /// Any of the four oracle algorithms with an arbitrary seed.
    fn oracle(&mut self) -> RandomOracle {
        const ALGORITHMS: [HashAlgorithm; 4] = [
            HashAlgorithm::Murmur3,
            HashAlgorithm::Sha1,
            HashAlgorithm::XxPair,
            HashAlgorithm::SplitMix,
        ];
        let algorithm = ALGORITHMS[self.rng.gen_range(0usize..ALGORITHMS.len())];
        RandomOracle::new(algorithm, self.rng.gen())
    }

    /// Item vector of length 0..400 with arbitrary u64 items.
    fn items(&mut self) -> Vec<u64> {
        let len = self.rng.gen_range(0usize..400);
        (0..len).map(|_| self.rng.gen()).collect()
    }

    /// Identifier matching `[a-z][a-z0-9_]{0,8}` (the old regex strategy).
    fn ident(&mut self) -> String {
        const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
        const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        let mut s = String::new();
        s.push(FIRST[self.rng.gen_range(0usize..FIRST.len())] as char);
        let extra = self.rng.gen_range(0usize..=8);
        for _ in 0..extra {
            s.push(REST[self.rng.gen_range(0usize..REST.len())] as char);
        }
        s
    }
}

/// Run `body` for `CASES` deterministic cases of property `id`.
fn check(id: u64, mut body: impl FnMut(&mut Gen)) {
    for case in 0..CASES {
        let mut g = Gen::new(id, case);
        body(&mut g);
    }
}

/// Union is commutative, associative, idempotent, with empty identity —
/// the semilattice HyperMinHash needs for CNF clause evaluation.
#[test]
fn union_semilattice() {
    check(1, |g| {
        let params = g.params();
        let a = HyperMinHash::from_items(params, g.items());
        let b = HyperMinHash::from_items(params, g.items());
        let c = HyperMinHash::from_items(params, g.items());
        assert_eq!(a.union(&b).unwrap(), b.union(&a).unwrap());
        assert_eq!(
            a.union(&b).unwrap().union(&c).unwrap(),
            a.union(&b.union(&c).unwrap()).unwrap()
        );
        assert_eq!(a.union(&a).unwrap(), a.clone());
        assert_eq!(a.union(&HyperMinHash::new(params)).unwrap(), a);
    });
}

/// The sketch is a pure set function: order and duplicates never matter.
#[test]
fn sketch_is_order_and_multiplicity_invariant() {
    check(2, |g| {
        let params = g.params();
        let mut xs = g.items();
        let forward = HyperMinHash::from_items(params, xs.clone());
        xs.reverse();
        let mut with_dups = xs.clone();
        with_dups.extend(xs.iter().copied());
        let backward_dups = HyperMinHash::from_items(params, with_dups);
        assert_eq!(forward, backward_dups);
    });
}

/// Union of sketches equals the sketch of the union of the item sets.
#[test]
fn union_homomorphism() {
    check(3, |g| {
        let params = g.params();
        let xs = g.items();
        let ys = g.items();
        let a = HyperMinHash::from_items(params, xs.clone());
        let b = HyperMinHash::from_items(params, ys.clone());
        let mut all = xs;
        all.extend(ys);
        let direct = HyperMinHash::from_items(params, all);
        assert_eq!(a.union(&b).unwrap(), direct);
    });
}

/// Jaccard of a sketch with itself is 1 (when non-empty) and always
/// within [0, 1].
#[test]
fn jaccard_range_and_identity() {
    check(4, |g| {
        let params = g.params();
        let xs = g.items();
        let a = HyperMinHash::from_items(params, xs.clone());
        let j = a.jaccard(&a.clone()).unwrap();
        assert!((0.0..=1.0).contains(&j.estimate));
        if !xs.is_empty() {
            assert_eq!(j.raw, 1.0);
        }
    });
}

/// Registers are exactly monotone under union: a union never loses a
/// register, and each register only moves up the (counter, minimum)
/// lexicographic order.
#[test]
fn union_registers_monotone() {
    check(5, |g| {
        let params = g.params();
        let a = HyperMinHash::from_items(params, g.items());
        let b = HyperMinHash::from_items(params, g.items());
        let u = a.union(&b).unwrap();
        for bucket in 0..params.num_buckets() {
            match (a.register(bucket), u.register(bucket)) {
                (Some((ca, ma)), Some((cu, mu))) => {
                    assert!(cu > ca || (cu == ca && mu <= ma));
                }
                (Some(_), None) => panic!("union lost a register"),
                _ => {}
            }
        }
    });
}

/// `HMH1` round-trips are the identity, for every oracle algorithm and
/// seed: decode(encode(s)) == s and the bytes re-encode unchanged.
#[test]
fn format_identity() {
    check(6, |g| {
        let mut a = HyperMinHash::with_oracle(g.params(), g.oracle());
        a.extend(g.items());
        let bytes = format::encode(&a);
        let back = format::decode(&bytes).unwrap();
        assert_eq!(back.oracle(), a.oracle());
        assert_eq!(back, a);
        assert_eq!(format::encode(&back), bytes);
    });
}

/// Digest bit-field extraction is consistent: take_bits of adjacent
/// fields concatenate to take_bits of the whole span.
#[test]
fn digest_bitfields_concatenate() {
    check(7, |g| {
        let d = Digest128::new(g.rng.gen(), g.rng.gen());
        let start = g.rng.gen_range(0u32..100);
        let a = g.rng.gen_range(1u32..20);
        let b = g.rng.gen_range(1u32..20);
        let whole = d.take_bits(start, a + b);
        let left = d.take_bits(start, a);
        let right = d.take_bits(start + a, b);
        assert_eq!(whole, (left << b) | right);
    });
}

/// BigUint arithmetic agrees with u128 where both apply.
#[test]
fn biguint_matches_u128() {
    check(8, |g| {
        let (x, y): (u64, u64) = (g.rng.gen(), g.rng.gen());
        let (bx, by) = (BigUint::from_u64(x), BigUint::from_u64(y));
        assert_eq!(bx.add(&by), BigUint::from_u128(u128::from(x) + u128::from(y)));
        assert_eq!(bx.mul(&by), BigUint::from_u128(u128::from(x) * u128::from(y)));
        let (big, small) = if x >= y { (x, y) } else { (y, x) };
        assert_eq!(
            BigUint::from_u64(big).sub(&BigUint::from_u64(small)),
            BigUint::from_u64(big - small)
        );
        assert_eq!(bx.shl(13).shr(13), bx);
    });
}

/// BigFloat add/mul agree with f64 on exactly-representable inputs.
#[test]
fn bigfloat_matches_f64() {
    check(9, |g| {
        // Quantize to dyadics so f64 arithmetic is exact.
        let a = (g.rng.gen_range(-1e6f64..1e6) * 1024.0).round() / 1024.0;
        let b = (g.rng.gen_range(-1e6f64..1e6) * 1024.0).round() / 1024.0;
        let (ba, bb) = (BigFloat::from_f64(a), BigFloat::from_f64(b));
        assert_eq!(ba.add(&bb).to_f64(), a + b);
        assert_eq!(ba.sub(&bb).to_f64(), a - b);
        assert_eq!(ba.mul(&bb).to_f64(), a * b);
    });
}

/// CNF parser round-trips through Display.
#[test]
fn cnf_parser_roundtrip() {
    check(10, |g| {
        let num_clauses = g.rng.gen_range(1usize..4);
        let clauses: Vec<Vec<String>> = (0..num_clauses)
            .map(|_| {
                let len = g.rng.gen_range(1usize..4);
                (0..len).map(|_| g.ident()).collect()
            })
            .collect();
        let query = hyperminhash::cnf::CnfQuery::new(clauses).unwrap();
        let reparsed = hyperminhash::cnf::parse(&query.to_string()).unwrap();
        assert_eq!(query, reparsed);
    });
}

/// reduce_r is exactly direct construction at the smaller r, on
/// arbitrary item sets (the Lemma-4 prefix-order argument).
#[test]
fn reduce_r_exactness() {
    check(11, |g| {
        let xs = g.items();
        let new_r = g.rng.gen_range(1u32..10);
        let wide = HmhParams::new(5, 4, 10).unwrap();
        let narrow = HmhParams::new(5, 4, new_r).unwrap();
        let sketch = HyperMinHash::from_items(wide, xs.clone());
        let direct = HyperMinHash::from_items(narrow, xs);
        assert_eq!(sketch.reduce_r(new_r).unwrap(), direct);
    });
}

/// k-partition MinHash shares the same set-function and union laws.
#[test]
fn kpartition_set_function() {
    check(12, |g| {
        let xs = g.items();
        let ys = g.items();
        let oracle = RandomOracle::default();
        let build = |items: &[u64]| {
            let mut s = KPartitionMinHash::new(6, 12, oracle);
            for &x in items {
                s.insert(&x);
            }
            s
        };
        let a = build(&xs);
        let b = build(&ys);
        let mut all = xs.clone();
        all.extend(ys.iter().copied());
        assert_eq!(a.union(&b).unwrap(), build(&all));
    });
}
