//! Golden pins for the `HMH1` wire/disk bytes.
//!
//! Every stored sketch, WAL record and wire payload is `format::encode`
//! output, so its bytes must not move when the in-memory register layout
//! does. Each row pins the xxh64 of the encoding of one seeded sketch over
//! a grid of shapes: 8- and 16-bit aligned words, odd widths that straddle
//! `u64` boundaries, the one-bucket `p = 0` sketch, and the 30-bit widest
//! word. Each shape is pinned empty, half-filled (many empty buckets),
//! well-filled, and with hand-placed registers that reach the top counter
//! and mantissa bits no realistic stream reaches.

use hmh_core::{format, HmhParams, HyperMinHash};
use hmh_hash::xxhash::xxh64;
use hmh_hash::RandomOracle;

/// The shape grid `(p, q, r)`.
const SHAPES: [(u32, u32, u32); 7] =
    [(0, 1, 1), (3, 2, 3), (8, 4, 4), (10, 6, 10), (12, 5, 13), (15, 6, 10), (6, 6, 24)];

/// The fills of one shape, in the order [`GOLDEN`] lists them.
fn fills(params: HmhParams, seed: u64) -> [HyperMinHash; 4] {
    let m = params.num_buckets() as u64;
    let oracle = RandomOracle::with_seed(seed);
    let build = |n: u64| {
        let mut s = HyperMinHash::with_oracle(params, oracle);
        s.extend((0..n).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed));
        s
    };
    let mut crafted = HyperMinHash::with_oracle(params, oracle);
    let mantissa_mask = (params.mantissa_values() - 1) as u32;
    for bucket in 0..params.num_buckets() {
        let counter = (bucket as u32).wrapping_mul(7) % (params.cap() + 1);
        if counter > 0 {
            let mantissa = (bucket as u32).wrapping_mul(0x2545_f491) & mantissa_mask;
            crafted.observe(bucket, counter, mantissa);
        }
    }
    // Bucket 0 is left empty above, so this lands: the widest word.
    crafted.observe(0, params.cap(), mantissa_mask);
    [build(0), build(m / 2 + 1), build(8 * m + 7), crafted]
}

/// `(p, q, r)` → xxh64 (seed 0) of the encoding of each fill.
const GOLDEN: [((u32, u32, u32), [u64; 4]); 7] = [
    ((0, 1, 1), [0x4becc5c8803cb792, 0xa161dc9bce5afc94, 0xa161dc9bce5afc94, 0xde17441ea91100fa]),
    ((3, 2, 3), [0x101358af25f34944, 0x86667f9ff022f58c, 0x4c2378a6b224ddb8, 0xa3f3cfb50fc522be]),
    ((8, 4, 4), [0xf5020c73dd8b82bf, 0xed739ce320250beb, 0x74d6fd8aba554157, 0x12185b907ce2ace3]),
    ((10, 6, 10), [0x90c96c7c098e3bf9, 0x61a97b4960ef2584, 0x5c5209531f757f96, 0xb86eaf2d901597d7]),
    ((12, 5, 13), [0x1fb94bf540ab1fb4, 0x6b90adf595a4282e, 0x647138bde9eb1e61, 0x45a80016b63796e3]),
    ((15, 6, 10), [0x98fe13120895ac99, 0x76fc1e19cf71ae4b, 0x1eb5148c839f53f7, 0x235be74d637a1c43]),
    ((6, 6, 24), [0xb4c6c58de2add98c, 0x58a121ea3a6a4b35, 0x0f75f4c8a543c836, 0xa5c9d03ddd792f95]),
];

#[test]
fn hmh1_bytes_match_the_pinned_digests() {
    let mut actual = Vec::new();
    for (i, &(p, q, r)) in SHAPES.iter().enumerate() {
        let params = HmhParams::new(p, q, r).expect("grid shapes are valid");
        let digests = fills(params, 0x5eed_0000 + i as u64).map(|s| xxh64(&format::encode(&s), 0));
        actual.push(((p, q, r), digests));
    }
    assert_eq!(actual, GOLDEN, "HMH1 encoding changed; actual digests: {actual:#x?}");
}

#[test]
fn pinned_sketches_round_trip() {
    for (i, &(p, q, r)) in SHAPES.iter().enumerate() {
        let params = HmhParams::new(p, q, r).expect("grid shapes are valid");
        for s in fills(params, 0x5eed_0000 + i as u64) {
            let bytes = format::encode(&s);
            let back = format::decode(&bytes).expect("pristine bytes decode");
            assert_eq!(back, s, "shape ({p},{q},{r})");
            assert_eq!(format::encode(&back), bytes, "shape ({p},{q},{r})");
        }
    }
}
