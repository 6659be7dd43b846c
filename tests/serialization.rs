//! `HMH1` round-trips through the facade: sketches survive binary transit
//! and keep full functionality (the shared-randomness deployment story —
//! sketch on one machine, merge on another).

use hyperminhash::prelude::*;
use hyperminhash::sketch::format;

fn round_trip(s: &HyperMinHash) -> HyperMinHash {
    format::decode(&format::encode(s)).expect("decode")
}

#[test]
fn hyperminhash_roundtrip_preserves_behaviour() {
    let params = HmhParams::new(10, 6, 10).unwrap();
    let a = HyperMinHash::from_items(params, 0..10_000u64);
    let b = HyperMinHash::from_items(params, 5_000..15_000u64);
    let a2 = round_trip(&a);
    assert_eq!(a, a2);
    // Restored sketches merge and estimate identically.
    assert_eq!(a.union(&b).unwrap(), a2.union(&b).unwrap());
    assert_eq!(
        a.jaccard(&b).unwrap().estimate,
        a2.jaccard(&b).unwrap().estimate
    );
    assert_eq!(a.cardinality(), a2.cardinality());
}

#[test]
fn params_and_oracle_roundtrip() {
    let p = HmhParams::headline();
    let o = RandomOracle::new(HashAlgorithm::Sha1, 77);
    let back = round_trip(&HyperMinHash::with_oracle(p, o));
    assert_eq!(back.params(), p);
    assert_eq!(back.oracle(), o);
}

#[test]
fn cross_machine_merge_story() {
    // "Machine 1" sketches January, encodes; "machine 2" sketches
    // February, decodes January's sketch, merges, queries.
    let params = HmhParams::new(12, 6, 10).unwrap();
    let january = HyperMinHash::from_items(params, 0..40_000u64);
    let wire = format::encode(&january);

    let february = HyperMinHash::from_items(params, 20_000..60_000u64);
    let restored = format::decode(&wire).unwrap();
    let both = restored.union(&february).unwrap();
    let est = both.cardinality();
    assert!((est / 60_000.0 - 1.0).abs() < 0.05, "estimate {est}");
    let j = restored.jaccard(&february).unwrap().estimate;
    assert!((j - 1.0 / 3.0).abs() < 0.05, "jaccard {j}");
}

#[test]
fn tampered_payloads_fail_loudly() {
    // Garbage, truncation and a flipped register bit must error, not panic.
    assert!(format::decode(b"{\"params\": 12}").is_err());
    let wire = format::encode(&HyperMinHash::from_items(HmhParams::figure6(), 0..500u64));
    assert!(format::decode(&wire[..wire.len() - 1]).is_err());
    let mut flipped = wire.clone();
    flipped[40] ^= 0x08;
    assert!(format::decode(&flipped).is_err());
}
