//! Operational pipeline: the production features around the paper's
//! algorithms — the compact binary wire format for shipping, and lossless
//! precision downgrades for mixed-parameter fleets.
//!
//! ```sh
//! cargo run --release --example ops_pipeline
//! ```

use hyperminhash::prelude::*;
use hyperminhash::sketch::format;

fn main() {
    // 1. An edge node sketches a tenant (64 KiB of registers).
    let params = HmhParams::headline();
    let tenant = HyperMinHash::from_items(params, 0..200_000u64);

    // 2. Ship the sketch over the wire with framing + checksum.
    let wire = format::encode(&tenant);
    println!(
        "wire format: {} bytes ({} header/checksum overhead)",
        wire.len(),
        wire.len() - params.byte_size()
    );
    let restored = format::decode(&wire).expect("intact payload");
    assert_eq!(restored, tenant);

    // Corruption is detected, not silently accepted.
    let mut tampered = wire.clone();
    tampered[100] ^= 0x40;
    println!("tampered payload → {:?}", format::decode(&tampered).unwrap_err());

    // 3. A legacy fleet runs r = 6; downgrade losslessly and merge.
    let legacy_params = HmhParams::new(15, 6, 6).expect("valid parameters");
    let mut legacy = HyperMinHash::new(legacy_params);
    for i in 150_000..350_000u64 {
        legacy.insert(&i);
    }
    let downgraded = restored.reduce_r(6).expect("r only shrinks");
    let merged = downgraded.union(&legacy).expect("same parameters now");
    println!(
        "\nmerged across precisions: estimate {:.0} (truth 350000)",
        merged.cardinality()
    );
}
