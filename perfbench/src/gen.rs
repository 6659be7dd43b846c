//! Seeded inputs. Everything the service receives is made here from the
//! workload seed: sketch names, 16-byte item values, and the encoded
//! sketches built from them. The same seed gives the same bytes.

use hmh_core::{format, HmhParams, HyperMinHash};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_261_017;
/// Seed kept out of tuning, for re-checking a claim made on the default.
pub const HELD_OUT_SEED: u64 = 7_300_411;

/// Items added to a name by one PUT or MERGE on the p=10 workloads.
pub const CHUNK_ITEMS: u64 = 24;
/// Items in one BATCH_PUT.
pub const BATCH_ITEMS: u64 = 256;
/// Items in one pooled MERGE delta on `similarity-p15`.
pub const DELTA_ITEMS: u64 = 2_000;

// Disjoint item-id ranges, so preload, deltas, chunks and batches never
// share an item by accident.
const DELTA_BASE: u64 = 1 << 40;
const CHUNK_BASE: u64 = 2 << 40;
const BATCH_BASE: u64 = 3 << 40;

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finaliser.
pub fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small seeded generator (SplitMix64), one stream per use.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The 16 bytes of item `id`.
pub fn item(seed: u64, id: u64) -> [u8; 16] {
    let a = mix(seed ^ id);
    let b = mix(a ^ id.rotate_left(29));
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&a.to_le_bytes());
    out[8..].copy_from_slice(&b.to_le_bytes());
    out
}

fn items(seed: u64, first: u64, count: u64) -> Vec<[u8; 16]> {
    (first..first + count).map(|id| item(seed, id)).collect()
}

/// Items of preloaded name `name`: a window of `per_name` ids that
/// overlaps each neighbour's window by half.
pub fn preload_items(seed: u64, name: usize, per_name: u64) -> Vec<[u8; 16]> {
    items(seed, name as u64 * (per_name / 2), per_name)
}

/// Items of pooled MERGE delta `d`.
pub fn delta_items(seed: u64, d: usize) -> Vec<[u8; 16]> {
    items(seed, DELTA_BASE + d as u64 * DELTA_ITEMS, DELTA_ITEMS)
}

/// Items the `k`-th write to name `name` adds.
pub fn chunk_items(seed: u64, name: usize, k: u32) -> Vec<[u8; 16]> {
    items(seed, CHUNK_BASE + ((name as u64) << 20) + u64::from(k) * CHUNK_ITEMS, CHUNK_ITEMS)
}

/// Items of the `seq`-th BATCH_PUT of stream `stream`, as the wire
/// carries them.
pub fn batch_items(seed: u64, stream: u64, seq: u32) -> Vec<Vec<u8>> {
    items(seed, BATCH_BASE + (stream << 32) + u64::from(seq) * BATCH_ITEMS, BATCH_ITEMS)
        .into_iter()
        .map(|i| i.to_vec())
        .collect()
}

/// A sketch of `items` with the shared default oracle.
pub fn sketch_of(params: HmhParams, items: &[[u8; 16]]) -> HyperMinHash {
    let mut sketch = HyperMinHash::new(params);
    sketch.insert_batch(items);
    sketch
}

/// Encoded sketch of `items`.
pub fn encoded(params: HmhParams, items: &[[u8; 16]]) -> Vec<u8> {
    format::encode(&sketch_of(params, items))
}
