//! Differential oracle for the store's memoized entries.
//!
//! A seeded schedule of writes, deletes, compactions, reopens, a scrub
//! repair and a quarantine release runs on `MemBackend` and on `FaultyIo`.
//! After every op, every stored entry is checked against a fresh
//! `format::decode` of its bytes: the memoized sketch must equal it, the
//! memoized cardinality must have the same bits as the recomputed one,
//! and the memoized collision profile must equal the recomputed profile.
//! The check itself reads every entry, so each following write lands on
//! names whose derived values are already cached: a cache that outlived
//! the bytes it was derived from fails here.

use std::path::Path;

use hmh_core::collisions::CollisionProfile;
use hmh_core::{format, HmhParams, HyperMinHash};
use hmh_hash::splitmix::SplitMix64;
use hmh_hash::RandomOracle;
use hmh_store::{
    Backend, Entry, FaultPlan, FaultyIo, MemBackend, SketchStore, StoreOptions, SCRUB_SLICE_BYTES,
    SNAPSHOT_FILE,
};

const DIR: &str = "/cache";
const NAMES: [&str; 5] = ["alpha", "bravo", "charlie", "delta", "echo"];

/// Every name's shape: both lane widths, and cardinalities on both sides
/// of Algorithm 6's branch point `2^{p+5}` (2,048 at `p = 6`).
fn params(name: &str) -> HmhParams {
    let (p, q, r) = if name.len().is_multiple_of(2) { (6, 6, 10) } else { (5, 4, 20) };
    HmhParams::new(p, q, r).expect("valid shape")
}

fn sketch(name: &str, rng: &mut SplitMix64) -> HyperMinHash {
    let start = rng.next_u64() % 100_000;
    let len = 1 + rng.next_u64() % 6_000;
    HyperMinHash::from_items(params(name), start..start + len)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The oracle: every entry equals decode-then-recompute of its bytes.
fn check<B: Backend>(store: &SketchStore<B>, what: &str) {
    for name in store.names() {
        let entry = store.entry(name).expect("listed names have entries");
        let fresh = format::decode(entry.bytes()).expect("stored bytes decode");
        assert_eq!(entry.sketch().expect("decodes"), &fresh, "{what}: {name} sketch");
        assert_eq!(
            entry.cardinality().expect("decodes").to_bits(),
            fresh.cardinality().to_bits(),
            "{what}: {name} cardinality"
        );
        let (got, want) = (entry.profile().expect("decodes"), CollisionProfile::of(&fresh));
        assert_eq!(got.cardinality().to_bits(), want.cardinality().to_bits(), "{what}: {name}");
        assert_eq!(bits(got.hll_factors()), bits(want.hll_factors()), "{what}: {name} profile");
        assert_eq!(store.get(name).expect("not fenced").as_ref(), Some(&fresh), "{what}: {name}");
    }
}

/// The daemon's MERGE: fold into a copy of the cached sketch, store it.
fn merge<B: Backend>(store: &mut SketchStore<B>, name: &str, delta: HyperMinHash) {
    let merged = match store.entry(name) {
        Some(entry) => {
            let mut merged = entry.sketch().expect("decodes").clone();
            merged.merge(&delta).expect("same shape per name");
            merged
        }
        None => delta,
    };
    let _ = store.put_entry(name, Entry::encode(merged));
}

/// The daemon's BATCH_PUT: raw items into a copy of the cached sketch.
fn batch_put<B: Backend>(store: &mut SketchStore<B>, name: &str, rng: &mut SplitMix64) {
    let mut sketch = match store.entry(name) {
        Some(entry) => entry.sketch().expect("decodes").clone(),
        None => HyperMinHash::with_oracle(params(name), RandomOracle::default()),
    };
    let items: Vec<[u8; 8]> = (0..64).map(|_| rng.next_u64().to_le_bytes()).collect();
    sketch.insert_batch(&items);
    let _ = store.put_entry(name, Entry::encode(sketch));
}

/// Flip one payload byte of `name`'s record in the snapshot. Returns
/// false when the name has no record there.
fn rot_snapshot_record(mem: &MemBackend, name: &str) -> bool {
    let path = Path::new(DIR).join(SNAPSHOT_FILE);
    let Some(bytes) = mem.raw(&path) else { return false };
    let needle = name.as_bytes();
    match bytes.windows(needle.len()).position(|w| w == needle) {
        Some(at) => mem.flip_bit(&path, at + needle.len() + 12, 2),
        None => false,
    }
}

/// Runs the schedule; `open` reopens the store over `mem`. Returns
/// `(scrub repairs, quarantine releases)` observed.
fn run<B: Backend>(
    seed: u64,
    mem: &MemBackend,
    open: impl Fn(u64) -> SketchStore<B>,
) -> (u64, u64) {
    let mut rng = SplitMix64::new(seed);
    let mut store = open(0);
    let (mut repaired, mut released) = (0, 0);
    for step in 0..160u64 {
        let name = NAMES[(rng.next_u64() % NAMES.len() as u64) as usize];
        let what = format!("seed {seed:#x} step {step}");
        match rng.next_u64() % 10 {
            0 | 1 => {
                let _ = store.put(name, &sketch(name, &mut rng));
            }
            2 => {
                let _ = store.put_encoded(name, &format::encode(&sketch(name, &mut rng)));
            }
            3 | 4 => merge(&mut store, name, sketch(name, &mut rng)),
            5 => batch_put(&mut store, name, &mut rng),
            6 => {
                let _ = store.remove(name);
            }
            7 => {
                let _ = store.compact();
            }
            8 => {
                drop(store);
                store = open(step);
                // Replayed entries decode on first read, inside `check`.
            }
            _ => {
                // Rot a compacted record. The live store still holds
                // the name, so a scrub repairs it from memory; a reopen
                // instead finds no valid copy and fences the name, and
                // a validated write releases the fence.
                if store.compact().is_err() || !rot_snapshot_record(mem, name) {
                    continue;
                }
                if step.is_multiple_of(2) {
                    let before = store.scrub_stats().repaired;
                    let _ = store.scrub_full(SCRUB_SLICE_BYTES);
                    repaired += store.scrub_stats().repaired - before;
                } else {
                    drop(store);
                    store = open(step);
                    check(&store, &what);
                    if store.is_quarantined(name)
                        && store.put(name, &sketch(name, &mut rng)).is_ok()
                    {
                        assert!(!store.is_quarantined(name), "{what}: write releases {name}");
                        released += 1;
                    }
                }
            }
        }
        check(&store, &what);
    }
    (repaired, released)
}

#[test]
fn memoized_entries_match_recomputation_on_mem_backend() {
    for seed in [0xe7_0001u64, 0xe7_0002, 0xe7_0003] {
        let mem = MemBackend::new();
        let open =
            |_| SketchStore::open_with(mem.clone(), DIR, StoreOptions::no_sleep()).expect("opens");
        let (repaired, released) = run(seed, &mem, open);
        assert!(repaired >= 1, "seed {seed:#x}: no scrub repair exercised");
        assert!(released >= 1, "seed {seed:#x}: no quarantine release exercised");
    }
}

#[test]
fn memoized_entries_match_recomputation_under_faults() {
    for seed in [0xfa_0001u64, 0xfa_0002, 0xfa_0003] {
        let mem = MemBackend::new();
        let open = |session: u64| {
            let io = FaultyIo::new(mem.clone(), FaultPlan::new(seed ^ session, 24));
            SketchStore::open_with(io, DIR, StoreOptions::no_sleep()).expect("reads never fault")
        };
        run(seed, &mem, open);
    }
}
