//! Crash-safe persistence for HyperMinHash sketches.
//!
//! A [`SketchStore`] is a named collection of sketches that survives
//! crashes at any point: every record is framed with a magic, explicit
//! lengths and an xxHash64 checksum; mutations go through an append-only
//! WAL with truncate-to-known-good + append + fsync discipline; and
//! compaction replaces the snapshot only via write-temp + fsync + atomic
//! rename. Opening a store runs a *salvage scan* that recovers every
//! intact record from a damaged file — re-synchronizing on record magic
//! after torn tails or bit flips — and quarantines the rest, reporting
//! exactly what happened in a [`RecoveryReport`].
//!
//! The same store logic runs against the real filesystem
//! ([`FileBackend`]) or an in-memory one ([`MemBackend`]), and the
//! [`FaultyIo`] wrapper injects deterministic, seed-replayable faults
//! (short writes, transient and permanent `io::Error`s) for the
//! fault-injection test harness; see `tests/fault_injection.rs` at the
//! workspace root.
//!
//! ```
//! use hmh_core::{HmhParams, HyperMinHash};
//! use hmh_store::{MemBackend, SketchStore, StoreOptions};
//!
//! let params = HmhParams::new(6, 6, 4).unwrap();
//! let sketch = HyperMinHash::from_items(params, 0u64..1000);
//!
//! let disk = MemBackend::new();
//! let mut store =
//!     SketchStore::open_with(disk.clone(), "/sketches", StoreOptions::no_sleep()).unwrap();
//! store.put("events", &sketch).unwrap();
//! drop(store);
//!
//! let store = SketchStore::open_with(disk, "/sketches", StoreOptions::no_sleep()).unwrap();
//! assert!(store.recovery_report().is_clean());
//! assert_eq!(store.get("events").unwrap().unwrap(), sketch);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod entry;
pub mod fault;
pub mod lock;
pub mod log;
pub mod retry;
pub mod store;

pub use backend::{atomic_write, atomic_write_file, sibling_tmp, Backend, FileBackend};
pub use entry::Entry;
pub use fault::{BitRotPlan, Fault, FaultPlan, FaultyIo, MemBackend};
pub use lock::{LockError, StoreLock, LOCK_FILE};
pub use log::{CorruptSpan, Record, RecordKind, RecoveryReport, Salvage, ScanStep, DIGEST_SEED};
pub use retry::{is_transient, RetryPolicy};
pub use store::{
    FsckDetail, ScrubFinding, ScrubSlice, ScrubStats, SketchStore, StoreError, StoreOptions,
    QUARANTINE_FILE, QUARANTINE_NAMES_FILE, SCRUB_SLICE_BYTES, SNAPSHOT_FILE, WAL_FILE,
};
