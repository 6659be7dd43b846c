//! One stored value and what is derived from it.
//!
//! A read of a stored sketch needs its decoded form, and JACCARD and CARD
//! need its cardinality (Algorithm 3) and collision profile (Algorithm 6).
//! All three are functions of the stored bytes alone, so an [`Entry`]
//! computes each at most once, on first use, and keeps it beside the
//! bytes. Entries are immutable once stored: the store shares each as an
//! `Arc`, and a write replaces the `Arc` instead of touching the entry,
//! so nothing derived from the old bytes outlives them.

use std::sync::OnceLock;

use hmh_core::collisions::CollisionProfile;
use hmh_core::format::{self, FormatError};
use hmh_core::HyperMinHash;

/// A stored `HMH1` payload with its lazily derived values.
#[derive(Debug)]
pub struct Entry {
    bytes: Vec<u8>,
    sketch: OnceLock<Result<HyperMinHash, FormatError>>,
    cardinality: OnceLock<f64>,
    profile: OnceLock<CollisionProfile>,
}

impl Entry {
    /// Validate `bytes` as an `HMH1` sketch, keeping the decoded sketch.
    ///
    /// # Errors
    /// The [`FormatError`] of [`format::decode`].
    pub fn decode(bytes: Vec<u8>) -> Result<Self, FormatError> {
        let sketch = format::decode(&bytes)?;
        Ok(Self::with_sketch(bytes, OnceLock::from(Ok(sketch))))
    }

    /// Encode `sketch`, keeping it as the decoded value.
    pub fn encode(sketch: HyperMinHash) -> Self {
        Self::with_sketch(format::encode(&sketch), OnceLock::from(Ok(sketch)))
    }

    /// Bytes replayed from disk: the record checksum held, but the payload
    /// is decoded (and so validated) only on first read.
    pub(crate) fn replayed(bytes: Vec<u8>) -> Self {
        Self::with_sketch(bytes, OnceLock::new())
    }

    fn with_sketch(bytes: Vec<u8>, sketch: OnceLock<Result<HyperMinHash, FormatError>>) -> Self {
        Self { bytes, sketch, cardinality: OnceLock::new(), profile: OnceLock::new() }
    }

    /// The stored `HMH1` bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The decoded sketch, decoding on first use.
    ///
    /// # Errors
    /// The bytes are not a valid `HMH1` sketch (only possible for a
    /// replayed record whose checksum held over a bad payload).
    pub fn sketch(&self) -> Result<&HyperMinHash, FormatError> {
        self.sketch.get_or_init(|| format::decode(&self.bytes)).as_ref().map_err(Clone::clone)
    }

    /// The sketch's default cardinality estimate, computed on first use.
    ///
    /// # Errors
    /// As [`Self::sketch`].
    pub fn cardinality(&self) -> Result<f64, FormatError> {
        let sketch = self.sketch()?;
        Ok(*self.cardinality.get_or_init(|| sketch.cardinality()))
    }

    /// The sketch's Algorithm 6 profile, computed on first use from the
    /// memoized cardinality.
    ///
    /// # Errors
    /// As [`Self::sketch`].
    pub fn profile(&self) -> Result<&CollisionProfile, FormatError> {
        let params = self.sketch()?.params();
        let cardinality = self.cardinality()?;
        Ok(self.profile.get_or_init(|| CollisionProfile::new(params, cardinality)))
    }
}
