//! One module per experiment; each exposes `run(&Config) -> Table` (or a
//! small set of tables). EXPERIMENTS.md at the workspace root records the
//! paper's claims next to measured outputs of these functions.

pub mod approx;
pub mod bbit;
pub mod cardinality;
pub mod cnf_ie;
pub mod collisions;
pub mod fig6;
pub mod headline;
pub mod ie_vs_hmh;
pub mod ingest;
pub mod space_sweep;
pub mod variance;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shared experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Trials per data point.
    pub trials: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Scale factor ≤ 1.0 shrinks sweeps for smoke tests.
    pub quick: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self { trials: 40, seed: 0xA5E0, quick: false }
    }
}

impl Config {
    /// A fast configuration for integration tests.
    pub fn smoke() -> Self {
        Self { trials: 8, seed: 0xA5E0, quick: true }
    }

    /// Deterministic RNG for a data point.
    pub fn rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}
