//! A fixed reference kernel: how fast this host runs memory-bound code
//! right now.
//!
//! The host's speed drifts with its other tenants by 10–20 % within
//! minutes, and every host time the benchmark measures drifts with
//! it. The kernel chases pointers through a table far larger than the
//! CPU caches — dependent loads are where the simulator's cache, extent
//! and descriptor lookups spend their time — and does not depend on
//! the repository's code. Timing one slice before each cell, on the
//! same worker and under the same contention, gives the run a
//! yardstick that later commits share.

use std::hint::black_box;
use std::time::Instant;

/// Slots in the chase table (4 bytes each: 32 MiB).
const SLOTS: usize = 1 << 23;
/// Dependent loads per timed slice (about 24 ms on the calibration
/// host, [`crate::REF_NOMINAL_S`]).
const STEPS: usize = 1 << 17;

/// A single-cycle random permutation of `0..SLOTS` (Sattolo's
/// algorithm), so a chase never falls into a short loop.
pub struct RefTable {
    next: Vec<u32>,
}

impl RefTable {
    pub fn new() -> RefTable {
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..SLOTS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        RefTable { next }
    }

    /// Host seconds of one slice started at slot `start`.
    pub fn slice(&self, start: usize) -> f64 {
        let t = Instant::now();
        let mut p = (start % SLOTS) as u32;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            p = self.next[p as usize];
            acc = acc.wrapping_mul(0x100_0000_01B3) ^ u64::from(p);
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }
}
