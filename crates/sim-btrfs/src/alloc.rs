//! Free-space management for the COW filesystem.
//!
//! A first-fit extent allocator over a map of free ranges. Copy-on-write
//! filesystems fragment because every overwrite allocates fresh space;
//! the allocator reproduces that: when no contiguous run of the
//! requested length exists, [`FreeSpace::alloc`] returns a shorter
//! extent and the caller loops, producing a multi-extent (fragmented)
//! file — exactly the condition the defragmentation task exists to fix
//! (§5.3).

use sim_core::omap::DOrdMap;
use sim_core::{BlockNr, SimError, SimResult};

/// An allocated contiguous run of blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First block.
    pub start: BlockNr,
    /// Length in blocks.
    pub len: u64,
}

/// First-fit extent allocator.
///
/// The free map is ordered by physical start address: first-fit scans
/// it front to back, and `free_range` coalesces with the neighbouring
/// ranges found by predecessor/successor queries — ordered-map
/// operations, served by [`DOrdMap`] (DESIGN.md §13).
#[derive(Debug, Clone)]
pub struct FreeSpace {
    /// Free ranges: start -> len, non-adjacent (always coalesced).
    free: DOrdMap<u64, u64>,
    free_blocks: u64,
    capacity: u64,
}

impl sim_core::snapshot::StateDigest for FreeSpace {
    fn digest_state(&self, d: &mut sim_core::snapshot::Digest) {
        d.write_u64(self.capacity);
        d.write_u64(self.free_blocks);
        d.write_usize(self.free.len());
        for (&start, &len) in self.free.iter() {
            d.write_u64(start);
            d.write_u64(len);
        }
    }
}

impl FreeSpace {
    /// Creates an allocator with blocks `0..capacity` free.
    pub fn new(capacity: u64) -> Self {
        let mut free = DOrdMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        FreeSpace {
            free,
            free_blocks: capacity,
            capacity,
        }
    }

    /// Total device capacity in blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.free_blocks
    }

    /// Allocated blocks.
    pub fn allocated_blocks(&self) -> u64 {
        self.capacity - self.free_blocks
    }

    /// Allocates up to `want` contiguous blocks, first-fit. Returns a
    /// run of length `min(want, largest available at the chosen spot)`.
    ///
    /// Returns [`SimError::NoSpace`] when the device is full.
    pub fn alloc(&mut self, want: u64) -> SimResult<Run> {
        assert!(want > 0, "zero-length allocation");
        // First fit: the lowest-addressed range long enough; otherwise
        // the longest range available.
        let mut best: Option<(u64, u64)> = None;
        for (&start, &len) in self.free.iter() {
            if len >= want {
                best = Some((start, len));
                break;
            }
            match best {
                Some((_, blen)) if blen >= len => {}
                _ => best = Some((start, len)),
            }
        }
        let Some((start, len)) = best else {
            return Err(SimError::NoSpace);
        };
        let take = want.min(len);
        self.free.remove(&start);
        if take < len {
            self.free.insert(start + take, len - take);
        }
        self.free_blocks -= take;
        Ok(Run {
            start: BlockNr(start),
            len: take,
        })
    }

    /// Allocates exactly `want` blocks as a list of runs (possibly
    /// several when fragmented). Fails with [`SimError::NoSpace`] if the
    /// device cannot hold them, leaving already-carved runs re-freed.
    pub fn alloc_exact(&mut self, want: u64) -> SimResult<Vec<Run>> {
        assert!(want > 0, "zero-length allocation");
        if want > self.free_blocks {
            return Err(SimError::NoSpace);
        }
        let mut runs = Vec::new();
        let mut remaining = want;
        while remaining > 0 {
            match self.alloc(remaining) {
                Ok(run) => {
                    remaining -= run.len;
                    runs.push(run);
                }
                Err(e) => {
                    for r in runs {
                        self.free_range(r.start, r.len);
                    }
                    return Err(e);
                }
            }
        }
        Ok(runs)
    }

    /// Allocates a contiguous run of exactly `want` blocks, or fails.
    /// Used by defragmentation, which needs one extent.
    pub fn alloc_contiguous(&mut self, want: u64) -> SimResult<Run> {
        assert!(want > 0, "zero-length allocation");
        let found = self
            .free
            .iter()
            .find(|(_, &len)| len >= want)
            .map(|(&s, _)| s);
        let Some(start) = found else {
            return Err(SimError::NoSpace);
        };
        let Some(len) = self.free.remove(&start) else {
            return Err(SimError::NoSpace);
        };
        if want < len {
            self.free.insert(start + want, len - want);
        }
        self.free_blocks -= want;
        Ok(Run {
            start: BlockNr(start),
            len: want,
        })
    }

    /// Returns a range to the free pool, coalescing with neighbours.
    /// Callers release whole runs at once (DESIGN.md §13.5): since the
    /// map is always coalesced, freeing a run in one call or block by
    /// block, in any order, leaves the same map.
    ///
    /// # Panics
    ///
    /// Panics on double-free or out-of-range frees — those are
    /// filesystem accounting bugs.
    pub fn free_range(&mut self, start: BlockNr, len: u64) {
        assert!(len > 0, "zero-length free");
        let s = start.raw();
        assert!(s + len <= self.capacity, "free past end of device");
        // The floor and ceiling neighbours must not overlap the range;
        // once they pass, they are also the only coalescing candidates.
        let prev = self.free.floor(&s).map(|(&ps, &plen)| (ps, plen));
        if let Some((ps, plen)) = prev {
            assert!(ps + plen <= s, "double free at {start}");
        }
        let next = self.free.ceil(&s).map(|(&ns, &nlen)| (ns, nlen));
        if let Some((ns, _)) = next {
            assert!(s + len <= ns, "double free at {start}");
        }
        let mut grow = len;
        if let Some((ns, nlen)) = next.filter(|&(ns, _)| ns == s + len) {
            self.free.remove(&ns);
            grow += nlen;
        }
        match prev.filter(|&(ps, plen)| ps + plen == s) {
            Some((ps, _)) => {
                if let Some(plen) = self.free.get_mut(&ps) {
                    *plen += grow;
                }
            }
            None => {
                self.free.insert(s, grow);
            }
        }
        self.free_blocks += len;
    }

    /// Iterates over allocated ranges in ascending physical order — the
    /// scrubber's "extent key" processing order (Table 3).
    pub fn allocated_ranges(&self) -> Vec<Run> {
        let mut out = Vec::new();
        let mut cursor = 0u64;
        for (&fs, &flen) in self.free.iter() {
            if fs > cursor {
                out.push(Run {
                    start: BlockNr(cursor),
                    len: fs - cursor,
                });
            }
            cursor = fs + flen;
        }
        if cursor < self.capacity {
            out.push(Run {
                start: BlockNr(cursor),
                len: self.capacity - cursor,
            });
        }
        out
    }

    /// Largest contiguous free run, in blocks.
    pub fn largest_free_run(&self) -> u64 {
        self.free.values().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut fs = FreeSpace::new(100);
        let r = fs.alloc(10).unwrap();
        assert_eq!(
            r,
            Run {
                start: BlockNr(0),
                len: 10
            }
        );
        assert_eq!(fs.free_blocks(), 90);
        fs.free_range(r.start, r.len);
        assert_eq!(fs.free_blocks(), 100);
        assert_eq!(fs.largest_free_run(), 100, "coalesced back to one run");
    }

    #[test]
    fn alloc_exact_spans_fragments() {
        let mut fs = FreeSpace::new(30);
        let a = fs.alloc(10).unwrap();
        let _b = fs.alloc(10).unwrap();
        let _c = fs.alloc(10).unwrap();
        fs.free_range(a.start, a.len); // free [0,10)
                                       // Free space: [0,10). Allocating 15 must fail...
        assert_eq!(fs.alloc_exact(15), Err(SimError::NoSpace));
        // ...and leave the free pool intact.
        assert_eq!(fs.free_blocks(), 10);
        // Allocating 10 succeeds in one run.
        let runs = fs.alloc_exact(10).unwrap();
        assert_eq!(runs.len(), 1);
    }

    #[test]
    fn alloc_exact_returns_multiple_runs_when_fragmented() {
        let mut fs = FreeSpace::new(30);
        let a = fs.alloc(10).unwrap(); // [0,10)
        let _hold = fs.alloc(10).unwrap(); // [10,20)
        let c = fs.alloc(10).unwrap(); // [20,30)
        fs.free_range(a.start, a.len);
        fs.free_range(c.start, c.len);
        // Free: [0,10) and [20,30): 12 blocks must span both.
        let runs = fs.alloc_exact(12).unwrap();
        assert_eq!(runs.len(), 2);
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn alloc_contiguous_requires_one_run() {
        let mut fs = FreeSpace::new(30);
        let a = fs.alloc(10).unwrap();
        let _hold = fs.alloc(10).unwrap();
        let c = fs.alloc(10).unwrap();
        fs.free_range(a.start, a.len);
        fs.free_range(c.start, c.len);
        assert_eq!(fs.alloc_contiguous(12), Err(SimError::NoSpace));
        let r = fs.alloc_contiguous(10).unwrap();
        assert_eq!(r.len, 10);
    }

    #[test]
    fn allocated_ranges_reflect_holes() {
        let mut fs = FreeSpace::new(30);
        let _a = fs.alloc(10).unwrap(); // [0,10)
        let b = fs.alloc(10).unwrap(); // [10,20)
        let _c = fs.alloc(10).unwrap(); // [20,30)
        fs.free_range(b.start, b.len);
        let ranges = fs.allocated_ranges();
        assert_eq!(
            ranges,
            vec![
                Run {
                    start: BlockNr(0),
                    len: 10
                },
                Run {
                    start: BlockNr(20),
                    len: 10
                },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut fs = FreeSpace::new(10);
        let r = fs.alloc(5).unwrap();
        fs.free_range(r.start, r.len);
        fs.free_range(r.start, r.len);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_inside_a_run_panics() {
        let mut fs = FreeSpace::new(32);
        fs.alloc(32).unwrap();
        fs.free_range(BlockNr(15), 1);
        fs.free_range(BlockNr(10), 10);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_across_runs_panics() {
        let mut fs = FreeSpace::new(32);
        fs.alloc(32).unwrap();
        fs.free_range(BlockNr(10), 10);
        fs.free_range(BlockNr(15), 10);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_reaching_into_the_next_run_panics() {
        let mut fs = FreeSpace::new(32);
        fs.alloc(32).unwrap();
        fs.free_range(BlockNr(10), 10);
        fs.free_range(BlockNr(5), 6);
    }

    #[test]
    fn exhaustion() {
        let mut fs = FreeSpace::new(5);
        let _ = fs.alloc_exact(5).unwrap();
        assert_eq!(fs.alloc(1), Err(SimError::NoSpace));
        assert_eq!(fs.allocated_blocks(), 5);
    }

    // Randomized reference test driven by the deterministic `SimRng`
    // (the workspace builds offline, with no proptest dep).
    mod properties {
        use super::*;
        use sim_core::SimRng;

        /// Alloc/free sequences conserve blocks and never produce
        /// overlapping allocations.
        #[test]
        fn conservation() {
            for case in 0..64u64 {
                let mut rng = SimRng::new(0xA110C ^ case);
                let mut fs = FreeSpace::new(256);
                let mut held: Vec<Run> = Vec::new();
                for _ in 0..rng.gen_range(0, 100) {
                    let op = rng.gen_range(0, 2);
                    let n = rng.gen_range(1, 16);
                    if op == 0 {
                        if let Ok(runs) = fs.alloc_exact(n) {
                            held.extend(runs);
                        }
                    } else if let Some(r) = held.pop() {
                        fs.free_range(r.start, r.len);
                    }
                    let held_total: u64 = held.iter().map(|r| r.len).sum();
                    assert_eq!(held_total + fs.free_blocks(), 256);
                    // No two held runs overlap.
                    let mut sorted = held.clone();
                    sorted.sort_by_key(|r| r.start.raw());
                    for w in sorted.windows(2) {
                        assert!(w[0].start.raw() + w[0].len <= w[1].start.raw());
                    }
                    // allocated_ranges is consistent with the counter.
                    let alloc_total: u64 = fs.allocated_ranges().iter().map(|r| r.len).sum();
                    assert_eq!(alloc_total, fs.allocated_blocks());
                }
            }
        }

        fn free_map(fs: &FreeSpace) -> Vec<(u64, u64)> {
            fs.free.iter().map(|(&s, &l)| (s, l)).collect()
        }

        /// Freeing a set of blocks one at a time and as coalesced runs,
        /// each in a shuffled order, leaves identical free maps.
        #[test]
        fn run_frees_equal_block_frees_in_any_order() {
            const CAP: u64 = 512;
            for case in 0..64u64 {
                let mut rng = SimRng::new(0xF4EE ^ case);
                let mut start = FreeSpace::new(CAP);
                start.alloc(CAP).unwrap();
                // Pre-existing holes, so frees coalesce with old ranges.
                let mut allocated: Vec<u64> = Vec::new();
                for b in 0..CAP {
                    if rng.gen_range(0, 8) == 0 {
                        start.free_range(BlockNr(b), 1);
                    } else {
                        allocated.push(b);
                    }
                }
                let chosen: Vec<u64> = allocated
                    .into_iter()
                    .filter(|_| rng.gen_range(0, 2) == 0)
                    .collect();
                let mut runs: Vec<Run> = Vec::new();
                for &b in &chosen {
                    match runs.last_mut() {
                        Some(r) if r.start.raw() + r.len == b => r.len += 1,
                        _ => runs.push(Run {
                            start: BlockNr(b),
                            len: 1,
                        }),
                    }
                }
                let mut blocks = chosen.clone();
                rng.shuffle(&mut blocks);
                rng.shuffle(&mut runs);
                let mut by_block = start.clone();
                for b in blocks {
                    by_block.free_range(BlockNr(b), 1);
                }
                let mut by_run = start.clone();
                for r in runs {
                    by_run.free_range(r.start, r.len);
                }
                assert_eq!(free_map(&by_block), free_map(&by_run), "case {case}");
                assert_eq!(by_block.free_blocks(), by_run.free_blocks());
                assert_eq!(
                    by_run.free_blocks(),
                    start.free_blocks() + chosen.len() as u64
                );
            }
        }
    }
}
