//! Per-file extent maps: logical page ranges → physical block runs.
//!
//! A file's data layout is a sorted map of extents. Copy-on-write
//! updates replace sub-ranges with newly allocated runs, splitting
//! whatever extents they overlap; the number of extents in the map is
//! the fragmentation measure the defragmentation task works against
//! (§5.3: "Btrfs allows defragmenting a file by merging small extents
//! with logically adjacent ones").

use crate::alloc::Run;
use sim_core::omap::DOrdMap;
use sim_core::{BlockNr, PageIndex};

/// One extent: `len` pages starting at logical page `logical`, stored at
/// physical blocks `physical .. physical+len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First logical page.
    pub logical: u64,
    /// First physical block.
    pub physical: BlockNr,
    /// Length in pages/blocks.
    pub len: u64,
}

impl Extent {
    /// The physical blocks backing the extent.
    pub fn run(&self) -> Run {
        Run {
            start: self.physical,
            len: self.len,
        }
    }

    /// Physical block backing logical page `page`, if within the extent.
    fn block_of(&self, page: u64) -> Option<BlockNr> {
        if page >= self.logical && page < self.logical + self.len {
            Some(BlockNr(self.physical.raw() + (page - self.logical)))
        } else {
            None
        }
    }
}

/// Sorted extent map of one file.
///
/// Backed by [`DOrdMap`] — the FIBMAP translation is a floor query
/// (`floor(p)`) and COW splits walk neighbours, so the
/// map must stay ordered; the chunked-sorted-vector layout keeps those
/// queries O(log n) with dense iteration (DESIGN.md §13).
#[derive(Debug, Clone, Default)]
pub struct ExtentMap {
    /// logical start -> extent.
    map: DOrdMap<u64, Extent>,
}

impl sim_core::snapshot::StateDigest for ExtentMap {
    fn digest_state(&self, d: &mut sim_core::snapshot::Digest) {
        d.write_usize(self.map.len());
        for e in self.map.values() {
            d.write_u64(e.logical);
            d.write_u64(e.physical.raw());
            d.write_u64(e.len);
        }
    }
}

impl ExtentMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        ExtentMap::default()
    }

    /// Number of extents (the fragmentation measure).
    pub fn extent_count(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.map.values().map(|e| e.len).sum()
    }

    /// Physical block of a logical page, if mapped. This is the FIBMAP
    /// translation of §4.2.
    pub fn block_of(&self, page: PageIndex) -> Option<BlockNr> {
        let p = page.raw();
        self.map.floor(&p).and_then(|(_, e)| e.block_of(p))
    }

    /// Iterates extents in logical order.
    pub fn iter(&self) -> impl Iterator<Item = &Extent> + '_ {
        self.map.values()
    }

    /// Removes the logical range `[start, start+len)`, returning the
    /// physical runs that were unmapped (for refcount release), one per
    /// overlapping extent, from the highest logical offset down.
    /// Overlapping extents are trimmed or split.
    pub fn unmap_range(&mut self, start: u64, len: u64) -> Vec<Run> {
        if len == 0 {
            return Vec::new();
        }
        let end = start + len;
        let mut removed = Vec::new();
        // Collect keys of extents overlapping [start, end): their
        // logical start is < end, and their end is > start.
        let overlapping: Vec<u64> = self
            .map
            .range(..end)
            .rev()
            .take_while(|(_, e)| e.logical + e.len > start)
            .map(|(&k, _)| k)
            .collect();
        for key in overlapping {
            let Some(e) = self.map.remove(&key) else {
                continue;
            };
            let e_end = e.logical + e.len;
            // Left remainder.
            if e.logical < start {
                self.map.insert(
                    e.logical,
                    Extent {
                        logical: e.logical,
                        physical: e.physical,
                        len: start - e.logical,
                    },
                );
            }
            // Right remainder.
            if e_end > end {
                let skip = end - e.logical;
                self.map.insert(
                    end,
                    Extent {
                        logical: end,
                        physical: BlockNr(e.physical.raw() + skip),
                        len: e_end - end,
                    },
                );
            }
            // Middle: the unmapped run.
            let cut_from = start.max(e.logical);
            let cut_to = end.min(e_end);
            removed.push(Run {
                start: BlockNr(e.physical.raw() + (cut_from - e.logical)),
                len: cut_to - cut_from,
            });
        }
        removed
    }

    /// Maps the logical range starting at `start` onto the given
    /// physical runs (their total length determines the range length).
    /// Returns the physical runs displaced from that range, ordered as
    /// [`unmap_range`](Self::unmap_range) orders them.
    pub fn map_range(&mut self, start: u64, runs: &[Run]) -> Vec<Run> {
        let total: u64 = runs.iter().map(|r| r.len).sum();
        let displaced = self.unmap_range(start, total);
        let mut logical = start;
        for run in runs {
            self.insert_extent(Extent {
                logical,
                physical: run.start,
                len: run.len,
            });
            logical += run.len;
        }
        displaced
    }

    /// Inserts an extent, merging with physically and logically adjacent
    /// neighbours when possible.
    fn insert_extent(&mut self, e: Extent) {
        debug_assert!(e.len > 0);
        let mut e = e;
        // Merge with predecessor if contiguous both logically and
        // physically.
        if let Some((&pk, &prev)) = self.map.range(..e.logical).next_back() {
            if prev.logical + prev.len == e.logical
                && prev.physical.raw() + prev.len == e.physical.raw()
            {
                self.map.remove(&pk);
                e = Extent {
                    logical: prev.logical,
                    physical: prev.physical,
                    len: prev.len + e.len,
                };
            }
        }
        // Merge with successor.
        if let Some((&nk, &next)) = self.map.range(e.logical + e.len..).next() {
            if e.logical + e.len == next.logical && e.physical.raw() + e.len == next.physical.raw()
            {
                self.map.remove(&nk);
                e.len += next.len;
            }
        }
        self.map.insert(e.logical, e);
    }

    /// Removes all extents, returning their physical runs in logical
    /// order.
    pub fn clear(&mut self) -> Vec<Run> {
        let runs = self.map.values().map(Extent::run).collect();
        self.map.clear();
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(start: u64, len: u64) -> Run {
        Run {
            start: BlockNr(start),
            len,
        }
    }

    /// Expands runs into their blocks, in order.
    fn blocks(runs: &[Run]) -> Vec<BlockNr> {
        runs.iter()
            .flat_map(|r| (0..r.len).map(move |i| r.start.offset(i)))
            .collect()
    }

    #[test]
    fn map_and_lookup() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(100, 4)]);
        assert_eq!(m.block_of(PageIndex(0)), Some(BlockNr(100)));
        assert_eq!(m.block_of(PageIndex(3)), Some(BlockNr(103)));
        assert_eq!(m.block_of(PageIndex(4)), None);
        assert_eq!(m.extent_count(), 1);
        assert_eq!(m.mapped_pages(), 4);
    }

    #[test]
    fn cow_overwrite_splits_extent() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(100, 8)]);
        // Overwrite pages 2..4 with a new run.
        let displaced = m.map_range(2, &[run(200, 2)]);
        assert_eq!(displaced, vec![run(102, 2)]);
        assert_eq!(m.extent_count(), 3, "split into left, new, right");
        assert_eq!(m.block_of(PageIndex(1)), Some(BlockNr(101)));
        assert_eq!(m.block_of(PageIndex(2)), Some(BlockNr(200)));
        assert_eq!(m.block_of(PageIndex(3)), Some(BlockNr(201)));
        assert_eq!(m.block_of(PageIndex(4)), Some(BlockNr(104)));
        assert_eq!(m.mapped_pages(), 8);
    }

    #[test]
    fn overwrite_spanning_multiple_extents() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(100, 4)]);
        m.map_range(4, &[run(200, 4)]);
        assert_eq!(m.extent_count(), 2);
        let displaced = m.map_range(2, &[run(300, 4)]);
        // Displaced must be exactly blocks 102,103,200,201 in some order.
        let mut d = blocks(&displaced);
        d.sort_by_key(|b| b.raw());
        assert_eq!(
            d,
            vec![BlockNr(102), BlockNr(103), BlockNr(200), BlockNr(201)]
        );
        assert_eq!(m.block_of(PageIndex(2)), Some(BlockNr(300)));
        assert_eq!(m.block_of(PageIndex(5)), Some(BlockNr(303)));
        assert_eq!(m.block_of(PageIndex(6)), Some(BlockNr(202)));
    }

    #[test]
    fn adjacent_extents_merge() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(100, 4)]);
        m.map_range(4, &[run(104, 4)]); // physically contiguous
        assert_eq!(m.extent_count(), 1, "merged");
        assert_eq!(m.mapped_pages(), 8);
        // Non-contiguous physical: no merge.
        m.map_range(8, &[run(300, 2)]);
        assert_eq!(m.extent_count(), 2);
    }

    #[test]
    fn multiple_runs_in_one_write() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(10, 2), run(50, 3)]);
        assert_eq!(m.extent_count(), 2);
        assert_eq!(m.block_of(PageIndex(1)), Some(BlockNr(11)));
        assert_eq!(m.block_of(PageIndex(2)), Some(BlockNr(50)));
        assert_eq!(m.block_of(PageIndex(4)), Some(BlockNr(52)));
    }

    #[test]
    fn unmap_range_partial() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(100, 10)]);
        let removed = m.unmap_range(3, 4);
        assert_eq!(removed, vec![run(103, 4)]);
        assert_eq!(m.block_of(PageIndex(2)), Some(BlockNr(102)));
        assert_eq!(m.block_of(PageIndex(3)), None);
        assert_eq!(m.block_of(PageIndex(6)), None);
        assert_eq!(m.block_of(PageIndex(7)), Some(BlockNr(107)));
        assert_eq!(m.mapped_pages(), 6);
    }

    #[test]
    fn clear_returns_all_blocks() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(10, 2)]);
        m.map_range(5, &[run(20, 3)]);
        assert_eq!(m.clear(), vec![run(10, 2), run(20, 3)]);
        assert!(m.is_empty());
    }

    // Randomized reference test driven by the deterministic `SimRng`
    // (the workspace builds offline, with no proptest dep).
    mod properties {
        use super::*;
        use sim_core::SimRng;
        use std::collections::BTreeMap;

        /// The extent map agrees with a reference page->block map
        /// under arbitrary write sequences, and every displaced
        /// block was previously mapped in the written range.
        #[test]
        fn matches_reference_map() {
            for case in 0..64u64 {
                let mut rng = SimRng::new(0xE77E ^ case);
                let mut m = ExtentMap::new();
                let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
                let mut next_phys = 0u64;
                for _ in 0..rng.gen_range(1, 60) {
                    let start = rng.gen_range(0, 64);
                    let len = rng.gen_range(1, 16);
                    let phys = next_phys;
                    next_phys += len;
                    let displaced = m.map_range(start, &[run(phys * 1000, len)]);
                    // Reference bookkeeping.
                    let mut expected_displaced: Vec<u64> = Vec::new();
                    for p in start..start + len {
                        if let Some(old) = reference.insert(p, phys * 1000 + (p - start)) {
                            expected_displaced.push(old);
                        }
                    }
                    let mut got: Vec<u64> = blocks(&displaced).iter().map(|b| b.raw()).collect();
                    got.sort_unstable();
                    expected_displaced.sort_unstable();
                    assert_eq!(got, expected_displaced);
                }
                for (page, block) in &reference {
                    assert_eq!(m.block_of(PageIndex(*page)), Some(BlockNr(*block)));
                }
                assert_eq!(m.mapped_pages(), reference.len() as u64);
            }
        }
    }
}
