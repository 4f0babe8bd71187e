//! Per-block device state: content versions, checksums, reference
//! counts and back-references.
//!
//! We do not store real file bytes. Each block carries a *content
//! version* — a monotonically increasing stamp assigned on write — and a
//! checksum derived from it. This is enough to model every behaviour the
//! paper's tasks rely on:
//!
//! - the scrubber verifies a block's checksum against its content
//!   (§5.1); an injected corruption makes verification fail;
//! - Btrfs "verifies data correctness during the read operation", which
//!   is why a workload read lets the opportunistic scrubber mark the
//!   block done;
//! - the backup tool compares live and snapshot blocks to decide whether
//!   copy-on-write sharing still holds (§5.2) — equal block numbers mean
//!   equal content;
//! - reference counts implement snapshot sharing: a block is freed only
//!   when neither the live tree nor any snapshot references it.
//!
//! Storage is one array of fixed-size per-block records, split into
//! chunks of `CHUNK_BLOCKS` records, each behind an [`Rc`]. Cloning
//! the table — the snapshot/fork plane clones whole stacks — copies
//! only the chunk pointers; a chunk is copied on its first write through
//! one clone (`Rc::make_mut`), the way Btrfs shares tree blocks between
//! snapshots until they are written. A fresh table shares a single
//! all-free chunk in every slot, so creating and forking a table costs
//! O(chunks), and memory is proportional to the chunks written.

use crate::alloc::Run;
use sim_core::dmap::DSet;
use sim_core::{BlockNr, InodeNr, PageIndex, SimError, SimResult};
use std::rc::Rc;

/// Back-reference from a block to the live file page it backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackRef {
    /// Owning live file.
    pub ino: InodeNr,
    /// Logical page within the file.
    pub index: PageIndex,
}

const NO_BACKREF: u64 = u64::MAX;

/// Blocks per copy-on-write chunk (a power of two).
const CHUNK_BLOCKS: usize = 1 << CHUNK_SHIFT;
const CHUNK_SHIFT: u32 = 10;
const CHUNK_MASK: usize = CHUNK_BLOCKS - 1;

/// State of one block.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Content version (0 = never written).
    version: u64,
    /// Whether the stored checksum matches the content. The stored
    /// checksum is always either 0 (never written) or the checksum of
    /// `version`, which is never 0 for a reachable version
    /// (`checksum_of` is a bijection), so one bit holds it; the digest
    /// expands it back to the stored value.
    sum_ok: bool,
    /// Live back-reference, packed as (ino, index); `backref_ino` is
    /// `NO_BACKREF` if the live tree does not reference the block.
    backref_ino: u64,
    backref_idx: u64,
    /// Number of referents (live tree + snapshots).
    refcount: u32,
}

const FREE_BLOCK: Block = Block {
    version: 0,
    sum_ok: false,
    backref_ino: NO_BACKREF,
    backref_idx: 0,
    refcount: 0,
};

type Chunk = [Block; CHUNK_BLOCKS];

/// Per-block state for one device, shared copy-on-write between clones.
#[derive(Debug, Clone)]
pub struct BlockTable {
    /// `capacity` blocks in order; the last chunk's tail past
    /// `capacity` is never addressed.
    chunks: Vec<Rc<Chunk>>,
    capacity: u64,
    /// Blocks with injected silent corruption.
    corrupted: DSet<u64>,
    /// Monotonic content-version source.
    next_version: u64,
}

/// Checksum function over a content version (any injective-enough mix).
fn checksum_of(version: u64) -> u64 {
    let mut z = version.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 27)
}

impl BlockTable {
    /// Creates state for a device of `capacity` blocks.
    pub fn new(capacity: u64) -> Self {
        let fill = Rc::new([FREE_BLOCK; CHUNK_BLOCKS]);
        let n = (capacity as usize).div_ceil(CHUNK_BLOCKS);
        BlockTable {
            chunks: vec![fill; n],
            capacity,
            corrupted: DSet::new(),
            next_version: 1,
        }
    }

    /// Device capacity in blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn check_range(&self, b: BlockNr) -> SimResult<usize> {
        if b.raw() < self.capacity {
            Ok(b.raw() as usize)
        } else {
            Err(SimError::BlockOutOfRange(b))
        }
    }

    /// Checks that every block of `run` is on the device.
    fn check_run(&self, run: Run) -> SimResult<()> {
        if run.len > 0 && run.start.raw() + run.len > self.capacity {
            Err(SimError::BlockOutOfRange(BlockNr(
                run.start.raw().max(self.capacity),
            )))
        } else {
            Ok(())
        }
    }

    fn get(&self, i: usize) -> &Block {
        &self.chunks[i >> CHUNK_SHIFT][i & CHUNK_MASK]
    }

    /// The block's record, copying its chunk first if it is shared.
    fn get_mut(&mut self, i: usize) -> &mut Block {
        &mut Rc::make_mut(&mut self.chunks[i >> CHUNK_SHIFT])[i & CHUNK_MASK]
    }

    /// Calls `f` with each chunk-local slice of the records of `run`
    /// (already range-checked), in ascending block order, unsharing
    /// each chunk once.
    fn for_each_mut(&mut self, run: Run, mut f: impl FnMut(u64, &mut [Block])) {
        let mut b = run.start.raw() as usize;
        let end = b + run.len as usize;
        while b < end {
            let off = b & CHUNK_MASK;
            let take = (CHUNK_BLOCKS - off).min(end - b);
            let chunk = Rc::make_mut(&mut self.chunks[b >> CHUNK_SHIFT]);
            f(b as u64, &mut chunk[off..off + take]);
            b += take;
        }
    }

    /// Stamps a freshly written block: assigns a new content version and
    /// matching checksum, and clears any corruption.
    pub fn write_block(&mut self, b: BlockNr) -> SimResult<u64> {
        let i = self.check_range(b)?;
        let v = self.next_version;
        self.next_version += 1;
        let blk = self.get_mut(i);
        blk.version = v;
        blk.sum_ok = true;
        self.corrupted.remove(&b.raw());
        Ok(v)
    }

    /// Claims a freshly allocated run for the live tree: each block gets
    /// a new content version (in ascending block order, as
    /// [`write_block`](Self::write_block) would assign them), one
    /// reference, and a back-reference to page `index0 + i` of `ino`.
    pub fn claim_run(&mut self, run: Run, ino: InodeNr, index0: u64) -> SimResult<()> {
        self.check_run(run)?;
        let first = run.start.raw();
        let mut version = self.next_version;
        self.for_each_mut(run, |b, blocks| {
            for (k, blk) in blocks.iter_mut().enumerate() {
                blk.version = version;
                blk.sum_ok = true;
                version += 1;
                blk.refcount += 1;
                blk.backref_ino = ino.raw();
                blk.backref_idx = index0 + (b - first) + k as u64;
            }
        });
        self.next_version = version;
        if !self.corrupted.is_empty() {
            for b in first..first + run.len {
                self.corrupted.remove(&b);
            }
        }
        Ok(())
    }

    /// Content version of a block (0 if never written).
    pub fn version_of(&self, b: BlockNr) -> SimResult<u64> {
        Ok(self.get(self.check_range(b)?).version)
    }

    /// Verifies the block's checksum against its content, as the Btrfs
    /// read path does. Fails for corrupted blocks.
    pub fn verify_checksum(&self, b: BlockNr) -> SimResult<()> {
        let blk = self.get(self.check_range(b)?);
        if self.corrupted.contains(&b.raw()) || !blk.sum_ok {
            Err(SimError::ChecksumMismatch(b))
        } else {
            Ok(())
        }
    }

    /// Injects a silent corruption (latent sector error) into a block.
    pub fn inject_corruption(&mut self, b: BlockNr) -> SimResult<()> {
        self.check_range(b)?;
        self.corrupted.insert(b.raw());
        Ok(())
    }

    /// Repairs a corrupted block (models Btrfs rebuilding from a good
    /// copy): restores a valid checksum without changing the version.
    pub fn repair(&mut self, b: BlockNr) -> SimResult<()> {
        let i = self.check_range(b)?;
        self.corrupted.remove(&b.raw());
        let blk = self.get_mut(i);
        blk.sum_ok = true;
        Ok(())
    }

    /// Number of corrupted blocks outstanding.
    pub fn corrupted_count(&self) -> usize {
        self.corrupted.len()
    }

    /// Increments a block's reference count.
    pub fn ref_inc(&mut self, b: BlockNr) -> SimResult<()> {
        let i = self.check_range(b)?;
        self.get_mut(i).refcount += 1;
        Ok(())
    }

    /// Increments the reference count of every block of `run` (a
    /// snapshot taking its share).
    pub fn ref_inc_run(&mut self, run: Run) -> SimResult<()> {
        self.check_run(run)?;
        self.for_each_mut(run, |_, blocks| {
            for blk in blocks {
                blk.refcount += 1;
            }
        });
        Ok(())
    }

    /// Decrements a block's reference count and reports whether it
    /// dropped to zero (i.e. the block is now free).
    ///
    /// # Panics
    ///
    /// Panics if the count is already zero — that is a filesystem
    /// accounting bug, not a runtime condition.
    pub fn ref_dec(&mut self, b: BlockNr) -> SimResult<bool> {
        let i = self.check_range(b)?;
        let blk = self.get_mut(i);
        assert!(blk.refcount > 0, "refcount underflow at {b}");
        blk.refcount -= 1;
        Ok(blk.refcount == 0)
    }

    /// Drops one reference from every block of `run`, clearing the live
    /// back-reference first when `live` (the live tree is letting go;
    /// a snapshot still might hold the block). Calls `freed` once per
    /// maximal sub-run whose counts reached zero, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics on a refcount underflow, like [`ref_dec`](Self::ref_dec).
    pub fn release_run(
        &mut self,
        run: Run,
        live: bool,
        mut freed: impl FnMut(Run),
    ) -> SimResult<()> {
        self.check_run(run)?;
        let mut pending: Option<Run> = None;
        self.for_each_mut(run, |b0, blocks| {
            for (k, blk) in blocks.iter_mut().enumerate() {
                let b = b0 + k as u64;
                if live {
                    blk.backref_ino = NO_BACKREF;
                }
                assert!(blk.refcount > 0, "refcount underflow at {}", BlockNr(b));
                blk.refcount -= 1;
                if blk.refcount > 0 {
                    if let Some(p) = pending.take() {
                        freed(p);
                    }
                } else if let Some(p) = pending.as_mut() {
                    p.len += 1;
                } else {
                    pending = Some(Run {
                        start: BlockNr(b),
                        len: 1,
                    });
                }
            }
        });
        if let Some(p) = pending {
            freed(p);
        }
        Ok(())
    }

    /// Current reference count.
    pub fn refcount_of(&self, b: BlockNr) -> SimResult<u32> {
        Ok(self.get(self.check_range(b)?).refcount)
    }

    /// Sets the live back-reference for a block.
    pub fn set_backref(&mut self, b: BlockNr, br: BackRef) -> SimResult<()> {
        let i = self.check_range(b)?;
        let blk = self.get_mut(i);
        blk.backref_ino = br.ino.raw();
        blk.backref_idx = br.index.raw();
        Ok(())
    }

    /// Clears the live back-reference (the live tree no longer points at
    /// this block; a snapshot still might).
    pub fn clear_backref(&mut self, b: BlockNr) -> SimResult<()> {
        let i = self.check_range(b)?;
        self.get_mut(i).backref_ino = NO_BACKREF;
        Ok(())
    }

    /// Live back-reference of a block, if any.
    pub fn backref_of(&self, b: BlockNr) -> SimResult<Option<BackRef>> {
        let blk = self.get(self.check_range(b)?);
        if blk.backref_ino == NO_BACKREF {
            Ok(None)
        } else {
            Ok(Some(BackRef {
                ino: InodeNr(blk.backref_ino),
                index: PageIndex(blk.backref_idx),
            }))
        }
    }
}

impl sim_core::snapshot::StateDigest for BlockTable {
    fn digest_state(&self, d: &mut sim_core::snapshot::Digest) {
        d.write_u64(self.next_version);
        d.write_u64(self.capacity);
        let mut left = self.capacity as usize;
        for chunk in &self.chunks {
            let n = left.min(CHUNK_BLOCKS);
            for blk in &chunk[..n] {
                d.write_u64(blk.version);
                d.write_u64(if blk.sum_ok {
                    checksum_of(blk.version)
                } else {
                    0
                });
                d.write_u32(blk.refcount);
                d.write_u64(blk.backref_ino);
                d.write_u64(blk.backref_idx);
            }
            left -= n;
        }
        // Hash-set membership, sorted for iteration-order independence.
        let mut corrupted: Vec<u64> = self.corrupted.iter().copied().collect();
        corrupted.sort_unstable();
        d.write_usize(corrupted.len());
        for b in corrupted {
            d.write_u64(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::snapshot::StateDigest;
    use sim_core::SimRng;

    #[test]
    fn write_then_verify() {
        let mut t = BlockTable::new(16);
        let b = BlockNr(3);
        assert_eq!(t.version_of(b).unwrap(), 0);
        let v1 = t.write_block(b).unwrap();
        let v2 = t.write_block(b).unwrap();
        assert!(v2 > v1, "versions increase");
        t.verify_checksum(b).unwrap();
    }

    #[test]
    fn corruption_detected_and_repaired() {
        let mut t = BlockTable::new(16);
        let b = BlockNr(5);
        t.write_block(b).unwrap();
        t.inject_corruption(b).unwrap();
        assert_eq!(t.corrupted_count(), 1);
        assert_eq!(t.verify_checksum(b), Err(SimError::ChecksumMismatch(b)));
        t.repair(b).unwrap();
        t.verify_checksum(b).unwrap();
        assert_eq!(t.corrupted_count(), 0);
    }

    #[test]
    fn rewrite_clears_corruption() {
        let mut t = BlockTable::new(16);
        let b = BlockNr(1);
        t.write_block(b).unwrap();
        t.inject_corruption(b).unwrap();
        t.write_block(b).unwrap();
        t.verify_checksum(b).unwrap();
    }

    #[test]
    fn refcounts() {
        let mut t = BlockTable::new(16);
        let b = BlockNr(2);
        t.ref_inc(b).unwrap();
        t.ref_inc(b).unwrap();
        assert_eq!(t.refcount_of(b).unwrap(), 2);
        assert!(!t.ref_dec(b).unwrap());
        assert!(t.ref_dec(b).unwrap(), "second dec frees");
    }

    #[test]
    #[should_panic(expected = "refcount underflow")]
    fn refcount_underflow_panics() {
        let mut t = BlockTable::new(16);
        let _ = t.ref_dec(BlockNr(0));
    }

    #[test]
    fn backrefs_roundtrip() {
        let mut t = BlockTable::new(16);
        let b = BlockNr(7);
        assert_eq!(t.backref_of(b).unwrap(), None);
        let br = BackRef {
            ino: InodeNr(12),
            index: PageIndex(3),
        };
        t.set_backref(b, br).unwrap();
        assert_eq!(t.backref_of(b).unwrap(), Some(br));
        t.clear_backref(b).unwrap();
        assert_eq!(t.backref_of(b).unwrap(), None);
    }

    #[test]
    fn out_of_range_errors() {
        let mut t = BlockTable::new(4);
        let b = BlockNr(4);
        assert_eq!(t.write_block(b), Err(SimError::BlockOutOfRange(b)));
        assert_eq!(t.verify_checksum(b), Err(SimError::BlockOutOfRange(b)));
        assert_eq!(t.ref_inc(b), Err(SimError::BlockOutOfRange(b)));
    }

    #[test]
    fn run_ops_reject_out_of_range_runs_untouched() {
        let mut t = BlockTable::new(4);
        let run = Run {
            start: BlockNr(2),
            len: 3,
        };
        let err = Err(SimError::BlockOutOfRange(BlockNr(4)));
        assert_eq!(t.claim_run(run, InodeNr(1), 0), err);
        assert_eq!(t.ref_inc_run(run), err);
        assert_eq!(t.release_run(run, true, |_| {}), err);
        assert_eq!(t.refcount_of(BlockNr(2)).unwrap(), 0, "nothing mutated");
        assert_eq!(t.version_of(BlockNr(2)).unwrap(), 0);
    }

    /// Drives every per-block mutator with a seeded op mix over
    /// `t.capacity()` blocks.
    fn scripted(t: &mut BlockTable, seed: u64, ops: u64) {
        let n = t.capacity();
        let mut rng = SimRng::new(seed);
        for _ in 0..ops {
            let b = BlockNr(rng.gen_range(0, n));
            match rng.gen_range(0, 8) {
                0 | 1 => {
                    t.write_block(b).unwrap();
                }
                2 => t.ref_inc(b).unwrap(),
                3 => {
                    if t.refcount_of(b).unwrap() > 0 {
                        t.ref_dec(b).unwrap();
                    }
                }
                4 => {
                    let br = BackRef {
                        ino: InodeNr(rng.gen_range(1, 100)),
                        index: PageIndex(rng.gen_range(0, 1000)),
                    };
                    t.set_backref(b, br).unwrap();
                }
                5 => t.clear_backref(b).unwrap(),
                6 => t.inject_corruption(b).unwrap(),
                _ => t.repair(b).unwrap(),
            }
        }
    }

    /// 5000 blocks: several chunks and a partial last one.
    const PIN_BLOCKS: u64 = 5000;

    #[test]
    fn digest_is_pinned_to_the_flat_layout() {
        // Captured from the earlier layout (five flat per-field arrays),
        // which hashed the same fields in the same order: the chunked
        // records must feed the digest byte-identical input.
        assert_eq!(
            BlockTable::new(PIN_BLOCKS).state_digest_hex(),
            "be8f68a8aadf26cd4fbe72be87f2ef36"
        );
        let mut t = BlockTable::new(PIN_BLOCKS);
        scripted(&mut t, 0xB10C_7AB1E, 4000);
        assert_eq!(t.state_digest_hex(), "7bed2cd32e5359a6e96b9eb5c20e3755");
    }

    #[test]
    fn clone_is_isolated_and_equals_an_unshared_twin() {
        for seed in 0..8u64 {
            let mut original = BlockTable::new(PIN_BLOCKS);
            scripted(&mut original, seed, 1500);
            let mut twin = BlockTable::new(PIN_BLOCKS);
            scripted(&mut twin, seed, 1500);
            let before = original.state_digest_hex();
            let mut fork = original.clone();
            scripted(&mut fork, seed ^ 0xF0_4C, 3000);
            scripted(&mut twin, seed ^ 0xF0_4C, 3000);
            assert_eq!(original.state_digest_hex(), before, "seed {seed}");
            assert_eq!(fork.state_digest_hex(), twin.state_digest_hex());
            // The original mutating after the fork leaves the fork alone.
            let fork_digest = fork.state_digest_hex();
            scripted(&mut original, seed ^ 0x0416, 500);
            assert_eq!(fork.state_digest_hex(), fork_digest);
        }
    }

    #[test]
    fn run_ops_equal_their_per_block_loops() {
        let mut rng = SimRng::new(0x2A5);
        let mut runs_t = BlockTable::new(PIN_BLOCKS);
        let mut blocks_t = BlockTable::new(PIN_BLOCKS);
        for _ in 0..400 {
            let start = rng.gen_range(0, PIN_BLOCKS - 1);
            let len = rng.gen_range(1, (PIN_BLOCKS - start).min(2 * CHUNK_BLOCKS as u64));
            let run = Run {
                start: BlockNr(start),
                len,
            };
            let blocks = (start..start + len).map(BlockNr);
            match rng.gen_range(0, 4) {
                0 => {
                    let (ino, index0) = (InodeNr(rng.gen_range(1, 9)), rng.gen_range(0, 64));
                    runs_t.claim_run(run, ino, index0).unwrap();
                    for (k, b) in blocks.enumerate() {
                        blocks_t.write_block(b).unwrap();
                        blocks_t.ref_inc(b).unwrap();
                        let index = PageIndex(index0 + k as u64);
                        blocks_t.set_backref(b, BackRef { ino, index }).unwrap();
                    }
                }
                1 => {
                    runs_t.ref_inc_run(run).unwrap();
                    for b in blocks {
                        blocks_t.ref_inc(b).unwrap();
                    }
                }
                2 => {
                    // Release only where every block is referenced.
                    if blocks.clone().all(|b| runs_t.refcount_of(b).unwrap() > 0) {
                        let live = rng.gen_range(0, 2) == 0;
                        let mut freed = Vec::new();
                        runs_t.release_run(run, live, |f| freed.push(f)).unwrap();
                        let mut want: Vec<Run> = Vec::new();
                        for b in blocks {
                            if live {
                                blocks_t.clear_backref(b).unwrap();
                            }
                            if blocks_t.ref_dec(b).unwrap() {
                                match want.last_mut() {
                                    Some(r) if r.start.raw() + r.len == b.raw() => r.len += 1,
                                    _ => want.push(Run { start: b, len: 1 }),
                                }
                            }
                        }
                        assert_eq!(freed, want, "freed sub-runs are maximal");
                    }
                }
                _ => {
                    let b = BlockNr(start);
                    runs_t.inject_corruption(b).unwrap();
                    blocks_t.inject_corruption(b).unwrap();
                }
            }
            assert_eq!(runs_t.state_digest_hex(), blocks_t.state_digest_hex());
        }
    }

    #[test]
    #[should_panic(expected = "refcount underflow")]
    fn release_run_underflow_panics() {
        let mut t = BlockTable::new(16);
        let run = Run {
            start: BlockNr(2),
            len: 4,
        };
        t.claim_run(run, InodeNr(1), 0).unwrap();
        t.ref_dec(BlockNr(4)).unwrap();
        let _ = t.release_run(run, true, |_| {});
    }
}
