//! Reference-model test of eviction victim choice.
//!
//! `PageCache` resumes each eviction's clean-victim search where the
//! previous one stopped (DESIGN.md §14.6). The model here is the rule
//! that search must reproduce, written the plain way: a `Vec` in LRU
//! order (head first) and, on every eviction, a fresh walk from the
//! head over at most `CLEAN_SCAN` entries for the first clean,
//! unprotected page, then the first clean protected one, then the head
//! itself. Random op sequences drive both with the op mix of the
//! `cache_scan_log` golden: runs of clean misses, dirty bursts past the
//! scan bound, hit lookups, `mark_dirty`, background writeback with
//! injected failures, fsync-style flushes, removals, advisory
//! protection and eviction storms. After every op the evicted lists,
//! drained event streams, dirty counts and statistics must match.
//!
//! `DUET_CHECK_SEED` (decimal or `0x` hex) overrides the pinned base
//! seed; a malformed value fails the test. A failure prints the base
//! seed and the case seed that replays it.

use sim_cache::{CacheStats, PageCache, PageEvent, PageKey, PageMeta};
use sim_core::check::{forall, CheckConfig};
use sim_core::fault::{seed_from_env, FaultHandle, FaultPlan, FaultSite};
use sim_core::{BlockNr, InodeNr, PageIndex, SimRng};
use std::collections::BTreeSet;

/// The cache's scan bound (`PageCache::CLEAN_SCAN`).
const CLEAN_SCAN: usize = 1024;

/// The plain cache: LRU order is `Vec` order, head first. The dirty
/// list is the LRU order restricted to dirty pages, since every dirty
/// transition and every touch moves a page to both tails at once.
struct Reference {
    capacity: usize,
    lru: Vec<PageMeta>,
    protected: BTreeSet<PageKey>,
    events: Vec<(PageMeta, PageEvent)>,
    stats: CacheStats,
    faults: FaultHandle,
}

impl Reference {
    fn pos(&self, key: PageKey) -> Option<usize> {
        self.lru.iter().position(|m| m.key == key)
    }

    fn touch(&mut self, i: usize) {
        let m = self.lru.remove(i);
        self.lru.push(m);
    }

    fn lookup(&mut self, key: PageKey) -> Option<PageMeta> {
        match self.pos(key) {
            Some(i) => {
                let m = self.lru[i];
                self.stats.hits += 1;
                self.touch(i);
                Some(m)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn mark_dirty(&mut self, key: PageKey) -> bool {
        let Some(i) = self.pos(key) else {
            return false;
        };
        let was_dirty = self.lru[i].dirty;
        if !was_dirty {
            self.lru[i].dirty = true;
            self.events.push((self.lru[i], PageEvent::Dirtied));
        }
        self.touch(i);
        !was_dirty
    }

    fn insert(&mut self, key: PageKey, block: Option<BlockNr>, dirty: bool) -> Vec<PageMeta> {
        if let Some(i) = self.pos(key) {
            if block.is_some() {
                self.lru[i].block = block;
            }
            if dirty {
                self.mark_dirty(key);
            } else {
                self.touch(i);
            }
            return Vec::new();
        }
        let meta = PageMeta { key, block, dirty };
        self.lru.push(meta);
        self.stats.insertions += 1;
        self.events.push((meta, PageEvent::Added));
        if dirty {
            self.events.push((meta, PageEvent::Dirtied));
        }
        let mut target = self.capacity;
        if self.lru.len() > 1 && self.faults.fire(FaultSite::CacheEvictionStorm) {
            let max_shed = (self.capacity / 4).max(1) as u64;
            let shed = self
                .faults
                .amplitude(FaultSite::CacheEvictionStorm, 1, max_shed + 1);
            target = self.capacity.saturating_sub(shed as usize).max(1);
        }
        let mut evicted = Vec::new();
        while self.lru.len() > target {
            let scan = CLEAN_SCAN.min(self.lru.len() - 1).max(1);
            let mut clean_protected = None;
            let mut chosen = None;
            for (i, m) in self.lru.iter().enumerate().take(scan) {
                if m.dirty {
                    continue;
                }
                if self.protected.contains(&m.key) {
                    clean_protected = clean_protected.or(Some(i));
                } else {
                    chosen = Some(i);
                    break;
                }
            }
            let before = self.lru.remove(chosen.or(clean_protected).unwrap_or(0));
            if before.dirty {
                self.stats.writebacks += 1;
                let clean = PageMeta {
                    dirty: false,
                    ..before
                };
                self.events.push((clean, PageEvent::Flushed));
                self.events.push((clean, PageEvent::Removed));
            } else {
                self.events.push((before, PageEvent::Removed));
            }
            self.stats.evictions += 1;
            evicted.push(before);
        }
        evicted
    }

    fn clean(&mut self, i: usize) -> PageMeta {
        self.lru[i].dirty = false;
        self.stats.writebacks += 1;
        self.events.push((self.lru[i], PageEvent::Flushed));
        self.lru[i]
    }

    fn writeback_batch(&mut self, max: usize) -> Vec<PageMeta> {
        let victims: Vec<usize> = (0..self.lru.len())
            .filter(|&i| self.lru[i].dirty)
            .take(max)
            .collect();
        let mut out = Vec::new();
        for i in victims {
            if !self.faults.fire(FaultSite::CacheWritebackFail) {
                out.push(self.clean(i));
            }
        }
        out
    }

    fn flush_file(&mut self, ino: InodeNr) -> Vec<PageMeta> {
        let mut victims: Vec<usize> = (0..self.lru.len())
            .filter(|&i| self.lru[i].key.ino == ino && self.lru[i].dirty)
            .collect();
        victims.sort_by_key(|&i| self.lru[i].key.index);
        victims.into_iter().map(|i| self.clean(i)).collect()
    }

    fn remove(&mut self, key: PageKey) -> Option<PageMeta> {
        let m = self.lru.remove(self.pos(key)?);
        self.events.push((m, PageEvent::Removed));
        Some(m)
    }

    fn remove_file(&mut self, ino: InodeNr) -> Vec<PageMeta> {
        let mut keys: Vec<PageKey> = self
            .lru
            .iter()
            .filter(|m| m.key.ino == ino)
            .map(|m| m.key)
            .collect();
        keys.sort_unstable();
        keys.into_iter().filter_map(|k| self.remove(k)).collect()
    }

    fn set_protected(&mut self, keys: &[PageKey], max: usize) {
        self.protected = keys.iter().copied().take(max).collect();
    }

    fn dirty_len(&self) -> usize {
        self.lru.iter().filter(|m| m.dirty).count()
    }
}

/// One scripted operation; page ranges are `(ino, start, len)` and wrap
/// within the file.
#[derive(Debug, Clone)]
enum Op {
    /// Lookup each page, insert the misses clean.
    Read(u64, u64, u64),
    /// Insert each page dirty with no block (delayed allocation).
    Burst(u64, u64, u64),
    /// Insert each page dirty with its block.
    Write(u64, u64, u64),
    Lookup(Vec<PageKey>),
    Dirty(Vec<PageKey>),
    Writeback(usize),
    FlushFile(u64),
    Remove(PageKey),
    RemoveFile(u64),
    Protect(Vec<PageKey>, usize),
}

/// Case shape: cache size, file count and pages per file. Small caches
/// make hits, re-dirtying and protection of the LRU head common; large
/// ones (above the scan bound) reach the all-dirty fallback.
struct Shape {
    capacity: usize,
    files: u64,
    pages: u64,
}

fn page(shape: &Shape, ino: u64, i: u64) -> PageKey {
    PageKey::new(InodeNr(ino), PageIndex(i % shape.pages))
}

/// The `cache_scan_log` op mix, scaled to the case's cache size.
fn gen_op(rng: &mut SimRng, shape: &Shape, last_read: &mut (u64, u64, u64)) -> Op {
    let cap = shape.capacity as u64;
    let large = shape.capacity > CLEAN_SCAN;
    let ino = rng.gen_range(1, shape.files + 1);
    let start = rng.gen_range(0, shape.pages);
    let from_last = |rng: &mut SimRng, n: u64| -> Vec<PageKey> {
        let (rino, rstart, rlen) = *last_read;
        (0..n)
            .map(|_| page(shape, rino, rstart + rng.gen_range(0, rlen)))
            .collect()
    };
    match rng.gen_range(0, 20) {
        0..=7 => {
            let len = if large {
                rng.gen_range(64, 257)
            } else {
                rng.gen_range(1, cap + 5)
            };
            *last_read = (ino, start, len);
            Op::Read(ino, start, len)
        }
        8 => {
            let len = if large {
                rng.gen_range(CLEAN_SCAN as u64, cap)
            } else {
                rng.gen_range(cap / 2, cap + 3)
            };
            Op::Burst(ino, start, len)
        }
        9..=10 => Op::Write(ino, start, rng.gen_range(1, 33.min(cap + 2))),
        11..=12 => {
            let n = rng.gen_range(1, 17);
            Op::Lookup(from_last(rng, n))
        }
        13 => {
            let n = rng.gen_range(1, 17);
            Op::Dirty(from_last(rng, n))
        }
        14..=15 => Op::Writeback(rng.gen_range(1, cap / 3 + 2) as usize),
        16 => Op::FlushFile(ino),
        17 => {
            if rng.gen_range(0, 3) == 0 {
                Op::RemoveFile(ino)
            } else {
                Op::Remove(from_last(rng, 1)[0])
            }
        }
        _ => {
            let (rino, rstart, rlen) = *last_read;
            let n = if rng.gen_range(0, 4) == 0 { 0 } else { rlen };
            let keys = (0..n).map(|i| page(shape, rino, rstart + i)).collect();
            Op::Protect(keys, rng.gen_range(0, cap / 4 + 2) as usize)
        }
    }
}

/// Applies `op` to both caches, returning each side's evicted (or
/// otherwise returned) pages in order.
fn apply(c: &mut PageCache, r: &mut Reference, shape: &Shape, op: &Op) -> [Vec<PageMeta>; 2] {
    let block = |k: PageKey| Some(BlockNr(k.ino.raw() * shape.pages + k.index.raw()));
    let range =
        |&(ino, start, len): &(u64, u64, u64)| (0..len).map(move |i| page(shape, ino, start + i));
    let mut got = Vec::new();
    let mut want = Vec::new();
    match op {
        Op::Read(ino, start, len) => {
            for k in range(&(*ino, *start, *len)) {
                let hit = c.lookup(k);
                assert_eq!(hit, r.lookup(k), "lookup {k:?}");
                if hit.is_none() {
                    c.insert_into(k, block(k), false, &mut got);
                    want.extend(r.insert(k, block(k), false));
                }
            }
        }
        Op::Burst(ino, start, len) | Op::Write(ino, start, len) => {
            let delayed = matches!(op, Op::Burst(..));
            for k in range(&(*ino, *start, *len)) {
                let b = if delayed { None } else { block(k) };
                c.insert_into(k, b, true, &mut got);
                want.extend(r.insert(k, b, true));
            }
        }
        Op::Lookup(keys) => {
            for &k in keys {
                assert_eq!(c.lookup(k), r.lookup(k), "lookup {k:?}");
            }
        }
        Op::Dirty(keys) => {
            for &k in keys {
                assert_eq!(c.mark_dirty(k), r.mark_dirty(k), "mark_dirty {k:?}");
            }
        }
        Op::Writeback(max) => {
            got = c.writeback_batch(*max);
            want = r.writeback_batch(*max);
        }
        Op::FlushFile(ino) => {
            got = c.flush_file(InodeNr(*ino));
            want = r.flush_file(InodeNr(*ino));
        }
        Op::Remove(k) => {
            got.extend(c.remove(*k));
            want.extend(r.remove(*k));
        }
        Op::RemoveFile(ino) => {
            got = c.remove_file(InodeNr(*ino));
            want = r.remove_file(InodeNr(*ino));
        }
        Op::Protect(keys, max) => {
            c.set_protected(keys.iter().copied(), *max);
            r.set_protected(keys, *max);
        }
    }
    [got, want]
}

#[test]
fn victim_choice_matches_restart_from_head_walk() {
    let seed = seed_from_env("DUET_CHECK_SEED", 0x5CA7_C0DE).unwrap_or_else(|e| panic!("{e}"));
    let cfg = CheckConfig::new("cache-victim-choice-vs-reference", seed).cases(48);
    forall(&cfg, |case, rng| {
        // Every fourth case runs a cache above the scan bound.
        let shape = if case % 4 == 3 {
            let capacity = rng.gen_range(CLEAN_SCAN as u64 + 64, 1601) as usize;
            Shape {
                capacity,
                files: 6,
                pages: 2048,
            }
        } else {
            let capacity = rng.gen_range(2, 40) as usize;
            Shape {
                capacity,
                files: 4,
                pages: 2 * capacity as u64,
            }
        };
        let fault_seed = rng.next_u64();
        let plan = FaultPlan::quiet()
            .with_ppm(
                FaultSite::CacheEvictionStorm,
                rng.gen_range(0, 20_000) as u32,
            )
            .with_ppm(
                FaultSite::CacheWritebackFail,
                rng.gen_range(0, 200_000) as u32,
            );
        let mut c = PageCache::new(shape.capacity);
        c.set_faults(Some(FaultHandle::new(fault_seed, plan.clone())));
        let mut r = Reference {
            capacity: shape.capacity,
            lru: Vec::new(),
            protected: BTreeSet::new(),
            events: Vec::new(),
            stats: CacheStats::default(),
            faults: FaultHandle::new(fault_seed, plan),
        };
        let ops = if shape.capacity > CLEAN_SCAN {
            120
        } else {
            400
        };
        let mut last_read = (1, 0, 1);
        for step in 0..ops {
            let op = gen_op(rng, &shape, &mut last_read);
            let [got, want] = apply(&mut c, &mut r, &shape, &op);
            let ctx = || format!("step {step}, capacity {}, op {op:?}", shape.capacity);
            if got != want {
                return Err(format!("returned pages diverged at {}", ctx()));
            }
            if c.drain_events() != std::mem::take(&mut r.events) {
                return Err(format!("event stream diverged at {}", ctx()));
            }
            if c.dirty_len() != r.dirty_len() || c.len() != r.lru.len() {
                return Err(format!("dirty/resident counts diverged at {}", ctx()));
            }
            if c.stats() != r.stats {
                return Err(format!("statistics diverged at {}", ctx()));
            }
        }
        Ok(())
    })
    .unwrap_or_else(|f| {
        panic!("{f}\n  base seed {seed:#x}: replay with DUET_CHECK_SEED={seed:#x}")
    });
}
