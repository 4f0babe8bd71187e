//! Golden serialization of experiment results.
//!
//! The determinism tests pin these strings against committed fixtures
//! (`tests/fixtures/`), so the serialization itself is part of the
//! golden contract: floats are rendered from their bit patterns, never
//! through display rounding, and every observable field is included.
//! The `dump_golden` bench binary regenerates the fixtures with the
//! exact same code path (see DESIGN.md §12 for the re-baselining
//! procedure).

use crate::metrics::ExperimentResult;
use crate::runner::RsyncResult;

/// Serializes every observable field of a result, exactly. Floats are
/// rendered from their bit patterns so the comparison cannot be fooled
/// by display rounding.
pub fn golden_csv(r: &ExperimentResult) -> String {
    let mut out = String::new();
    out.push_str("field,value\n");
    out.push_str(&format!("duration,{:?}\n", r.duration));
    out.push_str(&format!(
        "achieved_util,{:016x}\n",
        r.achieved_util.to_bits()
    ));
    out.push_str(&format!("workload_ops,{}\n", r.workload_ops));
    out.push_str(&format!("maintenance_blocks,{}\n", r.maintenance_blocks));
    out.push_str(&format!("maintenance_busy,{:?}\n", r.maintenance_busy));
    out.push_str(&format!("foreground_blocks,{}\n", r.foreground_blocks));
    out.push_str(&format!(
        "workload_latency_ms,{:016x},{:016x}\n",
        r.workload_latency_ms.0.to_bits(),
        r.workload_latency_ms.1.to_bits()
    ));
    out.push_str(&format!("duet_peak_memory,{}\n", r.duet_peak_memory));
    if let Some(s) = &r.duet_stats {
        out.push_str(&format!(
            "duet_stats,{},{},{},{},{}\n",
            s.events_processed,
            s.events_dropped,
            s.fetch_calls,
            s.items_fetched,
            s.peak_descriptors
        ));
    }
    for t in &r.tasks {
        out.push_str(&format!(
            "task,{},{},{},{},{},{},{},{:?}\n",
            t.name,
            t.metrics.total_units,
            t.metrics.done_units,
            t.metrics.saved_units,
            t.metrics.blocks_read,
            t.metrics.blocks_written,
            t.completed,
            t.completion_time
        ));
    }
    out
}

/// One-line golden serialization of an rsync run.
pub fn golden_rsync_line(r: &RsyncResult) -> String {
    format!(
        "{:?},{},{},{},{},{}",
        r.completion,
        r.metrics.total_units,
        r.metrics.done_units,
        r.metrics.saved_units,
        r.metrics.blocks_read,
        r.metrics.blocks_written
    )
}

/// 128-bit FNV-1a digest, hex-rendered. Used to pin large byte streams
/// (the trace JSONL) in a small fixture file without committing
/// megabytes of events.
pub fn fnv128_hex(bytes: &[u8]) -> String {
    // Two independent 64-bit FNV-1a passes (distinct offset bases)
    // rendered side by side: collisions would need to defeat both.
    let mut a: u64 = 0xcbf29ce484222325;
    let mut b: u64 = 0x811c9dc5a54c2a3d;
    for &x in bytes {
        a = (a ^ x as u64).wrapping_mul(0x100000001b3);
        b = (b ^ (x as u64).rotate_left(17)).wrapping_mul(0x100000001b3);
    }
    format!("{a:016x}{b:016x}")
}

/// Scripted page-cache op mix, serialized event by event. Every
/// observable of the cache — returned evictions, emitted events,
/// statistics, residency counters — is rendered in order, so the log
/// pins the exact hook sequence Duet would see. Used to prove the
/// O(1) container migration byte-identical to the B-tree cache.
pub fn cache_event_log(seed: u64, ops: u64) -> String {
    use sim_cache::{PageCache, PageKey};
    use sim_core::{BlockNr, InodeNr, PageIndex, SimRng};
    let mut rng = SimRng::new(seed);
    let mut c = PageCache::new(64);
    let mut out = String::new();
    let meta_str = |m: &sim_cache::PageMeta| {
        format!(
            "{}:{}:{}:{}",
            m.key.ino.raw(),
            m.key.index.raw(),
            m.block.map(|b| b.raw() as i64).unwrap_or(-1),
            m.dirty
        )
    };
    for op in 0..ops {
        let ino = InodeNr(rng.gen_range(0, 12));
        let idx = PageIndex(rng.gen_range(0, 16));
        let k = PageKey::new(ino, idx);
        match rng.gen_range(0, 10) {
            0..=2 => {
                let dirty = rng.gen_range(0, 3) == 0;
                let block = if rng.gen_range(0, 2) == 0 {
                    Some(BlockNr(rng.gen_range(0, 4096)))
                } else {
                    None
                };
                let ev = c.insert(k, block, dirty);
                out.push_str(&format!("insert {}", ev.len()));
                for m in &ev {
                    out.push_str(&format!(" {}", meta_str(m)));
                }
                out.push('\n');
            }
            3..=4 => {
                out.push_str(&format!(
                    "lookup {}\n",
                    c.lookup(k).as_ref().map(meta_str).unwrap_or("-".into())
                ));
            }
            5 => {
                out.push_str(&format!("dirty {}\n", c.mark_dirty(k)));
            }
            6 => {
                let batch = c.writeback_batch(rng.gen_range(1, 8) as usize);
                out.push_str(&format!("writeback {}", batch.len()));
                for m in &batch {
                    out.push_str(&format!(" {}", meta_str(m)));
                }
                out.push('\n');
            }
            7 => {
                let fl = c.flush_file(ino);
                out.push_str(&format!("flush_file {}", fl.len()));
                for m in &fl {
                    out.push_str(&format!(" {}", meta_str(m)));
                }
                out.push('\n');
            }
            8 => {
                if rng.gen_range(0, 4) == 0 {
                    let rm = c.remove_file(ino);
                    out.push_str(&format!("remove_file {}\n", rm.len()));
                } else {
                    out.push_str(&format!(
                        "remove {}\n",
                        c.remove(k).as_ref().map(meta_str).unwrap_or("-".into())
                    ));
                }
            }
            _ => {
                // Advisory protection over a pseudo-random slice, then
                // an insert that may have to respect it.
                let base = rng.gen_range(0, 12);
                c.set_protected(
                    (0..8).map(|i| PageKey::new(InodeNr(base), PageIndex(i))),
                    16,
                );
                out.push_str(&format!("protect {}\n", c.protected_len()));
            }
        }
        if op % 16 == 0 {
            let evs = c.drain_events();
            out.push_str(&format!("drain {}", evs.len()));
            for (m, e) in &evs {
                out.push_str(&format!(" {}={:?}", meta_str(m), e));
            }
            out.push('\n');
            let resident: Vec<String> = c.iter().map(|m| meta_str(&m)).collect();
            out.push_str(&format!("iter {}\n", resident.join(" ")));
        }
    }
    let s = c.stats();
    out.push_str(&format!(
        "stats {} {} {} {} {}\n",
        s.hits, s.misses, s.insertions, s.evictions, s.writebacks
    ));
    out
}

/// Scripted page-cache op mix at a capacity above the eviction scan
/// bound (`CLEAN_SCAN`, 1024 entries), serialized op by op. Where
/// [`cache_event_log`] drives a 64-page cache, this one drives 1536
/// pages with the traffic that stresses victim choice: runs of 64–256
/// clean misses (a file read), dirty bursts long enough that more than
/// 1024 dirty pages precede the first clean one (so eviction takes the
/// all-dirty fallback), hit lookups, `mark_dirty`, background
/// writeback, fsync-style flushes, removals, advisory protection and
/// an eviction-storm / writeback-failure fault plan with a pinned
/// seed. Each op logs its evicted list (run-length encoded, lossless),
/// its drained events (count plus a digest of their exact rendering)
/// and the resulting size and dirty count; the log ends with the
/// statistics and the cache's state digest.
pub fn cache_scan_log(seed: u64, ops: u64) -> String {
    use sim_cache::{PageCache, PageEvent, PageKey, PageMeta};
    use sim_core::fault::{FaultHandle, FaultPlan, FaultSite};
    use sim_core::snapshot::StateDigest;
    use sim_core::{BlockNr, InodeNr, PageIndex, SimRng};

    const CAPACITY: usize = 1536;
    const FILES: u64 = 12;
    const PAGES: u64 = 4096;
    let mut rng = SimRng::new(seed);
    let mut c = PageCache::new(CAPACITY);
    c.set_faults(Some(FaultHandle::new(
        0x5CA9,
        FaultPlan::quiet()
            .with_ppm(FaultSite::CacheEvictionStorm, 1_000)
            .with_ppm(FaultSite::CacheWritebackFail, 50_000),
    )));
    // Read blocks follow the key, so a sequential run's blocks are
    // consecutive and its evictions compress to a few runs.
    let read_block = |k: PageKey| Some(BlockNr(k.ino.raw() * PAGES + k.index.raw()));
    // Runs of consecutive pages of one file with the same dirty flag
    // and consecutive (or all-unallocated) blocks render as one entry.
    let runs_str = |metas: &[PageMeta]| {
        let mut out = String::new();
        let mut i = 0;
        while i < metas.len() {
            let first = metas[i];
            let mut n = 1;
            while i + n < metas.len() {
                let (prev, m) = (metas[i + n - 1], metas[i + n]);
                let block_next = match (prev.block, m.block) {
                    (None, None) => true,
                    (Some(a), Some(b)) => b.raw() == a.raw() + 1,
                    _ => false,
                };
                if m.key.ino != first.key.ino
                    || m.key.index.raw() != prev.key.index.raw() + 1
                    || m.dirty != first.dirty
                    || !block_next
                {
                    break;
                }
                n += 1;
            }
            out.push_str(&format!(
                " {}:{}+{}:{}:{}",
                first.key.ino.raw(),
                first.key.index.raw(),
                n,
                first.block.map(|b| b.raw() as i64).unwrap_or(-1),
                u8::from(first.dirty)
            ));
            i += n;
        }
        out
    };
    let mut evicted = Vec::new();
    let mut last_read = (InodeNr(1), 0u64, 1u64);
    let mut out = String::new();
    for _ in 0..ops {
        evicted.clear();
        let ino = InodeNr(rng.gen_range(1, FILES + 1));
        let start = rng.gen_range(0, PAGES);
        let line = match rng.gen_range(0, 20) {
            0..=7 => {
                // A file read: lookup each page, insert the misses clean.
                let len = rng.gen_range(64, 257);
                let mut hits = 0;
                for i in 0..len {
                    let k = PageKey::new(ino, PageIndex((start + i) % PAGES));
                    if c.lookup(k).is_some() {
                        hits += 1;
                    } else {
                        c.insert_into(k, read_block(k), false, &mut evicted);
                    }
                }
                last_read = (ino, start, len);
                format!("read {}:{start}+{len} hits {hits}", ino.raw())
            }
            8 => {
                // A dirty burst (delayed allocation: no blocks yet).
                let len = rng.gen_range(1024, 1400);
                for i in 0..len {
                    let k = PageKey::new(ino, PageIndex((start + i) % PAGES));
                    c.insert_into(k, None, true, &mut evicted);
                }
                format!("burst {}:{start}+{len}", ino.raw())
            }
            9..=10 => {
                let len = rng.gen_range(1, 33);
                for i in 0..len {
                    let k = PageKey::new(ino, PageIndex((start + i) % PAGES));
                    c.insert_into(k, read_block(k), true, &mut evicted);
                }
                format!("write {}:{start}+{len}", ino.raw())
            }
            11..=12 => {
                // Re-reads inside the last read run: mostly hits.
                let (rino, rstart, rlen) = last_read;
                let mut pattern = String::new();
                for _ in 0..16 {
                    let k =
                        PageKey::new(rino, PageIndex((rstart + rng.gen_range(0, rlen)) % PAGES));
                    pattern.push(if c.lookup(k).is_some() { 'h' } else { 'm' });
                }
                format!("lookup {pattern}")
            }
            13 => {
                let (rino, rstart, rlen) = last_read;
                let mut pattern = String::new();
                for _ in 0..rng.gen_range(1, 17) {
                    let k =
                        PageKey::new(rino, PageIndex((rstart + rng.gen_range(0, rlen)) % PAGES));
                    pattern.push(if c.mark_dirty(k) { 'd' } else { '-' });
                }
                format!("dirty {pattern}")
            }
            14..=15 => {
                let batch = c.writeback_batch(rng.gen_range(1, 513) as usize);
                format!("writeback{}", runs_str(&batch))
            }
            16 => {
                let flushed = c.flush_file(ino);
                format!("flush_file {}{}", ino.raw(), runs_str(&flushed))
            }
            17 => {
                if rng.gen_range(0, 3) == 0 {
                    let removed = c.remove_file(ino);
                    format!("remove_file {} {}", ino.raw(), removed.len())
                } else {
                    let (rino, rstart, rlen) = last_read;
                    let k =
                        PageKey::new(rino, PageIndex((rstart + rng.gen_range(0, rlen)) % PAGES));
                    let removed = c.remove(k);
                    format!("remove {}", runs_str(removed.as_slice()))
                }
            }
            _ => {
                // Advisory protection over a slice of the last read run
                // (sometimes cleared), capped below the run length.
                let (rino, rstart, rlen) = last_read;
                let n = if rng.gen_range(0, 4) == 0 { 0 } else { rlen };
                let max = rng.gen_range(0, 385) as usize;
                c.set_protected(
                    (0..n).map(|i| PageKey::new(rino, PageIndex((rstart + i) % PAGES))),
                    max,
                );
                format!("protect {}", c.protected_len())
            }
        };
        let events = c.drain_events();
        let mut rendered = String::new();
        let mut kinds = [0usize; 4];
        for (m, e) in &events {
            kinds[match e {
                PageEvent::Added => 0,
                PageEvent::Removed => 1,
                PageEvent::Dirtied => 2,
                PageEvent::Flushed => 3,
            }] += 1;
            rendered.push_str(&format!(
                "{}:{}:{}:{}={:?} ",
                m.key.ino.raw(),
                m.key.index.raw(),
                m.block.map(|b| b.raw() as i64).unwrap_or(-1),
                m.dirty,
                e
            ));
        }
        out.push_str(&format!(
            "{line} | evicted {}{} | events {} a{} r{} d{} f{} {} | len {} dirty {}\n",
            evicted.len(),
            runs_str(&evicted),
            events.len(),
            kinds[0],
            kinds[1],
            kinds[2],
            kinds[3],
            fnv128_hex(rendered.as_bytes()),
            c.len(),
            c.dirty_len()
        ));
    }
    let s = c.stats();
    out.push_str(&format!(
        "stats {} {} {} {} {}\n",
        s.hits, s.misses, s.insertions, s.evictions, s.writebacks
    ));
    out.push_str(&format!("digest {}\n", c.state_digest_hex()));
    out
}

/// Scripted priority-queue op mix: upserts, removes and pops with
/// plenty of priority ties, serialized pop by pop. Pins the documented
/// tie-break order (max priority, ties by largest key) across the
/// B-tree → binary-heap migration.
pub fn prioqueue_pop_log(seed: u64, ops: u64) -> String {
    use duet::PrioQueue;
    use sim_core::SimRng;
    let mut rng = SimRng::new(seed);
    let mut q: PrioQueue<u64, u64> = PrioQueue::new();
    let mut out = String::new();
    for _ in 0..ops {
        let k = rng.gen_range(0, 48);
        match rng.gen_range(0, 5) {
            0..=2 => {
                // Few distinct priorities → frequent ties.
                let p = rng.gen_range(0, 6);
                out.push_str(&format!("upsert {k} {p} {:?}\n", q.upsert(k, p)));
            }
            3 => {
                out.push_str(&format!("remove {k} {:?}\n", q.remove(k)));
            }
            _ => {
                out.push_str(&format!("pop {:?} peek {:?}\n", q.pop_max(), q.peek_max()));
            }
        }
    }
    let rest: Vec<String> = q.iter_desc().map(|(k, p)| format!("{k}:{p}")).collect();
    out.push_str(&format!("iter_desc {}\n", rest.join(" ")));
    while let Some((k, p)) = q.pop_max() {
        out.push_str(&format!("drain {k} {p}\n"));
    }
    out
}

/// Scripted extent-map op mix: overlapping `map_range` COW updates,
/// `unmap_range` holes, FIBMAP translations and full clears, serialized
/// op by op with every observable — displaced/unmapped physical blocks,
/// extent count, mapped pages and the full in-order extent list. Pins
/// the split/trim/merge behaviour of the `BTreeMap` → `DOrdMap`
/// migration byte for byte.
pub fn extent_oplog(seed: u64, ops: u64) -> String {
    use sim_btrfs::{ExtentMap, Run};
    use sim_core::{BlockNr, PageIndex, SimRng};
    let mut rng = SimRng::new(seed);
    let mut m = ExtentMap::new();
    let mut next_block: u64 = 0;
    let mut out = String::new();
    // Runs render as the block lists they cover, in order.
    let blocks_str = |runs: &[Run]| {
        runs.iter()
            .flat_map(|r| r.start.raw()..r.start.raw() + r.len)
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    for op in 0..ops {
        // Small logical space so updates overlap constantly, exercising
        // splits and trims on both edges.
        let start = rng.gen_range(0, 96);
        match rng.gen_range(0, 10) {
            0..=4 => {
                // COW write: one to three fresh runs of 1..8 pages.
                let nruns = rng.gen_range(1, 4);
                let mut runs = Vec::new();
                for _ in 0..nruns {
                    let len = rng.gen_range(1, 8);
                    runs.push(Run {
                        start: BlockNr(next_block),
                        len,
                    });
                    next_block += len;
                }
                let total: u64 = runs.iter().map(|r| r.len).sum();
                let displaced = m.map_range(start, &runs);
                out.push_str(&format!(
                    "map {start}+{total} displaced {}\n",
                    blocks_str(&displaced)
                ));
            }
            5..=6 => {
                let len = rng.gen_range(1, 16);
                let unmapped = m.unmap_range(start, len);
                out.push_str(&format!(
                    "unmap {start}+{len} freed {}\n",
                    blocks_str(&unmapped)
                ));
            }
            7..=8 => {
                let got = m
                    .block_of(PageIndex(start))
                    .map(|b| b.raw().to_string())
                    .unwrap_or("-".into());
                out.push_str(&format!("fibmap {start} {got}\n"));
            }
            _ => {
                if rng.gen_range(0, 24) == 0 {
                    let cleared = m.clear();
                    out.push_str(&format!("clear freed {}\n", blocks_str(&cleared)));
                } else {
                    out.push_str(&format!(
                        "count {} pages {}\n",
                        m.extent_count(),
                        m.mapped_pages()
                    ));
                }
            }
        }
        if op % 32 == 0 {
            let exts: Vec<String> = m
                .iter()
                .map(|e| format!("{}@{}+{}", e.logical, e.physical.raw(), e.len))
                .collect();
            out.push_str(&format!("iter {}\n", exts.join(" ")));
        }
    }
    out.push_str(&format!(
        "final count {} pages {}\n",
        m.extent_count(),
        m.mapped_pages()
    ));
    out
}

/// A scripted filesystem for [`duet_oplog`]: a fixed directory tree,
/// an ordered page cache and a FIBMAP table. Every answer is a pure
/// function of the script, so the framework sees the same world on
/// every run.
struct OplogFs {
    parents: std::collections::BTreeMap<sim_core::InodeNr, sim_core::InodeNr>,
    cache: std::collections::BTreeMap<sim_cache::PageKey, sim_cache::PageMeta>,
    fibmap: std::collections::BTreeMap<sim_cache::PageKey, sim_core::BlockNr>,
    next_block: u64,
}

impl OplogFs {
    fn alloc_block(&mut self) -> sim_core::BlockNr {
        self.next_block += 1;
        sim_core::BlockNr(self.next_block)
    }
}

impl sim_cache::FsIntrospect for OplogFs {
    fn device(&self) -> sim_core::DeviceId {
        sim_core::DeviceId(0)
    }

    fn is_under(&self, ino: sim_core::InodeNr, dir: sim_core::InodeNr) -> bool {
        let mut cur = ino;
        loop {
            if cur == dir {
                return true;
            }
            match self.parents.get(&cur) {
                Some(&p) if p != cur => cur = p,
                _ => return false,
            }
        }
    }

    fn path_of(&self, ino: sim_core::InodeNr) -> Option<String> {
        self.parents.get(&ino).map(|_| format!("/{}", ino.raw()))
    }

    fn fibmap(
        &self,
        ino: sim_core::InodeNr,
        index: sim_core::PageIndex,
    ) -> Option<sim_core::BlockNr> {
        self.fibmap
            .get(&sim_cache::PageKey::new(ino, index))
            .copied()
    }

    fn has_cached_pages(&self, ino: sim_core::InodeNr) -> bool {
        self.cache.keys().any(|k| k.ino == ino)
    }

    fn cached_pages(&self) -> Vec<sim_cache::PageMeta> {
        self.cache.values().copied().collect()
    }

    fn cached_pages_of(&self, ino: sim_core::InodeNr) -> Vec<sim_cache::PageMeta> {
        self.cache
            .values()
            .filter(|m| m.key.ino == ino)
            .copied()
            .collect()
    }
}

/// Scripted Duet framework op mix, serialized op by op. Four sessions
/// share one framework: a block session with `ADDED|DIRTIED`, a block
/// session with `EXISTS`, a file session with `EXISTS|MODIFIED` under a
/// subdirectory, and an event-only file session held to a small
/// descriptor limit. The script drives page events (with delayed
/// allocation and flush-time relocation), capped fetches, done marking
/// on blocks and inodes, file and directory renames across the
/// registered subtree, deletes, deregistration and re-registration,
/// churn and capped `pending_pages`. After every op the log records
/// what the op returned plus the descriptor count, statistics, §6.4
/// memory and the full state digest, which pins the descriptor store
/// byte for byte.
pub fn duet_oplog(seed: u64, ops: u64) -> String {
    use duet::{Duet, DuetConfig, EventMask, ItemId, SessionId, TaskScope};
    use sim_cache::{FsIntrospect, PageEvent, PageKey, PageMeta};
    use sim_core::snapshot::StateDigest;
    use sim_core::{BlockNr, DeviceId, InodeNr, PageIndex, SimRng};

    const ROOT: InodeNr = InodeNr(1);
    const SUB: InodeNr = InodeNr(2);
    const OUT: InodeNr = InodeNr(3);
    const DEEP: InodeNr = InodeNr(4);
    const FILES: [InodeNr; 5] = [
        InodeNr(10),
        InodeNr(11),
        InodeNr(12),
        InodeNr(13),
        InodeNr(14),
    ];
    let mut fs = OplogFs {
        parents: [
            (ROOT, ROOT),
            (SUB, ROOT),
            (OUT, ROOT),
            (DEEP, ROOT),
            (FILES[0], SUB),
            (FILES[1], SUB),
            (FILES[2], ROOT),
            (FILES[3], DEEP),
            (FILES[4], OUT),
        ]
        .into_iter()
        .collect(),
        cache: Default::default(),
        fibmap: Default::default(),
        next_block: 100,
    };
    let specs: [(TaskScope, EventMask); 4] = [
        (
            TaskScope::Block {
                device: DeviceId(0),
            },
            EventMask::ADDED | EventMask::DIRTIED,
        ),
        (
            TaskScope::Block {
                device: DeviceId(0),
            },
            EventMask::EXISTS,
        ),
        (
            TaskScope::File {
                registered_dir: SUB,
            },
            EventMask::EXISTS | EventMask::MODIFIED,
        ),
        (
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::ADDED | EventMask::REMOVED | EventMask::DIRTIED | EventMask::FLUSHED,
        ),
    ];
    let mut duet = Duet::new(DuetConfig {
        max_sessions: 6,
        descriptor_limit: 24,
    });
    let mut rng = SimRng::new(seed);
    let mut sids: Vec<Option<SessionId>> = Vec::new();
    let mut out = String::new();
    let sid_str = |s: Option<SessionId>| s.map_or("-".to_string(), |s| s.0.to_string());
    for (scope, mask) in specs {
        let r = duet.register(scope, mask, &fs);
        out.push_str(&format!("register {:?}\n", r));
        sids.push(r.ok());
    }
    for _ in 0..ops {
        let line = match rng.gen_range(0, 24) {
            0..=12 => {
                let ino = FILES[rng.gen_range(0, FILES.len() as u64) as usize];
                let key = PageKey::new(ino, PageIndex(rng.gen_range(0, 16)));
                let (ev, meta) = match fs.cache.get(&key).copied() {
                    None => {
                        let dirty = rng.gen_range(0, 3) == 0;
                        let block = match fs.fibmap.get(&key) {
                            Some(&b) => Some(b),
                            // Delayed allocation: a dirty new page may
                            // have no block until its flush.
                            None if dirty && rng.gen_range(0, 2) == 0 => None,
                            None => {
                                let b = fs.alloc_block();
                                fs.fibmap.insert(key, b);
                                Some(b)
                            }
                        };
                        let m = PageMeta { key, block, dirty };
                        fs.cache.insert(key, m);
                        (PageEvent::Added, m)
                    }
                    Some(m) if m.dirty && rng.gen_range(0, 4) != 0 => {
                        // Flush: allocate a delayed block, or relocate
                        // (log-structured) a third of the time.
                        let block = match m.block {
                            Some(b) if rng.gen_range(0, 3) != 0 => b,
                            _ => fs.alloc_block(),
                        };
                        fs.fibmap.insert(key, block);
                        let m = PageMeta {
                            key,
                            block: Some(block),
                            dirty: false,
                        };
                        fs.cache.insert(key, m);
                        (PageEvent::Flushed, m)
                    }
                    Some(m) if !m.dirty && rng.gen_range(0, 2) == 0 => {
                        let m = PageMeta { dirty: true, ..m };
                        fs.cache.insert(key, m);
                        (PageEvent::Dirtied, m)
                    }
                    Some(m) => {
                        fs.cache.remove(&key);
                        (PageEvent::Removed, m)
                    }
                };
                duet.handle_page_event(meta, ev, &fs);
                format!(
                    "event {:?} {}:{} b={:?} d={}",
                    ev,
                    key.ino.raw(),
                    key.index.raw(),
                    meta.block.map(|b| b.raw()),
                    meta.dirty
                )
            }
            13..=15 => {
                let which = rng.gen_range(0, sids.len() as u64) as usize;
                let max = rng.gen_range(1, 9) as usize;
                match sids[which] {
                    Some(sid) => match duet.fetch(sid, max, &fs) {
                        Ok(items) => {
                            let shown: Vec<String> = items
                                .iter()
                                .map(|i| {
                                    format!(
                                        "{:?}@{}:{:02x}:{:?}",
                                        i.id,
                                        i.offset,
                                        i.flags.bits(),
                                        i.moved_to.map(|b| b.raw())
                                    )
                                })
                                .collect();
                            format!("fetch s{which} max {max} -> [{}]", shown.join(" "))
                        }
                        Err(e) => format!("fetch s{which} err {e}"),
                    },
                    None => format!("fetch s{which} unregistered"),
                }
            }
            16..=17 => {
                let which = rng.gen_range(0, sids.len() as u64) as usize;
                let item = if rng.gen_range(0, 2) == 0 {
                    ItemId::Block(BlockNr(rng.gen_range(100, fs.next_block + 1)))
                } else {
                    ItemId::Inode(FILES[rng.gen_range(0, FILES.len() as u64) as usize])
                };
                let set = rng.gen_range(0, 3) != 0;
                match sids[which] {
                    Some(sid) => {
                        let r = if set {
                            duet.set_done(sid, item)
                        } else {
                            duet.unset_done(sid, item)
                        };
                        let done = duet.check_done(sid, item);
                        format!("done s{which} set={set} {item:?} {r:?} now {done:?}")
                    }
                    None => format!("done s{which} unregistered"),
                }
            }
            18 => {
                // File rename across SUB / ROOT / OUT / DEEP.
                let ino = FILES[rng.gen_range(0, FILES.len() as u64) as usize];
                let dirs = [ROOT, SUB, OUT, DEEP];
                let to = dirs[rng.gen_range(0, dirs.len() as u64) as usize];
                let from = fs.parents.insert(ino, to).unwrap_or(ROOT);
                duet.handle_rename(ino, from, false, &fs);
                format!("rename {} {}->{}", ino.raw(), from.raw(), to.raw())
            }
            19 => {
                // Directory rename: DEEP in and out of SUB.
                let to = if fs.parents.get(&DEEP) == Some(&SUB) {
                    ROOT
                } else {
                    SUB
                };
                let from = fs.parents.insert(DEEP, to).unwrap_or(ROOT);
                duet.handle_rename(DEEP, from, true, &fs);
                format!("rename_dir {} {}->{}", DEEP.raw(), from.raw(), to.raw())
            }
            20 if rng.gen_range(0, 2) == 0 => {
                // Silent relocation (a cleaner migrating a mapped page):
                // the next block fetch reports `moved_to`.
                let ino = FILES[rng.gen_range(0, FILES.len() as u64) as usize];
                let key = PageKey::new(ino, PageIndex(rng.gen_range(0, 16)));
                if fs.fibmap.contains_key(&key) {
                    let b = fs.alloc_block();
                    fs.fibmap.insert(key, b);
                }
                format!(
                    "relocate {}:{} -> {:?}",
                    ino.raw(),
                    key.index.raw(),
                    fs.fibmap.get(&key).map(|b| b.raw())
                )
            }
            20 => {
                // Delete: the cache drops every page (Removed events),
                // the mapping goes, then the VFS hook fires.
                let ino = FILES[rng.gen_range(0, FILES.len() as u64) as usize];
                let pages = fs.cached_pages_of(ino);
                for m in &pages {
                    fs.cache.remove(&m.key);
                    duet.handle_page_event(*m, PageEvent::Removed, &fs);
                }
                fs.fibmap.retain(|k, _| k.ino != ino);
                duet.handle_delete(ino);
                format!("delete {} pages {}", ino.raw(), pages.len())
            }
            21 => {
                let which = rng.gen_range(0, sids.len() as u64) as usize;
                match sids[which] {
                    Some(sid) if rng.gen_range(0, 3) == 0 => {
                        let r = duet.churn_session(sid, &fs);
                        format!("churn s{which} {r:?}")
                    }
                    Some(sid) => {
                        let r = duet.deregister(sid);
                        sids[which] = None;
                        format!("deregister s{which} {r:?}")
                    }
                    None => {
                        let (scope, mask) = specs[which];
                        let r = duet.register(scope, mask, &fs);
                        sids[which] = r.as_ref().ok().copied();
                        format!("register s{which} -> {}", sid_str(sids[which]))
                    }
                }
            }
            _ => {
                let cap = rng.gen_range(1, 7) as usize;
                let keys: Vec<String> = duet
                    .pending_pages(cap)
                    .iter()
                    .map(|k| format!("{}:{}", k.ino.raw(), k.index.raw()))
                    .collect();
                format!("pending {cap} -> [{}]", keys.join(" "))
            }
        };
        let s = duet.stats();
        out.push_str(&format!(
            "{line} | n {} st {},{},{},{},{} mem {} d {}\n",
            duet.descriptor_count(),
            s.events_processed,
            s.events_dropped,
            s.fetch_calls,
            s.items_fetched,
            s.peak_descriptors,
            duet.memory_bytes(),
            duet.state_digest_hex()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duet_oplog_is_seed_deterministic_and_covers_the_script() {
        let a = duet_oplog(3, 600);
        assert_eq!(a, duet_oplog(3, 600));
        assert_ne!(a, duet_oplog(4, 600));
        for op in [
            "event Added",
            "event Removed",
            "event Dirtied",
            "event Flushed",
            "fetch s",
            "done s",
            "rename ",
            "rename_dir ",
            "delete ",
            "relocate ",
            "deregister ",
            "pending ",
        ] {
            assert!(a.contains(op), "op mix never reaches {op:?}");
        }
    }

    #[test]
    fn cache_scan_log_is_seed_deterministic_and_covers_the_script() {
        let a = cache_scan_log(5, 300);
        assert_eq!(a, cache_scan_log(5, 300));
        assert_ne!(a, cache_scan_log(6, 300));
        for op in [
            "read ",
            "burst ",
            "write ",
            "lookup ",
            "dirty ",
            "writeback",
            "flush_file ",
            "remove",
            "protect ",
        ] {
            assert!(a.contains(op), "op mix never reaches {op:?}");
        }
        // A read inserts only clean pages, so a dirty victim during one
        // means every page within the scan bound was dirty: the
        // all-dirty fallback fired.
        assert!(
            a.lines().filter(|l| l.starts_with("read ")).any(|l| l
                .split(" | ")
                .nth(1)
                .is_some_and(|ev| ev.contains(":1 ") || ev.ends_with(":1"))),
            "no read ever took the all-dirty fallback"
        );
    }

    #[test]
    fn extent_oplog_is_seed_deterministic() {
        let a = extent_oplog(7, 256);
        let b = extent_oplog(7, 256);
        let c = extent_oplog(8, 256);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.contains("map "), "op mix reaches map_range");
        assert!(a.contains("unmap "), "op mix reaches unmap_range");
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        let d1 = fnv128_hex(b"hello");
        let d2 = fnv128_hex(b"hello");
        let d3 = fnv128_hex(b"hellp");
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);
        assert_eq!(d1.len(), 32);
    }
}
