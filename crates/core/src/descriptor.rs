//! Item descriptors: per-page pending-notification state.
//!
//! "While the item descriptors of different sessions are logically
//! independent, we reduce memory requirements by keeping a single item
//! descriptor per page for all sessions. The merged item descriptor
//! consists of the item_id, offset, and an N-byte array for storing the
//! flag fields for up to a maximum of N concurrent sessions." (§4.2)
//!
//! A descriptor is allocated when any session has pending notifications
//! on the page and deallocated when none has — including by
//! *cancellation*, when opposing events revert a page to its
//! last-reported state for every state session.

use crate::events::{EventMask, ItemFlags};
use sim_cache::PageKey;
use sim_core::dmap::DMap;
use sim_core::{BlockNr, InodeNr, PageIndex};

/// Per-session flag byte within a merged descriptor.
///
/// Layout: bits 0–3 are pending event notifications (added, removed,
/// dirtied, flushed); bit 4–5 cache the session's last-*reported*
/// existence/modification state (valid once bit 6, `STATE_INIT`, is
/// set); bit 7 forces a `NOT_EXISTS` delivery, used when a file is
/// moved out of the session's registered directory (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SessFlags(u8);

const EVT_MASK: u8 = 0x0F;
const REPORTED_EXISTS: u8 = 1 << 4;
const REPORTED_MODIFIED: u8 = 1 << 5;
const STATE_INIT: u8 = 1 << 6;
const FORCE_NOT_EXISTS: u8 = 1 << 7;

impl SessFlags {
    pub(crate) fn evt_bits(self) -> u8 {
        self.0 & EVT_MASK
    }

    pub(crate) fn set_evt(&mut self, flag: ItemFlags) {
        debug_assert!(flag.bits() & !EVT_MASK == 0, "not an event bit");
        self.0 |= flag.bits();
    }

    pub(crate) fn clear_evt(&mut self) {
        self.0 &= !EVT_MASK;
    }

    pub(crate) fn state_init(self) -> bool {
        self.0 & STATE_INIT != 0
    }

    pub(crate) fn reported_exists(self) -> bool {
        self.0 & REPORTED_EXISTS != 0
    }

    pub(crate) fn reported_modified(self) -> bool {
        self.0 & REPORTED_MODIFIED != 0
    }

    pub(crate) fn set_reported(&mut self, exists: bool, modified: bool) {
        self.0 |= STATE_INIT;
        if exists {
            self.0 |= REPORTED_EXISTS;
        } else {
            self.0 &= !REPORTED_EXISTS;
        }
        if modified {
            self.0 |= REPORTED_MODIFIED;
        } else {
            self.0 &= !REPORTED_MODIFIED;
        }
    }

    pub(crate) fn force_not_exists(self) -> bool {
        self.0 & FORCE_NOT_EXISTS != 0
    }

    pub(crate) fn set_force_not_exists(&mut self) {
        self.0 |= FORCE_NOT_EXISTS;
    }

    pub(crate) fn clear_force_not_exists(&mut self) {
        self.0 &= !FORCE_NOT_EXISTS;
    }

    pub(crate) fn clear_all(&mut self) {
        self.0 = 0;
    }

    // Used by unit tests to assert full resets.
    #[cfg_attr(not(test), expect(dead_code))]
    pub(crate) fn is_clear(self) -> bool {
        self.0 == 0
    }
}

/// The largest supported `N`: flag bytes are stored inline, so every
/// descriptor carries this many and uses the first `max_sessions`. The
/// paper evaluates N = 16 (§6.4).
pub(crate) const MAX_SESSIONS: usize = 16;

/// A merged item descriptor for one page.
#[derive(Debug, Clone)]
pub(crate) struct Descriptor {
    /// Physical block backing the page as of the latest event (`None`
    /// under delayed allocation).
    pub block: Option<BlockNr>,
    /// Current existence state of the page.
    pub cur_exists: bool,
    /// Current modification (dirty) state of the page.
    pub cur_modified: bool,
    /// Position of this page's index in its inode's page list
    /// ([`DescriptorTable`]'s back-pointer for O(1) unlinking).
    ino_pos: u32,
    /// Per-session flag bytes (the paper's N-byte array), inline.
    pub sess: [SessFlags; MAX_SESSIONS],
}

impl Descriptor {
    pub(crate) fn new(exists: bool, modified: bool, block: Option<BlockNr>) -> Self {
        Descriptor {
            block,
            cur_exists: exists,
            cur_modified: modified,
            ino_pos: 0,
            sess: [SessFlags::default(); MAX_SESSIONS],
        }
    }

    /// Feeds the descriptor's complete state (including the first
    /// `max_sessions` flag bytes, the ones in use) into a
    /// fork-equivalence digest.
    fn digest_state(&self, max_sessions: usize, d: &mut sim_core::snapshot::Digest) {
        d.write_bool(self.block.is_some());
        d.write_u64(self.block.map_or(0, |b| b.raw()));
        d.write_bool(self.cur_exists);
        d.write_bool(self.cur_modified);
        d.write_usize(max_sessions);
        for f in &self.sess[..max_sessions] {
            d.write_u32(f.0 as u32);
        }
    }

    /// Whether the given session has anything pending on this page.
    pub(crate) fn pending_for(&self, slot: usize, mask: EventMask) -> bool {
        let f = self.sess[slot];
        if f.evt_bits() != 0 || f.force_not_exists() {
            return true;
        }
        if f.state_init() {
            if mask.contains(EventMask::EXISTS) && f.reported_exists() != self.cur_exists {
                return true;
            }
            if mask.contains(EventMask::MODIFIED) && f.reported_modified() != self.cur_modified {
                return true;
            }
        }
        false
    }

    /// Whether any session in `masks` (indexed by slot, `None` for free
    /// slots) has pending notifications.
    pub(crate) fn pending_any(&self, masks: &[Option<EventMask>]) -> bool {
        masks
            .iter()
            .enumerate()
            .any(|(slot, m)| m.is_some_and(|mask| self.pending_for(slot, mask)))
    }

    /// Bytes of memory this descriptor accounts for in the §6.4 model:
    /// item id (8) + offset (8) + N-byte flag array + hash node (8).
    pub(crate) fn memory_bytes(max_sessions: usize) -> u64 {
        8 + 8 + max_sessions as u64 + 8
    }
}

/// The framework's descriptor store: "a single global hash table"
/// keyed by (inode, offset) (§4.2), one probe per page event, fetch or
/// free.
///
/// A dense per-inode page list (with a position back-pointer in each
/// descriptor, unlinked by `swap_remove`) lets `set_done` on a file
/// visit only that file's descriptors. Neither container is ordered;
/// the two readers that need key order — the state digest and
/// `pending_pages` — sort a copy of the keys on demand.
#[derive(Debug, Clone, Default)]
pub(crate) struct DescriptorTable {
    map: DMap<PageKey, Descriptor>,
    per_ino: DMap<InodeNr, Vec<u64>>,
    /// High-water mark of `len()`.
    peak: usize,
}

impl DescriptorTable {
    /// Number of live descriptors.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// High-water mark of live descriptors.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    pub(crate) fn get(&self, key: PageKey) -> Option<&Descriptor> {
        self.map.get(&key)
    }

    pub(crate) fn get_mut(&mut self, key: PageKey) -> Option<&mut Descriptor> {
        self.map.get_mut(&key)
    }

    /// The page's descriptor, allocated with the given state if absent.
    /// Returns whether it was allocated.
    pub(crate) fn entry(
        &mut self,
        key: PageKey,
        exists: bool,
        modified: bool,
        block: Option<BlockNr>,
    ) -> (&mut Descriptor, bool) {
        let per_ino = &mut self.per_ino;
        let live = self.map.len();
        let mut created = false;
        let d = self.map.get_or_insert_with(key, || {
            created = true;
            let pages = per_ino.get_or_insert_with(key.ino, Vec::new);
            let mut d = Descriptor::new(exists, modified, block);
            d.ino_pos = pages.len() as u32;
            pages.push(key.index.raw());
            d
        });
        if created {
            self.peak = self.peak.max(live + 1);
        }
        (d, created)
    }

    /// Frees the page's descriptor, if any.
    pub(crate) fn remove(&mut self, key: PageKey) {
        let Some(d) = self.map.remove(&key) else {
            return;
        };
        let pos = d.ino_pos as usize;
        let Some(pages) = self.per_ino.get_mut(&key.ino) else {
            debug_assert!(false, "descriptor {key:?} missing from its page list");
            return;
        };
        pages.swap_remove(pos);
        if let Some(&moved) = pages.get(pos) {
            if let Some(m) = self.map.get_mut(&PageKey::new(key.ino, PageIndex(moved))) {
                m.ino_pos = pos as u32;
            }
        } else if pages.is_empty() {
            self.per_ino.remove(&key.ino);
        }
    }

    /// Applies `f` to each of one inode's descriptors, freeing those it
    /// returns `false` for. Visits only that inode's pages.
    pub(crate) fn retain_inode(
        &mut self,
        ino: InodeNr,
        mut f: impl FnMut(&mut Descriptor) -> bool,
    ) {
        let Some(pages) = self.per_ino.get_mut(&ino) else {
            return;
        };
        let mut kept = 0;
        for i in 0..pages.len() {
            let key = PageKey::new(ino, PageIndex(pages[i]));
            let Some(d) = self.map.get_mut(&key) else {
                debug_assert!(false, "page list names a freed descriptor {key:?}");
                continue;
            };
            if f(d) {
                d.ino_pos = kept as u32;
                pages[kept] = pages[i];
                kept += 1;
            } else {
                self.map.remove(&key);
            }
        }
        pages.truncate(kept);
        if kept == 0 {
            self.per_ino.remove(&ino);
        }
    }

    /// Applies `f` to every descriptor, freeing those it returns
    /// `false` for.
    pub(crate) fn retain(&mut self, mut f: impl FnMut(&mut Descriptor) -> bool) {
        let dead: Vec<PageKey> = self
            .map
            .iter_mut()
            .filter_map(|(k, d)| (!f(d)).then_some(*k))
            .collect();
        for key in dead {
            self.remove(key);
        }
    }

    /// Keys of the descriptors `f` selects, the first `max` in
    /// ascending `(ino, index)` order.
    pub(crate) fn lowest_keys(&self, max: usize, f: impl Fn(&Descriptor) -> bool) -> Vec<PageKey> {
        let mut keys: Vec<PageKey> = self
            .map
            .iter()
            .filter_map(|(k, d)| f(d).then_some(*k))
            .collect();
        if keys.len() > max {
            keys.select_nth_unstable(max);
            keys.truncate(max);
        }
        keys.sort_unstable();
        keys
    }

    /// Feeds the table into a fork-equivalence digest in key order:
    /// descriptor count, inode count, then per inode (ascending) its
    /// page count and its pages (ascending) — the bytes an ordered
    /// inode → page → descriptor map would produce.
    pub(crate) fn digest_state(&self, max_sessions: usize, d: &mut sim_core::snapshot::Digest) {
        d.write_usize(self.map.len());
        d.write_usize(self.per_ino.len());
        let mut inos: Vec<InodeNr> = self.per_ino.keys().copied().collect();
        inos.sort_unstable();
        let mut pages: Vec<u64> = Vec::new();
        for ino in inos {
            pages.clear();
            pages.extend(self.per_ino.get(&ino).into_iter().flatten());
            pages.sort_unstable();
            d.write_u64(ino.raw());
            d.write_usize(pages.len());
            for &idx in &pages {
                d.write_u64(idx);
                if let Some(desc) = self.map.get(&PageKey::new(ino, PageIndex(idx))) {
                    desc.digest_state(max_sessions, d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sess_flags_roundtrip() {
        let mut f = SessFlags::default();
        assert!(f.is_clear());
        assert!(!f.state_init());
        f.set_evt(ItemFlags::ADDED);
        f.set_evt(ItemFlags::DIRTIED);
        assert_eq!(
            f.evt_bits(),
            ItemFlags::ADDED.bits() | ItemFlags::DIRTIED.bits()
        );
        f.set_reported(true, false);
        assert!(f.state_init());
        assert!(f.reported_exists());
        assert!(!f.reported_modified());
        f.clear_evt();
        assert_eq!(f.evt_bits(), 0);
        assert!(f.state_init(), "state survives event clear");
        f.set_reported(false, true);
        assert!(!f.reported_exists());
        assert!(f.reported_modified());
        f.set_force_not_exists();
        assert!(f.force_not_exists());
        f.clear_force_not_exists();
        assert!(!f.force_not_exists());
        f.clear_all();
        assert!(f.is_clear());
    }

    #[test]
    fn pending_logic() {
        let mut d = Descriptor::new(true, false, None);
        let mask = EventMask::EXISTS;
        assert!(!d.pending_for(0, mask), "untouched slot is idle");
        // Initialized at reported=not-exists while page exists: pending.
        d.sess[0].set_reported(false, false);
        assert!(d.pending_for(0, mask));
        // Reported catches up: idle.
        d.sess[0].set_reported(true, false);
        assert!(!d.pending_for(0, mask));
        // Modified axis ignored unless subscribed.
        d.cur_modified = true;
        assert!(!d.pending_for(0, mask));
        assert!(d.pending_for(0, EventMask::EXISTS | EventMask::MODIFIED));
        // Event bits always pending.
        d.sess[1].set_evt(ItemFlags::FLUSHED);
        assert!(d.pending_for(1, EventMask::FLUSHED));
        assert!(d.pending_any(&[Some(EventMask::EXISTS), Some(EventMask::FLUSHED)]));
        assert!(!d.pending_any(&[Some(EventMask::EXISTS), None]));
    }

    /// The table against an ordered reference map under random
    /// allocate / free / per-inode retain: same live keys, the same
    /// ordered `lowest_keys`, and every per-inode page list exactly
    /// its inode's live pages with correct back-pointers.
    #[test]
    fn table_matches_ordered_reference() {
        use sim_core::SimRng;
        use std::collections::BTreeMap;
        let mut rng = SimRng::new(0xD35C);
        let mut t = DescriptorTable::default();
        let mut reference: BTreeMap<PageKey, bool> = BTreeMap::new();
        for _ in 0..4000 {
            let key = PageKey::new(
                InodeNr(rng.gen_range(1, 6)),
                PageIndex(rng.gen_range(0, 24)),
            );
            match rng.gen_range(0, 8) {
                0..=3 => {
                    let exists = rng.gen_range(0, 2) == 0;
                    let (d, created) = t.entry(key, exists, false, None);
                    assert_eq!(created, !reference.contains_key(&key));
                    if created {
                        reference.insert(key, exists);
                    }
                    assert_eq!(d.cur_exists, reference[&key]);
                }
                4..=5 => {
                    t.remove(key);
                    reference.remove(&key);
                }
                6 => {
                    // Keep only the pages that exist.
                    t.retain_inode(key.ino, |d| d.cur_exists);
                    reference.retain(|k, &mut e| k.ino != key.ino || e);
                }
                _ => {
                    let max = rng.gen_range(0, 10) as usize;
                    let want: Vec<PageKey> = reference
                        .iter()
                        .filter(|(_, &e)| e)
                        .map(|(k, _)| *k)
                        .take(max)
                        .collect();
                    assert_eq!(t.lowest_keys(max, |d| d.cur_exists), want);
                }
            }
            assert_eq!(t.len(), reference.len());
            assert!(t.peak() >= t.len());
            for (ino, pages) in t.per_ino.iter() {
                assert!(!pages.is_empty(), "empty page list kept for {ino:?}");
                for (pos, &idx) in pages.iter().enumerate() {
                    let d = t
                        .get(PageKey::new(*ino, PageIndex(idx)))
                        .expect("listed page is live");
                    assert_eq!(d.ino_pos as usize, pos, "stale back-pointer");
                }
            }
            let listed: usize = t.per_ino.values().map(Vec::len).sum();
            assert_eq!(listed, reference.len());
        }
    }

    #[test]
    fn memory_model_matches_paper() {
        // §6.4: "For N = 16, an item descriptor requires 32 bytes
        // (inode number, offset, 16-byte flag array and hash node)."
        // The paper counts 32-bit id+offset; our 64-bit fields give 40.
        assert_eq!(Descriptor::memory_bytes(16), 40);
    }
}
