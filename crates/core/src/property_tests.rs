//! Property tests of the notification state machine.
//!
//! The reference model: a page carries an `(exists, modified)` state; a
//! state session is owed a notification whenever the current state
//! differs from the state it last fetched; an event session is owed the
//! exact multiset of subscribed events since its last fetch, merged
//! into flag bits. The framework must agree with this model for every
//! legal event interleaving, including the cancellation behaviour
//! ("reverted back to the same state ... an event is not generated",
//! §3.2).
//!
//! The multi-session cases run a block session, a state file session
//! and an event file session over several files at once, with
//! `set_done` and deregistration mid-stream. Their reference model
//! tracks, per session and page, the last-reported state and the
//! pending event bits; after every op the framework's descriptor count
//! must equal the number of pages some session is still owed — no
//! descriptor leaks and none goes missing.
//!
//! Cases are driven by the `sim_core::check` helper: each case gets a
//! deterministic per-case RNG, and a failing case reports the exact
//! seed that replays it. `DUET_CHECK_SEED` (decimal or `0x` hex)
//! overrides every test's pinned base seed; a malformed value fails the
//! test instead of silently re-testing the pinned seed.

use crate::events::{EventMask, ItemFlags};
use crate::framework::Duet;
use crate::session::{ItemId, SessionId, TaskScope};
use sim_cache::FsIntrospect;
use sim_cache::{PageEvent, PageKey, PageMeta};
use sim_core::check::{forall, CheckConfig};
use sim_core::fault::seed_from_env;
use sim_core::{BlockNr, DeviceId, InodeNr, PageIndex, SimRng};
use std::collections::{BTreeMap, BTreeSet};

/// The base seed for a property: `DUET_CHECK_SEED` when set, else the
/// test's pinned seed.
fn check_seed(pinned: u64) -> u64 {
    seed_from_env("DUET_CHECK_SEED", pinned).unwrap_or_else(|e| panic!("{e}"))
}

/// Trivial filesystem: one file, everything relevant.
struct FlatFs;

impl FsIntrospect for FlatFs {
    fn device(&self) -> DeviceId {
        DeviceId(0)
    }
    fn is_under(&self, _: InodeNr, _: InodeNr) -> bool {
        true
    }
    fn path_of(&self, _: InodeNr) -> Option<String> {
        Some("/f".into())
    }
    fn fibmap(&self, _: InodeNr, index: PageIndex) -> Option<BlockNr> {
        Some(BlockNr(index.raw()))
    }
    fn has_cached_pages(&self, _: InodeNr) -> bool {
        true
    }
    fn cached_pages(&self) -> Vec<PageMeta> {
        Vec::new()
    }
    fn cached_pages_of(&self, _: InodeNr) -> Vec<PageMeta> {
        Vec::new()
    }
}

const FILE: InodeNr = InodeNr(7);
const ROOT: InodeNr = InodeNr(1);

#[derive(Debug, Clone, Copy)]
enum Action {
    /// Apply the next legal event to page `p` (cycled deterministically
    /// from this tag).
    Event { page: u64, tag: u8 },
    /// Fetch everything pending.
    Fetch,
}

/// Weighted action pick mirroring the original generator's 4:1
/// event-to-fetch mix. Randomized cases are driven by the deterministic
/// `SimRng` (the workspace builds offline, with no proptest dep).
fn action_pick(rng: &mut SimRng) -> Action {
    if rng.gen_range(0, 5) < 4 {
        Action::Event {
            page: rng.gen_range(0, 4),
            tag: rng.gen_range(0, 256) as u8,
        }
    } else {
        Action::Fetch
    }
}

/// Reference per-page state.
#[derive(Debug, Clone, Copy, Default)]
struct RefPage {
    exists: bool,
    modified: bool,
    reported_exists: bool,
    reported_modified: bool,
}

/// Picks a legal event for the current page state.
fn legal_event(p: &RefPage, tag: u8) -> PageEvent {
    if !p.exists {
        return PageEvent::Added;
    }
    match tag % 3 {
        0 => PageEvent::Removed,
        1 => {
            if p.modified {
                PageEvent::Flushed
            } else {
                PageEvent::Dirtied
            }
        }
        _ => {
            if p.modified {
                PageEvent::Flushed
            } else {
                PageEvent::Removed
            }
        }
    }
}

fn apply(p: &mut RefPage, ev: PageEvent) {
    match ev {
        PageEvent::Added => {
            p.exists = true;
            p.modified = false;
        }
        PageEvent::Removed => {
            p.exists = false;
            p.modified = false;
        }
        PageEvent::Dirtied => p.modified = true,
        PageEvent::Flushed => p.modified = false,
    }
}

/// State sessions: fetched notifications are exactly the state
/// diffs against the last report, for every interleaving.
#[test]
fn state_session_matches_reference() {
    let cfg = CheckConfig::new("state-session-matches-reference", check_seed(0x57A7E)).cases(128);
    forall(&cfg, |_case, rng| {
        let actions: Vec<Action> = (0..rng.gen_range(1, 120))
            .map(|_| action_pick(rng))
            .collect();
        let fs = FlatFs;
        let mut duet = Duet::with_defaults();
        let sid = duet
            .register(
                TaskScope::File {
                    registered_dir: ROOT,
                },
                EventMask::EXISTS | EventMask::MODIFIED,
                &fs,
            )
            .expect("register");
        let mut reference = [RefPage::default(); 4];
        for action in actions {
            match action {
                Action::Event { page, tag } => {
                    let p = &mut reference[page as usize];
                    let ev = legal_event(p, tag);
                    // Meta reflects the page's dirty state as the cache
                    // would report it at event time.
                    let meta_dirty = match ev {
                        PageEvent::Added => false,
                        PageEvent::Removed => p.modified,
                        PageEvent::Dirtied => true,
                        PageEvent::Flushed => false,
                    };
                    apply(p, ev);
                    duet.handle_page_event(
                        PageMeta {
                            key: PageKey::new(FILE, PageIndex(page)),
                            block: Some(BlockNr(page)),
                            dirty: meta_dirty,
                        },
                        ev,
                        &fs,
                    );
                }
                Action::Fetch => {
                    let items = duet.fetch(sid, 64, &fs).expect("fetch");
                    let mut got: Vec<(u64, ItemFlags)> = items
                        .iter()
                        .map(|i| (i.offset / sim_core::PAGE_SIZE, i.flags))
                        .collect();
                    got.sort_by_key(|(o, _)| *o);
                    // Build the expected diffs.
                    let mut expected: Vec<(u64, ItemFlags)> = Vec::new();
                    for (pg, p) in reference.iter_mut().enumerate() {
                        let mut fl = ItemFlags::empty();
                        if p.exists != p.reported_exists {
                            fl |= if p.exists {
                                ItemFlags::EXISTS
                            } else {
                                ItemFlags::NOT_EXISTS
                            };
                        }
                        if p.modified != p.reported_modified {
                            fl |= if p.modified {
                                ItemFlags::MODIFIED
                            } else {
                                ItemFlags::NOT_MODIFIED
                            };
                        }
                        if !fl.is_empty() {
                            expected.push((pg as u64, fl));
                        }
                        p.reported_exists = p.exists;
                        p.reported_modified = p.modified;
                    }
                    assert_eq!(got, expected);
                }
            }
        }
        // Final fetch must also agree, and leave nothing allocated.
        let final_items = duet.fetch(sid, 64, &fs).expect("fetch");
        let mut owed = 0;
        for p in &reference {
            if p.exists != p.reported_exists || p.modified != p.reported_modified {
                owed += 1;
            }
        }
        assert_eq!(final_items.len(), owed);
        let empty = duet.fetch(sid, 64, &fs).expect("fetch");
        assert!(empty.is_empty());
        assert_eq!(duet.descriptor_count(), 0);
        Ok(())
    })
    .unwrap();
}

/// Event sessions: fetched flag bits are exactly the union of
/// subscribed events since the last fetch.
#[test]
fn event_session_matches_reference() {
    let cfg = CheckConfig::new("event-session-matches-reference", check_seed(0xE4E47)).cases(128);
    forall(&cfg, |_case, rng| {
        let actions: Vec<Action> = (0..rng.gen_range(1, 120))
            .map(|_| action_pick(rng))
            .collect();
        let fs = FlatFs;
        let mut duet = Duet::with_defaults();
        let mask = EventMask::ADDED | EventMask::REMOVED | EventMask::DIRTIED | EventMask::FLUSHED;
        let sid = duet
            .register(
                TaskScope::File {
                    registered_dir: ROOT,
                },
                mask,
                &fs,
            )
            .expect("register");
        let mut reference = [RefPage::default(); 4];
        let mut pending: [u8; 4] = [0; 4];
        for action in actions {
            match action {
                Action::Event { page, tag } => {
                    let p = &mut reference[page as usize];
                    let ev = legal_event(p, tag);
                    let meta_dirty = match ev {
                        PageEvent::Added => false,
                        PageEvent::Removed => p.modified,
                        PageEvent::Dirtied => true,
                        PageEvent::Flushed => false,
                    };
                    apply(p, ev);
                    pending[page as usize] |= match ev {
                        PageEvent::Added => ItemFlags::ADDED.bits(),
                        PageEvent::Removed => ItemFlags::REMOVED.bits(),
                        PageEvent::Dirtied => ItemFlags::DIRTIED.bits(),
                        PageEvent::Flushed => ItemFlags::FLUSHED.bits(),
                    };
                    duet.handle_page_event(
                        PageMeta {
                            key: PageKey::new(FILE, PageIndex(page)),
                            block: Some(BlockNr(page)),
                            dirty: meta_dirty,
                        },
                        ev,
                        &fs,
                    );
                }
                Action::Fetch => {
                    let items = duet.fetch(sid, 64, &fs).expect("fetch");
                    let mut got: Vec<(u64, u8)> = items
                        .iter()
                        .map(|i| (i.offset / sim_core::PAGE_SIZE, i.flags.bits()))
                        .collect();
                    got.sort_by_key(|(o, _)| *o);
                    let mut expected: Vec<(u64, u8)> = Vec::new();
                    for (pg, bits) in pending.iter_mut().enumerate() {
                        if *bits != 0 {
                            expected.push((pg as u64, *bits));
                            *bits = 0;
                        }
                    }
                    assert_eq!(got, expected);
                }
            }
        }
        Ok(())
    })
    .unwrap();
}

// ----- several files, several sessions ---------------------------------------

const SUB: InodeNr = InodeNr(2);
/// Two files under `SUB`, one directly under `ROOT`.
const TREE_FILES: [InodeNr; 3] = [InodeNr(10), InodeNr(11), InodeNr(12)];
const TREE_PAGES: u64 = 4;

fn block_of(key: PageKey) -> BlockNr {
    BlockNr(key.ino.raw() * 100 + key.index.raw())
}

/// A small directory tree whose page cache is exactly the set of pages
/// that currently exist; every page has a fixed block.
#[derive(Default)]
struct TreeFs {
    cached: BTreeMap<PageKey, PageMeta>,
}

impl TreeFs {
    fn parent(ino: InodeNr) -> Option<InodeNr> {
        match ino.raw() {
            10 | 11 => Some(SUB),
            12 | 2 => Some(ROOT),
            _ => None,
        }
    }

    /// Current `(exists, modified)` state of a page.
    fn state(&self, key: PageKey) -> (bool, bool) {
        self.cached
            .get(&key)
            .map_or((false, false), |m| (true, m.dirty))
    }
}

impl FsIntrospect for TreeFs {
    fn device(&self) -> DeviceId {
        DeviceId(0)
    }
    fn is_under(&self, ino: InodeNr, dir: InodeNr) -> bool {
        let mut cur = Some(ino);
        while let Some(i) = cur {
            if i == dir {
                return true;
            }
            cur = Self::parent(i);
        }
        false
    }
    fn path_of(&self, ino: InodeNr) -> Option<String> {
        Some(format!("/{}", ino.raw()))
    }
    fn fibmap(&self, ino: InodeNr, index: PageIndex) -> Option<BlockNr> {
        Some(block_of(PageKey::new(ino, index)))
    }
    fn has_cached_pages(&self, ino: InodeNr) -> bool {
        self.cached.keys().any(|k| k.ino == ino)
    }
    fn cached_pages(&self) -> Vec<PageMeta> {
        self.cached.values().copied().collect()
    }
    fn cached_pages_of(&self, ino: InodeNr) -> Vec<PageMeta> {
        self.cached
            .values()
            .filter(|m| m.key.ino == ino)
            .copied()
            .collect()
    }
}

/// A session's view of one page: last-reported state and pending event
/// bits. Present only while the page's descriptor is resident.
#[derive(Debug, Clone, Copy)]
struct Track {
    reported: (bool, bool),
    evt: u8,
}

/// Reference model of one session.
struct RefSession {
    scope: TaskScope,
    mask: EventMask,
    sid: Option<SessionId>,
    done: BTreeSet<u64>,
    track: BTreeMap<PageKey, Track>,
    /// Pages in the session's fetch queue (the framework may hold a key
    /// more than once; the later copies are no-ops).
    queued: BTreeSet<PageKey>,
}

impl RefSession {
    fn new(scope: TaskScope, mask: EventMask) -> Self {
        RefSession {
            scope,
            mask,
            sid: None,
            done: BTreeSet::new(),
            track: BTreeMap::new(),
            queued: BTreeSet::new(),
        }
    }

    fn accepts(&self, fs: &TreeFs, key: PageKey) -> bool {
        self.sid.is_some()
            && match self.scope {
                TaskScope::Block { .. } => !self.done.contains(&block_of(key).raw()),
                TaskScope::File { registered_dir } => {
                    !self.done.contains(&key.ino.raw()) && fs.is_under(key.ino, registered_dir)
                }
            }
    }

    /// Whether the session is owed a notification for the page.
    fn owed(&self, key: PageKey, cur: (bool, bool)) -> bool {
        self.track.get(&key).is_some_and(|t| {
            t.evt != 0
                || (self.mask.contains(EventMask::EXISTS) && t.reported.0 != cur.0)
                || (self.mask.contains(EventMask::MODIFIED) && t.reported.1 != cur.1)
        })
    }
}

/// Reference model of the whole framework: sessions plus the set of
/// pages with a resident descriptor.
struct RefDuet {
    sessions: Vec<RefSession>,
    resident: BTreeSet<PageKey>,
}

impl RefDuet {
    fn owed_any(&self, fs: &TreeFs, key: PageKey) -> bool {
        let cur = fs.state(key);
        self.sessions.iter().any(|s| s.owed(key, cur))
    }

    /// Frees the page's descriptor (every session's view) once no
    /// session is owed anything on it.
    fn gc(&mut self, fs: &TreeFs, key: PageKey) {
        if self.resident.contains(&key) && !self.owed_any(fs, key) {
            self.resident.remove(&key);
            for s in &mut self.sessions {
                s.track.remove(&key);
            }
        }
    }

    /// Pages some session is still owed: what the live descriptor
    /// count must equal.
    fn owed_pages(&self, fs: &TreeFs) -> usize {
        self.resident
            .iter()
            .filter(|&&k| self.owed_any(fs, k))
            .count()
    }

    /// A page event; `fs` already holds the post-event state.
    fn event(&mut self, fs: &TreeFs, key: PageKey, ev: PageEvent, pre: (bool, bool)) {
        let (evt_mask, state_mask, bit) = match ev {
            PageEvent::Added => (EventMask::ADDED, EventMask::EXISTS, ItemFlags::ADDED),
            PageEvent::Removed => (EventMask::REMOVED, EventMask::EXISTS, ItemFlags::REMOVED),
            PageEvent::Dirtied => (EventMask::DIRTIED, EventMask::MODIFIED, ItemFlags::DIRTIED),
            PageEvent::Flushed => (EventMask::FLUSHED, EventMask::MODIFIED, ItemFlags::FLUSHED),
        };
        let interest = evt_mask | state_mask;
        let interested: Vec<usize> = (0..self.sessions.len())
            .filter(|&i| {
                let s = &self.sessions[i];
                s.mask.intersects(interest) && s.accepts(fs, key)
            })
            .collect();
        if !self.resident.contains(&key) && interested.is_empty() {
            return;
        }
        self.resident.insert(key);
        let cur = fs.state(key);
        for i in interested {
            let s = &mut self.sessions[i];
            let was = s.owed(key, cur);
            let t = s.track.entry(key).or_insert(Track {
                reported: pre,
                evt: 0,
            });
            if s.mask.contains(evt_mask) {
                t.evt |= bit.bits();
            }
            if s.owed(key, cur) && !was {
                s.queued.insert(key);
            }
        }
        self.gc(fs, key);
    }

    /// Registration scan of session `i` over the cached pages.
    fn scan(&mut self, fs: &TreeFs, i: usize) {
        for meta in fs.cached_pages() {
            let key = meta.key;
            if !self.sessions[i].accepts(fs, key) {
                continue;
            }
            self.resident.insert(key);
            let cur = fs.state(key);
            let s = &mut self.sessions[i];
            let was = s.owed(key, cur);
            let t = s.track.entry(key).or_insert(Track {
                reported: (false, false),
                evt: 0,
            });
            if s.mask.contains(EventMask::ADDED) {
                t.evt |= ItemFlags::ADDED.bits();
            }
            if meta.dirty && s.mask.contains(EventMask::DIRTIED) {
                t.evt |= ItemFlags::DIRTIED.bits();
            }
            if s.owed(key, cur) && !was {
                s.queued.insert(key);
            }
            self.gc(fs, key);
        }
    }

    /// A fetch that drains session `i`'s whole queue; returns the pages
    /// delivered, in key order.
    fn fetch_all(&mut self, fs: &TreeFs, i: usize) -> Vec<PageKey> {
        let queued = std::mem::take(&mut self.sessions[i].queued);
        let mut delivered = Vec::new();
        for key in queued {
            let cur = fs.state(key);
            let s = &mut self.sessions[i];
            if s.owed(key, cur) {
                let skip = matches!(s.scope, TaskScope::Block { .. })
                    && s.done.contains(&block_of(key).raw());
                if !skip {
                    delivered.push(key);
                }
                s.track.insert(
                    key,
                    Track {
                        reported: cur,
                        evt: 0,
                    },
                );
            }
            self.gc(fs, key);
        }
        delivered
    }

    /// `set_done` on an inode: every resident page of the file is marked
    /// up to date for the session, and the file is filtered from now on.
    fn set_done_inode(&mut self, fs: &TreeFs, i: usize, ino: InodeNr) {
        self.sessions[i].done.insert(ino.raw());
        let pages: Vec<PageKey> = self
            .resident
            .iter()
            .filter(|k| k.ino == ino)
            .copied()
            .collect();
        for key in pages {
            let reported = fs.state(key);
            self.sessions[i]
                .track
                .insert(key, Track { reported, evt: 0 });
            self.gc(fs, key);
        }
    }

    fn deregister(&mut self, fs: &TreeFs, i: usize) {
        let s = &mut self.sessions[i];
        s.sid = None;
        s.done.clear();
        s.track.clear();
        s.queued.clear();
        let resident: Vec<PageKey> = self.resident.iter().copied().collect();
        for key in resident {
            self.gc(fs, key);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum TreeAction {
    Event { file: usize, page: u64, tag: u8 },
    Fetch(usize),
    SetDoneInode(usize, usize),
    SetDoneBlock(usize, usize, u64),
    Toggle(usize),
}

fn tree_action(rng: &mut SimRng, sessions: usize) -> TreeAction {
    let session = rng.gen_range(0, sessions as u64) as usize;
    match rng.gen_range(0, 20) {
        0..=11 => TreeAction::Event {
            file: rng.gen_range(0, TREE_FILES.len() as u64) as usize,
            page: rng.gen_range(0, TREE_PAGES),
            tag: rng.gen_range(0, 256) as u8,
        },
        12..=14 => TreeAction::Fetch(session),
        15..=16 => {
            TreeAction::SetDoneInode(session, rng.gen_range(0, TREE_FILES.len() as u64) as usize)
        }
        17..=18 => TreeAction::SetDoneBlock(
            session,
            rng.gen_range(0, TREE_FILES.len() as u64) as usize,
            rng.gen_range(0, TREE_PAGES),
        ),
        _ => TreeAction::Toggle(session),
    }
}

/// A block session, a state file session under a subdirectory and an
/// event file session over the root, all on one framework over three
/// files, with `set_done` (inodes and blocks) and deregistration /
/// re-registration mid-stream. After every op the framework holds
/// exactly one descriptor per page some session is still owed, and
/// every fetch delivers exactly the owed, queued pages.
#[test]
fn multi_session_descriptors_match_reference() {
    let cfg = CheckConfig::new("multi-session-descriptors", check_seed(0x3E55_10A5)).cases(96);
    forall(&cfg, |_case, rng| {
        let mut fs = TreeFs::default();
        let mut duet = Duet::with_defaults();
        let mut model = RefDuet {
            sessions: vec![
                RefSession::new(
                    TaskScope::Block {
                        device: DeviceId(0),
                    },
                    EventMask::EXISTS,
                ),
                RefSession::new(
                    TaskScope::File {
                        registered_dir: SUB,
                    },
                    EventMask::EXISTS | EventMask::MODIFIED,
                ),
                RefSession::new(
                    TaskScope::File {
                        registered_dir: ROOT,
                    },
                    EventMask::ADDED | EventMask::REMOVED | EventMask::DIRTIED | EventMask::FLUSHED,
                ),
            ],
            resident: BTreeSet::new(),
        };
        for s in &mut model.sessions {
            s.sid = Some(duet.register(s.scope, s.mask, &fs).expect("register"));
        }
        let nops = rng.gen_range(1, 240);
        for op in 0..nops {
            let action = tree_action(rng, model.sessions.len());
            match action {
                TreeAction::Event { file, page, tag } => {
                    let key = PageKey::new(TREE_FILES[file], PageIndex(page));
                    let pre = fs.state(key);
                    let ev = legal_event(
                        &RefPage {
                            exists: pre.0,
                            modified: pre.1,
                            ..RefPage::default()
                        },
                        tag,
                    );
                    // The page's dirty bit as of the event; a quarter of
                    // the adds create a dirty page (a write miss).
                    let dirty = match ev {
                        PageEvent::Added => tag % 4 == 0,
                        PageEvent::Removed => pre.1,
                        PageEvent::Dirtied => true,
                        PageEvent::Flushed => false,
                    };
                    let meta = PageMeta {
                        key,
                        block: Some(block_of(key)),
                        dirty,
                    };
                    if ev == PageEvent::Removed {
                        fs.cached.remove(&key);
                    } else {
                        fs.cached.insert(key, meta);
                    }
                    duet.handle_page_event(meta, ev, &fs);
                    model.event(&fs, key, ev, pre);
                }
                TreeAction::Fetch(i) => {
                    let Some(sid) = model.sessions[i].sid else {
                        continue;
                    };
                    let items = duet.fetch(sid, 64, &fs).expect("fetch");
                    let mut got: Vec<PageKey> = items
                        .iter()
                        .map(|it| match it.id {
                            ItemId::Inode(ino) => {
                                PageKey::new(ino, PageIndex(it.offset / sim_core::PAGE_SIZE))
                            }
                            ItemId::Block(b) => {
                                PageKey::new(InodeNr(b.raw() / 100), PageIndex(b.raw() % 100))
                            }
                        })
                        .collect();
                    got.sort();
                    let want = model.fetch_all(&fs, i);
                    assert_eq!(got, want, "op {op}: fetch by session {i}");
                }
                TreeAction::SetDoneInode(i, file) => {
                    let Some(sid) = model.sessions[i].sid else {
                        continue;
                    };
                    let ino = TREE_FILES[file];
                    duet.set_done(sid, ItemId::Inode(ino)).expect("set_done");
                    model.set_done_inode(&fs, i, ino);
                }
                TreeAction::SetDoneBlock(i, file, page) => {
                    let Some(sid) = model.sessions[i].sid else {
                        continue;
                    };
                    if !matches!(model.sessions[i].scope, TaskScope::Block { .. }) {
                        continue;
                    }
                    let b = block_of(PageKey::new(TREE_FILES[file], PageIndex(page)));
                    duet.set_done(sid, ItemId::Block(b)).expect("set_done");
                    model.sessions[i].done.insert(b.raw());
                }
                TreeAction::Toggle(i) => match model.sessions[i].sid {
                    Some(sid) => {
                        duet.deregister(sid).expect("deregister");
                        model.deregister(&fs, i);
                    }
                    None => {
                        let s = &mut model.sessions[i];
                        s.sid = Some(duet.register(s.scope, s.mask, &fs).expect("register"));
                        model.scan(&fs, i);
                    }
                },
            }
            assert_eq!(
                duet.descriptor_count(),
                model.owed_pages(&fs),
                "op {op} ({action:?}): descriptor count vs pages still owed"
            );
            assert_eq!(
                model.owed_pages(&fs),
                model.resident.len(),
                "op {op}: the model frees every page nobody is owed"
            );
        }
        Ok(())
    })
    .unwrap();
}
