//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function, timed on the
//! host: a name, a start, an end and the span that was open when it
//! began (its parent). The spans of one cell (the benchmark's unit of
//! work) are kept in memory while the cell runs and folded into
//! per-name aggregates when it ends, so a long batch does not hold
//! millions of spans at once; the aggregates are written out when the
//! run ends.
//! A span's self time is its duration minus the durations of its
//! direct children (children nest strictly inside their parent).

use std::collections::BTreeMap;
use std::time::Instant;

/// Span names: one per layer boundary the traced replay crosses.
pub mod names {
    pub const CELL: &str = "cell";
    pub const OBTAIN: &str = "experiments.obtain";
    pub const PROFILE: &str = "experiments.profile";
    pub const F2FS_SETUP: &str = "experiments.f2fs_setup";
    pub const LOOP: &str = "experiments.loop";
    pub const RUN_OP: &str = "workloads.run_op";
    pub const PUMP: &str = "duet.pump";
    pub const TASK_START: &str = "duet-tasks.start";
    pub const TASK_STEP: &str = "duet-tasks.step";
    pub const TASK_POLL: &str = "duet-tasks.poll";
    pub const TASK_FINALIZE: &str = "duet-tasks.finalize";
    pub const TASK_STOP: &str = "duet-tasks.stop";
}

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), nanoseconds.
    pub self_ns: u64,
}

/// One worker's recorder. Not shared between threads.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Per-name totals of every folded cell.
    pub agg: BTreeMap<&'static str, Agg>,
    /// `(parent name, child name)` → spans, for the written-out table.
    pub edges: BTreeMap<(&'static str, &'static str), Agg>,
    /// Spans recorded so far.
    pub recorded: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            agg: BTreeMap::new(),
            edges: BTreeMap::new(),
            recorded: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    #[inline]
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Folds the finished cell's spans into the aggregates. Spans left
    /// open by an error unwinding through `?` are closed at this
    /// instant so the tree stays well formed.
    pub fn end_cell(&mut self) {
        let now = self.now_ns();
        while let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = now;
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur.saturating_sub(child_ns[i]);
            for a in [
                self.agg.entry(s.name).or_default(),
                self.edges
                    .entry((
                        if s.parent == NO_PARENT {
                            "-"
                        } else {
                            self.spans[s.parent as usize].name
                        },
                        s.name,
                    ))
                    .or_default(),
            ] {
                a.calls += 1;
                a.total_ns += dur;
                a.self_ns += self_ns;
            }
        }
        self.recorded += self.spans.len() as u64;
        self.spans.clear();
    }

    /// Adds another worker's aggregates into this one.
    pub fn merge(&mut self, other: &Tracer) {
        for (k, a) in &other.agg {
            add(self.agg.entry(k).or_default(), a);
        }
        for (k, a) in &other.edges {
            add(self.edges.entry(*k).or_default(), a);
        }
        self.recorded += other.recorded;
    }

    /// Totals for `name` (zero when no such span was recorded).
    pub fn get(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }
}

fn add(into: &mut Agg, a: &Agg) {
    into.calls += a.calls;
    into.total_ns += a.total_ns;
    into.self_ns += a.self_ns;
}
