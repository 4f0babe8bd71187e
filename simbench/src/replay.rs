//! The traced replay: steps the same public layer calls as
//! `experiments::runner`, in the runner's order, with a span around
//! each call into a layer. Its simulated results must equal the public
//! runner's bit for bit; the benchmark checks that on every cell by
//! digest, so any drift between this copy of the loop and the runner
//! shows up as a failed cell rather than as a silent change in what is
//! measured.

use crate::spans::{names, Tracer};
use duet::Duet;
use duet_tasks::{
    pump_btrfs, pump_f2fs, Backup, BtrfsCtx, BtrfsTask, Defrag, GarbageCollector, GcCtx, Scrubber,
    TaskMode,
};
use experiments::metrics::since_epoch;
use experiments::snapshot::{obtain, warm_stats, PreparedStack};
use experiments::{
    ExperimentConfig, ExperimentResult, GcExperimentConfig, GcResult, ProfileCache, TaskKind,
    TaskOutcome,
};
use sim_btrfs::BtrfsSim;
use sim_core::{InodeNr, SimDuration, SimInstant, SimResult};
use sim_disk::{Disk, HddModel, IoClass};
use sim_f2fs::F2fsSim;
use workloads::{Workload, WorkloadFs};

// The runner's writeback policy (private constants of
// `experiments::runner`): dirty pages beyond 1/8 of the cache, or any
// dirty page once a second, trigger a 1024-page flush.
const WB_HIGH_FRACTION: usize = 8;
const WB_PERIOD: SimDuration = SimDuration::from_secs(1);
const WB_BATCH: usize = 1024;

/// Span names of one filesystem's calls.
pub struct FsNames {
    pub read: &'static str,
    pub write: &'static str,
    pub writeback: &'static str,
}

pub const BTRFS: FsNames = FsNames {
    read: "sim-btrfs.read",
    write: "sim-btrfs.write",
    writeback: "sim-btrfs.writeback",
};

pub const F2FS: FsNames = FsNames {
    read: "sim-f2fs.read",
    write: "sim-f2fs.write",
    writeback: "sim-f2fs.writeback",
};

/// Deterministic counts the driven runs add up, summed over cells.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub obtain_calls: u64,
    pub obtain_forks: u64,
    pub profile_calls: u64,
    pub profile_hits: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_writebacks: u64,
    pub disk_normal_ops: u64,
    pub disk_idle_ops: u64,
    pub disk_blocks: u64,
    pub disk_idle_busy_ns: u64,
    pub duet_events: u64,
    pub duet_items_fetched: u64,
    pub duet_peak_descriptors: u64,
    pub saved_units: u64,
    pub total_units: u64,
    pub sim_ns: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.obtain_calls += o.obtain_calls;
        self.obtain_forks += o.obtain_forks;
        self.profile_calls += o.profile_calls;
        self.profile_hits += o.profile_hits;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_evictions += o.cache_evictions;
        self.cache_writebacks += o.cache_writebacks;
        self.disk_normal_ops += o.disk_normal_ops;
        self.disk_idle_ops += o.disk_idle_ops;
        self.disk_blocks += o.disk_blocks;
        self.disk_idle_busy_ns += o.disk_idle_busy_ns;
        self.duet_events += o.duet_events;
        self.duet_items_fetched += o.duet_items_fetched;
        self.duet_peak_descriptors = self.duet_peak_descriptors.max(o.duet_peak_descriptors);
        self.saved_units += o.saved_units;
        self.total_units += o.total_units;
        self.sim_ns += o.sim_ns;
    }
}

/// A filesystem whose workload-facing calls are spans.
struct TimedFs<'a, F> {
    fs: &'a mut F,
    tr: &'a mut Tracer,
    names: &'static FsNames,
}

impl<F: WorkloadFs> WorkloadFs for TimedFs<'_, F> {
    fn wl_read(
        &mut self,
        ino: InodeNr,
        off: u64,
        len: u64,
        now: SimInstant,
    ) -> SimResult<SimInstant> {
        let id = self.tr.begin(self.names.read);
        let r = self.fs.wl_read(ino, off, len, now);
        self.tr.end(id);
        r
    }

    fn wl_write(
        &mut self,
        ino: InodeNr,
        off: u64,
        len: u64,
        now: SimInstant,
    ) -> SimResult<SimInstant> {
        let id = self.tr.begin(self.names.write);
        let r = self.fs.wl_write(ino, off, len, now);
        self.tr.end(id);
        r
    }

    fn wl_append(&mut self, ino: InodeNr, len: u64, now: SimInstant) -> SimResult<SimInstant> {
        let id = self.tr.begin(self.names.write);
        let r = self.fs.wl_append(ino, len, now);
        self.tr.end(id);
        r
    }

    fn wl_delete(&mut self, ino: InodeNr) -> SimResult<()> {
        self.fs.wl_delete(ino)
    }

    fn wl_create(&mut self, name: &str) -> SimResult<InodeNr> {
        self.fs.wl_create(name)
    }

    fn wl_populate(&mut self, name: &str, size: u64) -> SimResult<InodeNr> {
        self.fs.wl_populate(name, size)
    }

    fn wl_size(&self, ino: InodeNr) -> SimResult<u64> {
        self.fs.wl_size(ino)
    }

    fn wl_writeback(&mut self, max_pages: usize, now: SimInstant) -> SimResult<SimInstant> {
        let id = self.tr.begin(self.names.writeback);
        let r = self.fs.wl_writeback(max_pages, now);
        self.tr.end(id);
        r
    }

    fn wl_dirty_pages(&self) -> usize {
        self.fs.wl_dirty_pages()
    }

    fn foreground_busy(&self) -> SimDuration {
        self.fs.foreground_busy()
    }
}

/// Runs one operation of the workload through a [`TimedFs`].
fn run_op<F: WorkloadFs>(
    w: &mut Workload,
    fs: &mut F,
    names: &'static FsNames,
    tr: &mut Tracer,
    now: SimInstant,
) -> SimResult<SimInstant> {
    let id = tr.begin(names::RUN_OP);
    let r = w.run_op(
        &mut TimedFs {
            fs,
            tr: &mut *tr,
            names,
        },
        now,
    );
    tr.end(id);
    r
}

fn pump_b(fs: &mut BtrfsSim, duet: &mut Duet, tr: &mut Tracer) {
    let id = tr.begin(names::PUMP);
    pump_btrfs(fs, duet);
    tr.end(id);
}

fn pump_f(fs: &mut F2fsSim, duet: &mut Duet, tr: &mut Tracer) {
    let id = tr.begin(names::PUMP);
    pump_f2fs(fs, duet);
    tr.end(id);
}

/// Calls one maintenance-task method inside a span.
fn task_call<T>(
    tr: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> SimResult<T>,
) -> SimResult<T> {
    let id = tr.begin(name);
    let r = f();
    tr.end(id);
    r
}

fn build_task(kind: TaskKind, mode: TaskMode, cfg: &ExperimentConfig) -> Box<dyn BtrfsTask> {
    match kind {
        TaskKind::Scrub => Box::new(Scrubber::new(mode)),
        TaskKind::Backup => Box::new(Backup::new(mode)),
        TaskKind::Defrag => {
            let threshold = if cfg.scatter_layout { 4 } else { 1 };
            let mut d = Defrag::new(mode).with_threshold(threshold);
            if cfg.defrag_file_granularity {
                d = d.with_file_granularity();
            }
            Box::new(d)
        }
    }
}

/// One Btrfs-model experiment, as `run_experiment_cached` runs it, or
/// as `run_completion_probe_cached` runs it when `stop_when_tasks_done`
/// (then only `all_completed()` of the result is meaningful).
pub fn btrfs_run(
    cfg: &ExperimentConfig,
    profiles: &ProfileCache,
    stop_when_tasks_done: bool,
    tr: &mut Tracer,
    c: &mut Counts,
) -> SimResult<ExperimentResult> {
    let before = profiles.len();
    let id = tr.begin(names::PROFILE);
    let seed = profiles.get_or_profile(cfg);
    tr.end(id);
    let seed = seed?;
    c.profile_calls += 1;
    if seed.is_some() && profiles.len() == before {
        c.profile_hits += 1;
    }

    let (hits_before, _) = warm_stats();
    let id = tr.begin(names::OBTAIN);
    let prepared = obtain(cfg);
    tr.end(id);
    let PreparedStack {
        mut fs,
        mut duet,
        mut workload,
    } = prepared?;
    c.obtain_calls += 1;
    if warm_stats().0 > hits_before {
        c.obtain_forks += 1;
    }
    if let Some(w) = workload.as_mut() {
        if let Some(wcfg) = cfg.workload {
            w.set_target_util(wcfg.target_util);
        }
        if let Some(ns) = seed {
            w.seed_busy_per_op(ns);
        }
    }

    let cache0 = fs.cache().stats();
    let id = tr.begin(names::LOOP);
    let r = btrfs_loop(
        cfg,
        &mut fs,
        &mut duet,
        &mut workload,
        stop_when_tasks_done,
        tr,
    );
    tr.end(id);
    let (result, end) = r?;

    let cache = fs.cache().stats();
    let m = fs.disk().metrics();
    let ds = duet.stats();
    if let Some(w) = &workload {
        c.bytes_read += w.stats().bytes_read;
        c.bytes_written += w.stats().bytes_written;
    }
    c.cache_hits += cache.hits - cache0.hits;
    c.cache_misses += cache.misses - cache0.misses;
    c.cache_evictions += cache.evictions - cache0.evictions;
    c.cache_writebacks += cache.writebacks - cache0.writebacks;
    c.disk_normal_ops += m.normal.ops();
    c.disk_idle_ops += m.idle.ops();
    c.disk_blocks += m.total_blocks();
    c.disk_idle_busy_ns += m.idle.busy_time.as_nanos();
    c.duet_events += ds.events_processed;
    c.duet_items_fetched += ds.items_fetched;
    c.duet_peak_descriptors = c.duet_peak_descriptors.max(ds.peak_descriptors as u64);
    for t in &result.tasks {
        c.saved_units += t.metrics.saved_units;
        c.total_units += t.metrics.total_units;
    }
    c.sim_ns += since_epoch(end).as_nanos();
    Ok(result)
}

/// The runner's main loop (`experiments::runner::run_experiment_inner`
/// after the setup prefix), with spans.
fn btrfs_loop(
    cfg: &ExperimentConfig,
    fs: &mut BtrfsSim,
    duet: &mut Duet,
    workload: &mut Option<Workload>,
    stop_when_tasks_done: bool,
    tr: &mut Tracer,
) -> SimResult<(ExperimentResult, SimInstant)> {
    let mode = if cfg.duet {
        TaskMode::Duet
    } else {
        TaskMode::Baseline
    };
    let mut tasks: Vec<Box<dyn BtrfsTask>> = cfg
        .tasks
        .iter()
        .map(|&k| build_task(k, mode, cfg))
        .collect();
    for t in tasks.iter_mut() {
        task_call(tr, names::TASK_START, || {
            t.start(BtrfsCtx {
                fs: &mut *fs,
                duet: &mut *duet,
                now: SimInstant::EPOCH,
            })
        })?;
        pump_b(fs, duet, tr);
    }

    let end = cfg.end();
    let mut now = SimInstant::EPOCH;
    let mut last_wb = now;
    let mut last_poll = now;
    let mut last_protect = now;
    let mut completion: Vec<Option<SimInstant>> = vec![None; tasks.len()];
    let mut rr = 0usize;
    let mut peak_memory = 0u64;
    let mut iter = 0u64;
    while now < end {
        iter += 1;
        if iter.is_multiple_of(256) && cfg.duet {
            peak_memory = peak_memory.max(duet.memory_bytes());
        }
        let due = fs.dirty_pages() > fs.cache().capacity() / WB_HIGH_FRACTION
            || (now.saturating_duration_since(last_wb) >= WB_PERIOD && fs.dirty_pages() > 0);
        if due {
            let id = tr.begin(BTRFS.writeback);
            let r = fs.background_writeback(WB_BATCH, IoClass::Normal, now);
            tr.end(id);
            r?;
            pump_b(fs, duet, tr);
            last_wb = now;
        }
        if now.saturating_duration_since(last_poll) >= cfg.poll_period {
            for (i, t) in tasks.iter_mut().enumerate() {
                if completion[i].is_none() {
                    task_call(tr, names::TASK_POLL, || {
                        t.poll(BtrfsCtx {
                            fs: &mut *fs,
                            duet: &mut *duet,
                            now,
                        })
                    })?;
                }
            }
            last_poll = now;
        }
        if cfg.informed_replacement
            && now.saturating_duration_since(last_protect) >= SimDuration::from_millis(10)
        {
            let max = cfg.cache_pages / 4;
            let pending = duet.pending_pages(max);
            fs.cache_mut().set_protected(pending, max);
            last_protect = now;
        }
        let next_wl = workload.as_ref().map(|w| w.next_op_time());
        if next_wl.is_some_and(|t| t <= now) {
            if let Some(w) = workload.as_mut() {
                run_op(w, fs, &BTRFS, tr, now)?;
                pump_b(fs, duet, tr);
            }
            continue;
        }
        let n_incomplete = completion.iter().filter(|c| c.is_none()).count();
        let device_free = fs.disk().busy_until();
        if n_incomplete > 0
            && fs.disk().is_idle_at(now)
            && cfg
                .policy
                .may_dispatch_maintenance(now, device_free, next_wl)
        {
            let mut nth = rr % n_incomplete;
            let mut i = 0;
            for (t, c) in completion.iter().enumerate() {
                if c.is_none() {
                    i = t;
                    if nth == 0 {
                        break;
                    }
                    nth -= 1;
                }
            }
            rr += 1;
            let task = &mut tasks[i];
            let r = task_call(tr, names::TASK_STEP, || {
                task.step(BtrfsCtx {
                    fs: &mut *fs,
                    duet: &mut *duet,
                    now,
                })
            })?;
            pump_b(fs, duet, tr);
            if r.complete {
                completion[i] = Some(r.finish);
                task_call(tr, names::TASK_STOP, || {
                    task.stop(BtrfsCtx {
                        fs: &mut *fs,
                        duet: &mut *duet,
                        now,
                    })
                })?;
                if stop_when_tasks_done && completion.iter().all(Option::is_some) {
                    break;
                }
            }
            continue;
        }
        if n_incomplete == 0 && next_wl.is_none() {
            break;
        }
        let mut next = end;
        if let Some(t) = next_wl {
            next = next.min(t);
        }
        if n_incomplete > 0 {
            let dispatch_at = cfg
                .policy
                .earliest_maintenance_dispatch(now, device_free)
                .max(device_free);
            next = next.min(dispatch_at);
            next = next.min(last_poll + cfg.poll_period);
        }
        now = next.max(now + SimDuration::from_nanos(1));
    }
    if cfg.duet {
        peak_memory = peak_memory.max(duet.memory_bytes());
    }
    for t in tasks.iter_mut() {
        task_call(tr, names::TASK_FINALIZE, || {
            t.finalize(BtrfsCtx {
                fs: &mut *fs,
                duet: &mut *duet,
                now,
            })
        })?;
    }

    let outcomes: Vec<TaskOutcome> = tasks
        .iter()
        .zip(&completion)
        .map(|(t, c)| TaskOutcome {
            name: t.name(),
            metrics: t.metrics(),
            completed: c.is_some(),
            completion_time: c.map(since_epoch),
        })
        .collect();
    let m = fs.disk().metrics();
    let lat = workload
        .as_ref()
        .map(|w| (w.latency_ms().mean(), w.latency_ms().ci95()))
        .unwrap_or((0.0, 0.0));
    let result = ExperimentResult {
        duration: cfg.duration,
        achieved_util: fs.disk().foreground_utilization(cfg.duration),
        tasks: outcomes,
        workload_ops: workload.as_ref().map(|w| w.stats().ops).unwrap_or(0),
        maintenance_blocks: m.idle.blocks(),
        maintenance_busy: m.idle.busy_time,
        foreground_blocks: m.normal.blocks(),
        workload_latency_ms: lat,
        duet_stats: cfg.duet.then(|| duet.stats()),
        duet_peak_memory: peak_memory,
    };
    Ok((result, now))
}

/// The F2fs setup prefix of `run_gc_experiment`: device, filesystem,
/// framework and populated workload, events drained, metrics reset.
pub fn f2fs_setup(cfg: &GcExperimentConfig) -> SimResult<(F2fsSim, Duet, Workload)> {
    let capacity = cfg.nsegs as u64 * cfg.seg_blocks;
    let disk = Disk::new(Box::new(HddModel::sas_10k(capacity)));
    let mut fs = F2fsSim::new(sim_core::DeviceId(1), disk, cfg.cache_pages, cfg.seg_blocks);
    let duet = Duet::with_defaults();
    let workload = Workload::setup(&mut fs, cfg.workload, cfg.fileset)?;
    fs.cache_mut().drain_events();
    fs.disk_mut().reset_metrics();
    Ok((fs, duet, workload))
}

/// One F2fs cleaning run, as `run_gc_experiment` runs it.
pub fn gc_run(cfg: &GcExperimentConfig, tr: &mut Tracer, c: &mut Counts) -> SimResult<GcResult> {
    let id = tr.begin(names::F2FS_SETUP);
    let setup = f2fs_setup(cfg);
    tr.end(id);
    let (mut fs, mut duet, mut workload) = setup?;
    let cache0 = fs.cache().stats();
    let id = tr.begin(names::LOOP);
    let r = gc_loop(cfg, &mut fs, &mut duet, &mut workload, tr);
    tr.end(id);
    let (gc, end) = r?;

    let cache = fs.cache().stats();
    let m = fs.disk().metrics();
    let ds = duet.stats();
    c.bytes_read += workload.stats().bytes_read;
    c.bytes_written += workload.stats().bytes_written;
    c.cache_hits += cache.hits - cache0.hits;
    c.cache_misses += cache.misses - cache0.misses;
    c.cache_evictions += cache.evictions - cache0.evictions;
    c.cache_writebacks += cache.writebacks - cache0.writebacks;
    c.disk_normal_ops += m.normal.ops();
    c.disk_idle_ops += m.idle.ops();
    c.disk_blocks += m.total_blocks();
    c.disk_idle_busy_ns += m.idle.busy_time.as_nanos();
    c.duet_events += ds.events_processed;
    c.duet_items_fetched += ds.items_fetched;
    c.duet_peak_descriptors = c.duet_peak_descriptors.max(ds.peak_descriptors as u64);
    for r in &gc.results {
        // A valid block found in the cache needs no cleaning read.
        c.saved_units += r.cached_blocks as u64;
        c.total_units += r.valid_blocks as u64;
    }
    c.sim_ns += since_epoch(end).as_nanos();

    let n = gc.results.len();
    let mean_cached = if n == 0 {
        0.0
    } else {
        gc.results
            .iter()
            .map(|r| r.cached_blocks as f64)
            .sum::<f64>()
            / n as f64
    };
    let mean_valid = if n == 0 {
        0.0
    } else {
        gc.results
            .iter()
            .map(|r| r.valid_blocks as f64)
            .sum::<f64>()
            / n as f64
    };
    Ok(GcResult {
        mean_cleaning_ms: gc.mean_cleaning_ms(),
        workload_latency_ms: (workload.latency_ms().mean(), workload.latency_ms().ci95()),
        ended_in_ssr: fs.is_ssr(),
        workload_ops: workload.stats().ops,
        cleanings: n,
        mean_cached,
        mean_valid,
        achieved_util: fs.foreground_busy().as_secs_f64() / cfg.duration.as_secs_f64(),
    })
}

/// The cleaning loop of `experiments::runner::run_gc_experiment_traced`.
fn gc_loop(
    cfg: &GcExperimentConfig,
    fs: &mut F2fsSim,
    duet: &mut Duet,
    workload: &mut Workload,
    tr: &mut Tracer,
) -> SimResult<(GarbageCollector, SimInstant)> {
    let mode = if cfg.duet {
        TaskMode::Duet
    } else {
        TaskMode::Baseline
    };
    let mut gc = GarbageCollector::new(mode, cfg.victim_policy).with_window(cfg.gc_window);
    task_call(tr, names::TASK_START, || {
        gc.start(GcCtx {
            fs: &mut *fs,
            duet: &mut *duet,
            now: SimInstant::EPOCH,
        })
    })?;
    pump_f(fs, duet, tr);

    let end = SimInstant::EPOCH + cfg.duration;
    let mut now = SimInstant::EPOCH;
    let mut last_wb = now;
    let mut last_gc = SimInstant::EPOCH;
    let mut first_gc_done = false;
    while now < end {
        let wb_due = fs.dirty_pages() > fs.cache().capacity() / WB_HIGH_FRACTION
            || (now.saturating_duration_since(last_wb) >= WB_PERIOD && fs.dirty_pages() > 0);
        if wb_due {
            let id = tr.begin(F2FS.writeback);
            let r = fs.background_writeback(WB_BATCH, IoClass::Normal, now);
            tr.end(id);
            r?;
            pump_f(fs, duet, tr);
            last_wb = now;
        }
        let next_wl = workload.next_op_time();
        if next_wl <= now {
            run_op(workload, fs, &F2FS, tr, now)?;
            pump_f(fs, duet, tr);
            continue;
        }
        let device_free = fs.disk().busy_until();
        let gc_due = !first_gc_done || now.saturating_duration_since(last_gc) >= cfg.gc_interval;
        if gc_due
            && fs.disk().is_idle_at(now)
            && cfg
                .policy
                .may_dispatch_maintenance(now, device_free, Some(next_wl))
        {
            task_call(tr, names::TASK_STEP, || {
                gc.step(GcCtx {
                    fs: &mut *fs,
                    duet: &mut *duet,
                    now,
                })
            })?;
            pump_f(fs, duet, tr);
            last_gc = now;
            first_gc_done = true;
            continue;
        }
        let mut next = next_wl.min(end);
        let dispatch_at = cfg
            .policy
            .earliest_maintenance_dispatch(now, device_free)
            .max(device_free)
            .max(last_gc + cfg.gc_interval);
        next = next.min(dispatch_at);
        now = next.max(now + SimDuration::from_nanos(1));
    }
    Ok((gc, now))
}
