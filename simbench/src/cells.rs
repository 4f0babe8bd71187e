//! The three workloads, their cells, and the output checks.
//!
//! A cell is the benchmark's unit of work and always starts cold: an
//! empty snapshot store on its thread and a fresh `ProfileCache`, so
//! every repetition pays the same set-up and the deterministic counts
//! (forks, memo hits) do not depend on which worker ran which cell.

use crate::replay::{self, Counts};
use crate::spans::{names, Tracer};
use experiments::snapshot::{clear_store, obtain};
use experiments::{
    max_utilization, paper_scaled, run_completion_probe_cached, run_experiment_cached,
    run_gc_experiment, ExperimentConfig, ExperimentResult, GcExperimentConfig, GcResult,
    ProfileCache, TaskKind,
};
use sim_core::snapshot::Digest;
use sim_core::{SimDuration, SimResult};
use sim_disk::SchedulerPolicy;
use sim_f2fs::VictimPolicy;
use std::time::Instant;
use workloads::{DistKind, FileSetConfig, Personality, WorkloadConfig};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WebserverScrubBackup,
    FileserverF2fsGc,
    Table5Probes,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WebserverScrubBackup,
        Workload::FileserverF2fsGc,
        Workload::Table5Probes,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WebserverScrubBackup => "webserver_scrub_backup",
            Workload::FileserverF2fsGc => "fileserver_f2fs_gc",
            Workload::Table5Probes => "table5_probes",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Scale-down of the paper's setup (1/`scale`). Kept at
    /// `repro_all`'s own range: host cost per simulated event grows with
    /// run size, and smaller runs would hide that growth.
    pub fn scale(self) -> u64 {
        match self {
            Workload::WebserverScrubBackup => 32,
            Workload::FileserverF2fsGc | Workload::Table5Probes => 64,
        }
    }

    /// Cells per batch: a timed run holds whole batches. A Table 5
    /// batch is every row × task × mode, so its baseline/Duet pairs can
    /// be checked against each other.
    pub fn batch_len(self) -> usize {
        match self {
            Workload::WebserverScrubBackup | Workload::FileserverF2fsGc => 1,
            Workload::Table5Probes => T5_CELLS,
        }
    }

    /// Cells a timed run starts at least: 40 single-probe cells, or two
    /// Table 5 batches (about 140 probes), so the 75th percentile keeps
    /// at least ten probes beyond it.
    pub fn min_cells(self) -> usize {
        match self {
            Workload::WebserverScrubBackup | Workload::FileserverF2fsGc => 40,
            Workload::Table5Probes => 2 * T5_CELLS,
        }
    }

    /// Cells of the traced run: the first cells of a timed run.
    pub fn trace_cells(self) -> usize {
        match self {
            Workload::WebserverScrubBackup | Workload::FileserverF2fsGc => 8,
            Workload::Table5Probes => T5_CELLS,
        }
    }

    /// The seed of cell `cell` (counted from the start of the run).
    /// Every cell, or every Table 5 baseline/Duet pair, gets its own
    /// seed: host cost per simulated event differs by up to 1.8x
    /// between seeds at equal event counts, so a run must measure many
    /// seeds, not one.
    pub fn cell_seed(self, seed: u64, cell: usize) -> u64 {
        let k = match self {
            Workload::Table5Probes => cell / 2,
            _ => cell,
        };
        // SplitMix64 of (seed, k): well-spread, distinct seeds.
        let mut z = seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Table 5 rows the benchmark runs: a skewed, write-heavy row (COW
/// writes, hit-heavy cache), the uniform read row, and a skewed
/// read-mostly row.
const T5_ROWS: [(Personality, DistKind); 3] = [
    (Personality::FileServer, DistKind::MsTrace(0)),
    (Personality::WebServer, DistKind::Uniform),
    (Personality::WebProxy, DistKind::MsTrace(0)),
];
const T5_TASKS: [TaskKind; 3] = [TaskKind::Scrub, TaskKind::Backup, TaskKind::Defrag];
/// Rows × tasks × {baseline, Duet}.
pub const T5_CELLS: usize = 18;

/// Cell `i` of a Table 5 batch (any run index: batches repeat the
/// layout), row-major, baseline before Duet.
fn t5_cell(i: usize) -> (Personality, DistKind, TaskKind, bool) {
    let i = i % T5_CELLS;
    let (p, d) = T5_ROWS[i / 6];
    (p, d, T5_TASKS[(i / 2) % 3], i % 2 == 1)
}

fn reseed(cfg: &mut ExperimentConfig, seed: u64) {
    cfg.seed = seed;
    if let Some(w) = cfg.workload.as_mut() {
        w.seed = seed;
    }
}

/// Figs. 5/6 regime: webserver, uniform, 100 % overlap, 50 % target
/// utilization, Duet scrub + backup over one full window.
pub fn web_cfg(scale: u64, seed: u64) -> ExperimentConfig {
    let mut cfg = paper_scaled(
        scale,
        Personality::WebServer,
        DistKind::Uniform,
        1.0,
        0.5,
        vec![TaskKind::Scrub, TaskKind::Backup],
        true,
    );
    reseed(&mut cfg, seed);
    cfg
}

/// One Table 6 cell (the `table6_gc_cleaning` set-up at 60 %
/// utilization).
pub fn gc_cfg(scale: u64, seed: u64, duet: bool) -> GcExperimentConfig {
    let seg_blocks = 512u64;
    let nsegs = ((48u64 << 30) / scale / (seg_blocks * sim_core::PAGE_SIZE)).max(64) as u32;
    let data_bytes = (24u64 << 30) / scale;
    let num_files = (data_bytes / (256 * 1024)).max(16) as usize;
    GcExperimentConfig {
        nsegs,
        seg_blocks,
        cache_pages: (((2u64 << 30) / scale) / sim_core::PAGE_SIZE).max(512) as usize,
        fileset: FileSetConfig {
            num_files,
            mean_file_bytes: 256 * 1024,
            sigma: 0.4,
        },
        workload: WorkloadConfig {
            personality: Personality::FileServer,
            dist: DistKind::Uniform,
            coverage: 1.0,
            target_util: 0.6,
            burst: 8,
            append_bytes: 16 * 1024,
            seed,
        },
        duet,
        victim_policy: VictimPolicy::Greedy,
        gc_window: 4096.min(nsegs),
        gc_interval: SimDuration::from_millis(200),
        policy: SchedulerPolicy::default_cfq(),
        duration: SimDuration::from_secs((30 * 60) / scale),
        seed,
    }
}

/// The configuration a Table 5 bisection probes at `util`.
pub fn t5_cfg(scale: u64, cell: usize, util: f64, seed: u64) -> ExperimentConfig {
    let (p, d, task, duet) = t5_cell(cell);
    let mut cfg = paper_scaled(scale, p, d, 1.0, util, vec![task], duet);
    if task == TaskKind::Defrag {
        cfg.fragmentation = Some((0.1, 5));
    }
    reseed(&mut cfg, seed);
    cfg
}

/// Table 5's label for a bisection result.
fn t5_label(u: Option<f64>) -> String {
    match u {
        Some(u) => format!("{:.0}%", u * 100.0),
        None => "never".into(),
    }
}

fn digest_experiment(d: &mut Digest, r: &ExperimentResult) {
    d.write_u64(r.duration.as_nanos());
    d.write_f64(r.achieved_util);
    d.write_usize(r.tasks.len());
    for t in &r.tasks {
        d.write_str(&t.name);
        let m = t.metrics;
        for v in [
            m.total_units,
            m.done_units,
            m.saved_units,
            m.blocks_read,
            m.blocks_written,
        ] {
            d.write_u64(v);
        }
        d.write_bool(t.completed);
        d.write_u64(t.completion_time.map_or(u64::MAX, |c| c.as_nanos()));
    }
    d.write_u64(r.workload_ops);
    d.write_u64(r.maintenance_blocks);
    d.write_u64(r.maintenance_busy.as_nanos());
    d.write_u64(r.foreground_blocks);
    d.write_f64(r.workload_latency_ms.0);
    d.write_f64(r.workload_latency_ms.1);
    d.write_bool(r.duet_stats.is_some());
    if let Some(s) = r.duet_stats {
        for v in [
            s.events_processed,
            s.events_dropped,
            s.fetch_calls,
            s.items_fetched,
            s.peak_descriptors as u64,
        ] {
            d.write_u64(v);
        }
    }
    d.write_u64(r.duet_peak_memory);
}

fn digest_gc(d: &mut Digest, r: &GcResult) {
    d.write_f64(r.mean_cleaning_ms);
    d.write_f64(r.workload_latency_ms.0);
    d.write_f64(r.workload_latency_ms.1);
    d.write_bool(r.ended_in_ssr);
    d.write_u64(r.workload_ops);
    d.write_usize(r.cleanings);
    d.write_f64(r.mean_cached);
    d.write_f64(r.mean_valid);
    d.write_f64(r.achieved_util);
}

/// What one cell produced.
#[derive(Debug, Clone, Default)]
pub struct CellOut {
    /// Host seconds of the cold set-up before the measured calls.
    pub setup_s: f64,
    /// Host seconds a user waits for the cell through the public API.
    pub wall_s: f64,
    /// Host seconds of each measured public-runner call: a completion
    /// probe (Table 5), a full window (webserver), a baseline + Duet
    /// pair (fileserver).
    pub probes_s: Vec<f64>,
    /// Simulated window seconds those calls decided.
    pub sim_s: f64,
    /// Digest of the simulated results (hex).
    pub digest: String,
    /// Table 5 only: the bisected maximum utilization.
    pub max_util: Option<Option<f64>>,
    /// Deterministic counts (traced replay only).
    pub counts: Counts,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs cell `cell` of `w` through the public `experiments` API with
/// tracing off.
pub fn run_public(w: Workload, scale: u64, cell: usize, seed: u64) -> SimResult<CellOut> {
    clear_store();
    let r = public_body(w, scale, cell, w.cell_seed(seed, cell));
    // Free the cell's snapshot now: a worker holds nothing between cells.
    clear_store();
    r
}

fn public_body(w: Workload, scale: u64, cell: usize, seed: u64) -> SimResult<CellOut> {
    let profiles = ProfileCache::new();
    let mut out = CellOut::default();
    let mut d = Digest::new();
    match w {
        Workload::WebserverScrubBackup => {
            let cfg = web_cfg(scale, seed);
            let t0 = Instant::now();
            drop(obtain(&cfg)?);
            profiles.get_or_profile(&cfg)?;
            out.setup_s = secs(t0);
            let t1 = Instant::now();
            let r = run_experiment_cached(&cfg, &profiles)?;
            out.probes_s.push(secs(t1));
            out.wall_s = secs(t0);
            out.sim_s = cfg.duration.as_secs_f64();
            digest_experiment(&mut d, &r);
        }
        Workload::FileserverF2fsGc => {
            let base = gc_cfg(scale, seed, false);
            let duet = gc_cfg(scale, seed, true);
            let t0 = Instant::now();
            drop(replay::f2fs_setup(&base)?);
            out.setup_s = secs(t0);
            let t1 = Instant::now();
            let rb = run_gc_experiment(&base)?;
            let rd = run_gc_experiment(&duet)?;
            out.probes_s.push(secs(t1));
            out.wall_s = out.probes_s[0];
            out.sim_s = (base.duration + duet.duration).as_secs_f64();
            digest_gc(&mut d, &rb);
            digest_gc(&mut d, &rd);
        }
        Workload::Table5Probes => {
            let first = t5_cfg(scale, cell, 0.5, seed);
            let t0 = Instant::now();
            drop(obtain(&first)?);
            profiles.get_or_profile(&first)?;
            out.setup_s = secs(t0);
            let mut probes = Vec::new();
            let mut sim_s = 0.0;
            let u = max_utilization(|util| {
                let cfg = t5_cfg(scale, cell, util, seed);
                let t = Instant::now();
                let r = run_completion_probe_cached(&cfg, &profiles, None);
                probes.push(secs(t));
                sim_s += cfg.duration.as_secs_f64();
                r
            })?;
            out.wall_s = secs(t0);
            out.probes_s = probes;
            out.sim_s = sim_s;
            out.max_util = Some(u);
            d.write_str(&t5_label(u));
        }
    }
    out.digest = d.hex();
    Ok(out)
}

/// Runs cell `cell` of `w` through the traced replay. Its digest must
/// equal [`run_public`]'s for the same cell.
pub fn run_traced(
    w: Workload,
    scale: u64,
    cell: usize,
    seed: u64,
    tr: &mut Tracer,
) -> SimResult<CellOut> {
    let seed = w.cell_seed(seed, cell);
    clear_store();
    let profiles = ProfileCache::new();
    let mut out = CellOut::default();
    let mut d = Digest::new();
    let t0 = Instant::now();
    let id = tr.begin(names::CELL);
    let r = traced_body(w, scale, cell, seed, &profiles, tr, &mut out, &mut d);
    tr.end(id);
    tr.end_cell();
    clear_store();
    r?;
    out.wall_s = secs(t0);
    out.digest = d.hex();
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn traced_body(
    w: Workload,
    scale: u64,
    cell: usize,
    seed: u64,
    profiles: &ProfileCache,
    tr: &mut Tracer,
    out: &mut CellOut,
    d: &mut Digest,
) -> SimResult<()> {
    let c = &mut out.counts;
    match w {
        Workload::WebserverScrubBackup => {
            let r = replay::btrfs_run(&web_cfg(scale, seed), profiles, false, tr, c)?;
            digest_experiment(d, &r);
        }
        Workload::FileserverF2fsGc => {
            let rb = replay::gc_run(&gc_cfg(scale, seed, false), tr, c)?;
            let rd = replay::gc_run(&gc_cfg(scale, seed, true), tr, c)?;
            digest_gc(d, &rb);
            digest_gc(d, &rd);
        }
        Workload::Table5Probes => {
            let u = max_utilization(|util| {
                let cfg = t5_cfg(scale, cell, util, seed);
                Ok(replay::btrfs_run(&cfg, profiles, true, tr, c)?.all_completed())
            })?;
            out.max_util = Some(u);
            d.write_str(&t5_label(u));
        }
    }
    Ok(())
}

/// Checks one Table 5 batch against the EXPERIMENTS.md claim "Duet ≥
/// baseline everywhere": for every row and task, the Duet cell's
/// maximum utilization is at least the baseline's ("never" lowest).
/// Returns the indices (within the batch) of the Duet cells that break
/// it, with a description.
pub fn t5_claim_violations(batch: &[Option<Option<f64>>]) -> Vec<(usize, String)> {
    let mut bad = Vec::new();
    for pair in (0..batch.len()).step_by(2) {
        let (Some(Some(base)), Some(Some(duet))) = (batch.get(pair), batch.get(pair + 1)) else {
            continue;
        };
        let rank = |u: Option<f64>| u.unwrap_or(-1.0);
        if rank(*duet) < rank(*base) {
            let (p, dist, task, _) = t5_cell(pair);
            bad.push((
                pair + 1,
                format!(
                    "Table 5 claim broken: {p:?}/{dist:?}/{task:?} Duet {} < baseline {}",
                    t5_label(*duet),
                    t5_label(*base)
                ),
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_seeds_are_distinct_and_table5_pairs_share_one() {
        let web: Vec<u64> = (0..40)
            .map(|c| Workload::WebserverScrubBackup.cell_seed(1, c))
            .collect();
        let mut sorted = web.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), web.len());
        let t5 = Workload::Table5Probes;
        for pair in (0..2 * T5_CELLS).step_by(2) {
            assert_eq!(t5.cell_seed(1, pair), t5.cell_seed(1, pair + 1));
            assert_ne!(t5.cell_seed(1, pair), t5.cell_seed(2, pair));
        }
    }

    #[test]
    fn table5_claim_flags_duet_below_baseline() {
        let mut batch = vec![Some(Some(0.5)); T5_CELLS];
        assert!(t5_claim_violations(&batch).is_empty());
        batch[3] = Some(None); // Duet "never" against baseline 50 %.
        let bad = t5_claim_violations(&batch);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, 3);
        batch[3] = None; // A failed cell is counted elsewhere, not here.
        assert!(t5_claim_violations(&batch).is_empty());
    }
}
