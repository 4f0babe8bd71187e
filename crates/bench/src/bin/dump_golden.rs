//! Regenerates the committed golden-determinism fixtures.
//!
//! The fixtures pin every output the dmap-era container migration must
//! keep byte-identical: experiment golden CSVs, the rsync line, the
//! trace JSONL digest, the parallel sweep grids (bit patterns), and
//! the scripted cache/prioqueue/extent/Duet op-mix logs. Run from the
//! repo root:
//!
//! ```text
//! cargo run --release -p bench --bin dump_golden
//! ```
//!
//! Only do this deliberately (see DESIGN.md §12): rewriting the
//! fixtures re-baselines the golden contract, and the diff must be
//! reviewed as a behaviour change, not as noise.

use bench::sweeps::{completed_cells, saved_cells};
use experiments::golden::{
    cache_event_log, cache_scan_log, duet_oplog, extent_oplog, fnv128_hex, golden_csv,
    golden_rsync_line, prioqueue_pop_log,
};
use experiments::{
    paper_scaled, run_experiment, run_experiment_traced, run_rsync_experiment, DeviceKind, TaskKind,
};
use sim_core::trace::TraceHandle;
use std::process::ExitCode;
use workloads::{DistKind, Personality};

const SCALE: u64 = 512;

fn experiment_cfg() -> experiments::ExperimentConfig {
    let mut c = paper_scaled(
        SCALE,
        Personality::WebServer,
        DistKind::MsTrace(0),
        1.0,
        0.4,
        vec![TaskKind::Scrub, TaskKind::Backup],
        true,
    );
    c.seed = 7;
    c
}

fn baseline_cfg() -> experiments::ExperimentConfig {
    let mut c = paper_scaled(
        SCALE,
        Personality::FileServer,
        DistKind::Uniform,
        1.0,
        0.6,
        vec![TaskKind::Scrub],
        false,
    );
    c.seed = 21;
    c
}

fn traced_cfg() -> experiments::ExperimentConfig {
    let mut c = paper_scaled(
        SCALE,
        Personality::WebServer,
        DistKind::Uniform,
        1.0,
        0.4,
        vec![TaskKind::Scrub, TaskKind::Backup],
        true,
    );
    c.seed = 7;
    c
}

fn grid_lines(grid: &[Vec<f64>]) -> String {
    grid.iter()
        .map(|row| {
            row.iter()
                .map(|v| format!("{:016x}", v.to_bits()))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

fn main() -> ExitCode {
    // The sweep grids below fan out on `DUET_JOBS` workers.
    if let Err(e) = bench::pool::jobs_from_env("DUET_JOBS") {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let root_fixtures = std::path::Path::new("tests/fixtures");
    let bench_fixtures = std::path::Path::new("crates/bench/tests/fixtures");
    for d in [root_fixtures, bench_fixtures] {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("error: creating {}: {e}", d.display());
            return ExitCode::FAILURE;
        }
    }
    let write = |path: &std::path::Path, name: &str, contents: &str| {
        let p = path.join(name);
        std::fs::write(&p, contents).expect("write fixture");
        println!("wrote {}", p.display());
    };

    // 1. Golden experiment CSVs (the determinism.rs presets).
    let exp = run_experiment(&experiment_cfg()).expect("experiment preset");
    write(
        root_fixtures,
        "golden_experiment_seed7.csv",
        &golden_csv(&exp),
    );
    let base = run_experiment(&baseline_cfg()).expect("baseline preset");
    write(
        root_fixtures,
        "golden_baseline_seed21.csv",
        &golden_csv(&base),
    );

    // 2. Rsync golden line.
    let rsync_cfg = paper_scaled(
        SCALE,
        Personality::WebServer,
        DistKind::Uniform,
        1.0,
        1.0,
        vec![],
        true,
    );
    let rs = run_rsync_experiment(&rsync_cfg, true).expect("rsync preset");
    write(
        root_fixtures,
        "golden_rsync.txt",
        &(golden_rsync_line(&rs) + "\n"),
    );

    // 3. Trace JSONL digest + counters (only meaningful when the trace
    // feature is compiled in; the fixture records which).
    let mut trace_out = String::new();
    if TraceHandle::compiled_in() {
        let t = TraceHandle::with_default_capacity();
        let r = run_experiment_traced(&traced_cfg(), Some(&t)).expect("traced preset");
        let jsonl = t.dump_jsonl();
        trace_out.push_str(&format!(
            "golden_csv_digest {}\n",
            fnv128_hex(golden_csv(&r).as_bytes())
        ));
        trace_out.push_str(&format!("jsonl_lines {}\n", jsonl.lines().count()));
        trace_out.push_str(&format!("jsonl_digest {}\n", fnv128_hex(jsonl.as_bytes())));
        trace_out.push_str(&format!(
            "counters_digest {}\n",
            fnv128_hex(format!("{:?}", t.counters()).as_bytes())
        ));
    } else {
        trace_out.push_str("trace_compiled_out\n");
    }
    write(root_fixtures, "golden_trace_seed7.txt", &trace_out);

    // 4. Parallel sweep grids (the parallel_determinism.rs scenarios),
    // dumped at jobs=1 — the tests assert jobs=1 and jobs=4 both match.
    let saved = saved_cells(
        SCALE,
        DeviceKind::Hdd,
        Personality::WebServer,
        DistKind::Uniform,
        &[0.2, 0.6],
        &[0.5, 1.0],
        &[TaskKind::Scrub],
        None,
        1,
    )
    .expect("saved sweep");
    write(bench_fixtures, "golden_saved_grid.txt", &grid_lines(&saved));
    let completed = completed_cells(
        SCALE,
        Personality::WebServer,
        &[0.0, 0.3, 0.6],
        &[TaskKind::Scrub, TaskKind::Backup],
        None,
        1,
    )
    .expect("completed sweep");
    write(
        bench_fixtures,
        "golden_completed_grid.txt",
        &grid_lines(&completed),
    );

    // 5. Structure-level op-mix logs: the exact event/pop sequences the
    // hot-path containers produce under a scripted deterministic mix.
    write(
        root_fixtures,
        "golden_cache_events.txt",
        &cache_event_log(0xCAFE, 4000),
    );
    write(
        root_fixtures,
        "golden_cache_scan.txt",
        &cache_scan_log(0x5CA7, 1200),
    );
    write(
        root_fixtures,
        "golden_prioqueue_pops.txt",
        &prioqueue_pop_log(0x9A11, 4000),
    );
    write(
        root_fixtures,
        "golden_extent_oplog.txt",
        &extent_oplog(0xE47E, 4000),
    );
    write(
        root_fixtures,
        "golden_duet_oplog.txt",
        &duet_oplog(0xD0E7, 4000),
    );

    println!("all fixtures written");
    ExitCode::SUCCESS
}
