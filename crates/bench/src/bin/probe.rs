//! Ad-hoc probe harness for calibration work: runs one task/workload
//! combination across utilizations and prints detailed counters.
//! Arguments: `probe <task> <scale> [overlap]` (task: scrub|backup|defrag).

use bench::scale_from_env;
use experiments::{paper_scaled, run_experiment, TaskKind};
use std::process::ExitCode;
use workloads::{DistKind, Personality};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let task = match args.get(1).map(|s| s.as_str()) {
        Some("backup") => TaskKind::Backup,
        Some("defrag") => TaskKind::Defrag,
        _ => TaskKind::Scrub,
    };
    let scale = match args.get(2).and_then(|s| s.parse().ok()) {
        Some(s) => s,
        None => match scale_from_env(128) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let overlap: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    println!("probe: {task:?} scale 1/{scale} overlap {overlap}");
    println!("util  mode      done    saved   task_rd   task_wr  achieved  wl_ops");
    for util in [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
        for duet in [false, true] {
            let mut cfg = paper_scaled(
                scale,
                Personality::WebServer,
                DistKind::Uniform,
                overlap,
                util,
                vec![task],
                duet,
            );
            if task == TaskKind::Defrag {
                cfg.fragmentation = Some((0.1, 5));
            }
            let r = match run_experiment(&cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: experiment failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let t = &r.tasks[0];
            println!(
                "{:>4.1}  {:<8} {:>6.1}% {:>6.1}% {:>9} {:>9} {:>8.2}  {:>6}  mbusy={:.2}s",
                util,
                if duet { "duet" } else { "baseline" },
                t.metrics.work_fraction() * 100.0,
                t.metrics.io_saved_fraction() * 100.0,
                t.metrics.blocks_read,
                t.metrics.blocks_written,
                r.achieved_util,
                r.workload_ops,
                r.maintenance_busy.as_secs_f64(),
            );
        }
    }
    ExitCode::SUCCESS
}
