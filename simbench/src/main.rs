//! `simbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload's cells through the public
//! `experiments` API, untraced, for at least `--seconds` seconds, checks
//! the simulated outputs, and prints the end-to-end metrics. With
//! `--trace 1` it runs a fixed set of cells twice — through the public
//! API and through the traced replay — checks that both give the same
//! results, repeats that at half size, and prints the per-layer
//! metrics. The last line of standard output is always one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`). See README.md.

mod cells;
mod refkernel;
mod replay;
mod spans;

use cells::{CellOut, Workload};
use replay::Counts;
use spans::{names, Tracer};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Most workers a run uses; capped further at the host's parallelism.
const MAX_WORKERS: usize = 2;
/// The tail quantile reported as `probe_s_p75`.
const TAIL_Q: f64 = 0.75;
/// Median reference-slice time on the calibration host (2-vCPU Intel
/// Xeon VM). End-to-end host times are reported at this host speed:
/// scaled by `REF_NOMINAL_S` over the run's median slice time.
const REF_NOMINAL_S: f64 = 0.024;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("argument `{flag}` needs a value"))?;
        let slot_taken = match flag.as_str() {
            "--workload" => workload
                .replace(Workload::parse(value).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("--workload `{value}` is not one of: {}", known.join(", "))
                })?)
                .is_some(),
            "--seed" => seed
                .replace(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed `{value}` is not an unsigned integer"))?,
                )
                .is_some(),
            "--seconds" => seconds
                .replace(match value.parse::<u64>() {
                    Ok(s @ 1..=600) => s,
                    _ => return Err(format!("--seconds `{value}` is not an integer in 1..=600")),
                })
                .is_some(),
            "--trace" => trace
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}` is not 0 or 1")),
                })
                .is_some(),
            _ => return Err(format!("unknown argument `{flag}`")),
        };
        if slot_taken {
            return Err(format!("argument `{flag}` given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// `DUET_SNAPSHOT`, the only environment value the stack reads on this
/// path: unset, `0` (warm-start snapshots off) or `1`.
fn snapshot_env() -> Result<String, String> {
    match std::env::var("DUET_SNAPSHOT") {
        Err(std::env::VarError::NotPresent) => Ok("unset".into()),
        Ok(v) if v == "0" || v == "1" => Ok(v),
        Ok(v) => Err(format!("DUET_SNAPSHOT `{v}` is not 0 or 1")),
        Err(std::env::VarError::NotUnicode(v)) => Err(format!(
            "DUET_SNAPSHOT `{}` is not 0 or 1",
            v.to_string_lossy()
        )),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Harrell–Davis estimate of quantile `q` (0–1): the average of all
/// order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass over
/// each one's slot. A probe or cell mix is multimodal (rows, tasks and
/// seeds cost differently), and the plain sample median jumps between
/// modes from run to run; this estimate moves smoothly.
fn hd_quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return s.first().copied().unwrap_or(f64::NAN);
    }
    let a = (n + 1) as f64 * q;
    let b = (n + 1) as f64 * (1.0 - q);
    // Beta density up to a constant, scaled to 1 at its mode so that
    // large `a` and `b` do not underflow; the weights are normalized
    // below, so the constant never matters.
    let mode = (a - 1.0) / (a + b - 2.0);
    let ln_at = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    let ln_mode = ln_at(mode);
    let density = |x: f64| {
        if x <= 0.0 || x >= 1.0 {
            0.0
        } else {
            (ln_at(x) - ln_mode).exp()
        }
    };
    const STEPS: usize = 16; // Simpson panels per order statistic.
    let (mut est, mut total) = (0.0, 0.0);
    for (i, &x) in s.iter().enumerate() {
        let lo = i as f64 / n as f64;
        let h = 1.0 / (n * STEPS) as f64;
        let mut w = 0.0;
        for k in 0..STEPS {
            let x0 = lo + k as f64 * h;
            w += h / 6.0 * (density(x0) + 4.0 * density(x0 + h / 2.0) + density(x0 + h));
        }
        est += w * x;
        total += w;
    }
    est / total
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Hands out cell indices to the workers.
struct Queue {
    next: Mutex<usize>,
    end: End,
}

enum End {
    /// Hand out `0..n`.
    Fixed(usize),
    /// Stop at the first batch boundary reached once `len` has passed
    /// and at least `min_cells` cells were started, so a run always
    /// holds whole batches.
    Timed {
        start: Instant,
        len: Duration,
        batch: usize,
        min_cells: usize,
    },
}

impl Queue {
    fn new(end: End) -> Queue {
        Queue {
            next: Mutex::new(0),
            end,
        }
    }

    fn take(&self) -> Option<usize> {
        let mut next = self
            .next
            .lock()
            .expect("queue lock poisoned by a panicking worker");
        let stop = match self.end {
            End::Fixed(n) => *next >= n,
            End::Timed {
                start,
                len,
                batch,
                min_cells,
            } => next.is_multiple_of(batch) && *next >= min_cells && start.elapsed() >= len,
        };
        if stop {
            return None;
        }
        *next += 1;
        Some(*next - 1)
    }
}

type CellResult = Result<CellOut, String>;

/// Runs `job` on every index the queue hands out, on `workers` threads,
/// each with its own [`Tracer`]. Returns the results in index order and
/// the merged tracer.
fn run_cells(
    workers: usize,
    queue: &Queue,
    job: &(dyn Fn(usize, &mut Tracer) -> CellResult + Sync),
) -> (Vec<CellResult>, Tracer) {
    let per_worker: Vec<(Vec<(usize, CellResult)>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut tr = Tracer::new();
                    let mut done = Vec::new();
                    while let Some(i) = queue.take() {
                        let r = job(i, &mut tr);
                        done.push((i, r));
                    }
                    (done, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let mut all = Tracer::new();
    let mut results: Vec<(usize, CellResult)> = Vec::new();
    for (done, tr) in per_worker {
        all.merge(&tr);
        results.extend(done);
    }
    results.sort_by_key(|(i, _)| *i);
    (results.into_iter().map(|(_, r)| r).collect(), all)
}

/// Output of a run: the metrics by name with their units, and the
/// failure accounting.
#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// Checks a timed run's cells: every Table 5 batch must keep the Duet
/// ≥ baseline claim, and a repetition of cell 0 (`again`) must
/// reproduce its digest. Failed or mismatching cells are counted;
/// checking continues past them.
fn check_timed(w: Workload, results: &[CellResult], again: &CellResult, rep: &mut Report) {
    for (i, r) in results.iter().enumerate() {
        rep.attempted += 1;
        if let Err(e) = r {
            rep.failed += 1;
            rep.problems
                .push(format!("cell {i}: simulation error: {e}"));
        }
    }
    rep.attempted += 1;
    match (&results[0], again) {
        (Ok(first), Ok(again)) if first.digest != again.digest => {
            rep.failed += 1;
            rep.problems.push(format!(
                "cell 0 repeated: digest {} differs from the first run's {}",
                again.digest, first.digest
            ));
        }
        (_, Err(e)) => {
            rep.failed += 1;
            rep.problems
                .push(format!("cell 0 repeated: simulation error: {e}"));
        }
        _ => {}
    }
    if w == Workload::Table5Probes {
        for (b, batch) in results.chunks(w.batch_len()).enumerate() {
            let labels: Vec<_> = batch
                .iter()
                .map(|r| r.as_ref().ok().and_then(|c| c.max_util))
                .collect();
            for (_, msg) in cells::t5_claim_violations(&labels) {
                rep.failed += 1;
                rep.problems.push(format!("batch {b}: {msg}"));
            }
        }
    }
}

fn timed_run(args: &Args, workers: usize) -> Result<Report, String> {
    let w = args.workload;
    let (scale, seed) = (w.scale(), args.seed);
    let queue = Queue::new(End::Timed {
        start: Instant::now(),
        len: Duration::from_secs(args.seconds),
        batch: w.batch_len(),
        min_cells: w.min_cells(),
    });
    let table = refkernel::RefTable::new();
    let slices = Mutex::new(Vec::new());
    let job = |i: usize, _: &mut Tracer| {
        let slice = table.slice(i.wrapping_mul(7919));
        slices
            .lock()
            .expect("slice log poisoned by a panicking worker")
            .push(slice);
        cells::run_public(w, scale, i, seed).map_err(|e| e.to_string())
    };
    let (results, _) = run_cells(workers, &queue, &job);
    // Before the repetition below, which is a check and not part of the
    // workload.
    let peak_rss = peak_rss_mb()?;
    // Not timed: a repetition, to check that cell 0 repeats exactly.
    let again = cells::run_public(w, scale, 0, seed).map_err(|e| e.to_string());
    let slices = slices
        .into_inner()
        .expect("slice log poisoned by a panicking worker");
    let mut rep = Report::default();
    check_timed(w, &results, &again, &mut rep);
    let ok: Vec<&CellOut> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    if ok.is_empty() {
        return Err("every cell failed; no metrics to report".into());
    }
    let setup: Vec<f64> = ok.iter().map(|c| c.setup_s).collect();
    // A batch's summed cell time: what a user waits for the whole batch
    // on one worker.
    let batch_wall: Vec<f64> = results
        .chunks(w.batch_len())
        .filter(|b| b.iter().all(|r| r.is_ok()))
        .map(|b| {
            b.iter()
                .filter_map(|r| r.as_ref().ok())
                .map(|c| c.wall_s)
                .sum()
        })
        .collect();
    let probes: Vec<f64> = ok.iter().flat_map(|c| c.probes_s.iter().copied()).collect();
    let sim_s: f64 = ok.iter().map(|c| c.sim_s).sum();
    let host_s: f64 = probes.iter().sum();
    println!(
        "cells: {} in {} batch(es) of {}, probes: {}",
        results.len(),
        batch_wall.len(),
        w.batch_len(),
        probes.len()
    );
    let raw = [
        ("setup_s", hd_quantile(&setup, 0.5)),
        ("wall_s", hd_quantile(&batch_wall, 0.5)),
        ("sim_s_per_s", ratio(sim_s, host_s)),
        ("probe_s_p50", hd_quantile(&probes, 0.5)),
        ("probe_s_p75", hd_quantile(&probes, TAIL_Q)),
    ];
    let ref_s = hd_quantile(&slices, 0.5);
    let speed = ref_s / REF_NOMINAL_S;
    println!(
        "host: reference slice {:.3} ms (nominal {:.3} ms), times below scaled by {:.4}",
        ref_s * 1e3,
        REF_NOMINAL_S * 1e3,
        1.0 / speed
    );
    for (name, v) in raw {
        let unit = if name == "sim_s_per_s" { "s/s" } else { "s" };
        println!("raw {name} = {v} {unit}");
        let scaled = if name == "sim_s_per_s" {
            v * speed
        } else {
            v / speed
        };
        rep.metric(name, scaled, unit);
    }
    rep.metric("peak_rss_mb", peak_rss, "MB");
    Ok(rep)
}

/// The traced run's fixed cells, public then traced, at `scale`. Returns the traced
/// aggregates, the summed counts, and the two wall times.
fn traced_pass(
    w: Workload,
    scale: u64,
    seed: u64,
    workers: usize,
    rep: &mut Report,
) -> (Tracer, Counts, f64, f64) {
    // The first cells of a timed run, a fixed amount of work whatever
    // the worker count.
    let fixed = || Queue::new(End::Fixed(w.trace_cells()));
    let t = Instant::now();
    let (public, _) = run_cells(workers, &fixed(), &|i, _| {
        cells::run_public(w, scale, i, seed).map_err(|e| e.to_string())
    });
    let untraced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (traced, tr) = run_cells(workers, &fixed(), &|i, tr| {
        cells::run_traced(w, scale, i, seed, tr).map_err(|e| e.to_string())
    });
    let traced_s = t.elapsed().as_secs_f64();
    let mut counts = Counts::default();
    for (i, (p, d)) in public.iter().zip(&traced).enumerate() {
        rep.attempted += 2;
        match (p, d) {
            (Ok(p), Ok(d)) => {
                counts.add(&d.counts);
                if p.digest != d.digest {
                    rep.failed += 1;
                    rep.problems.push(format!(
                        "scale 1/{scale} cell {i}: traced replay digest {} != public runner {}",
                        d.digest, p.digest
                    ));
                }
            }
            (p, d) => {
                for e in [p.as_ref().err(), d.as_ref().err()].into_iter().flatten() {
                    rep.failed += 1;
                    rep.problems
                        .push(format!("scale 1/{scale} cell {i}: simulation error: {e}"));
                }
            }
        }
    }
    if w == Workload::Table5Probes {
        let labels: Vec<_> = public
            .iter()
            .map(|r| r.as_ref().ok().and_then(|c| c.max_util))
            .collect();
        for (_, msg) in cells::t5_claim_violations(&labels) {
            rep.failed += 1;
            rep.problems.push(format!("scale 1/{scale}: {msg}"));
        }
    }
    (tr, counts, untraced_s, traced_s)
}

fn us_per_call(tr: &Tracer, name: &str) -> f64 {
    let a = tr.get(name);
    ratio(a.total_ns as f64 / 1e3, a.calls as f64)
}

/// The per-call host costs reported at both sizes.
fn unit_costs(tr: &Tracer, c: &Counts) -> Vec<(String, f64, &'static str)> {
    let mut v = vec![
        (
            "experiments.obtain.ms_per_call".to_string(),
            us_per_call(tr, names::OBTAIN) / 1e3,
            "ms",
        ),
        (
            "workloads.run_op.self_us_per_call".to_string(),
            ratio(
                tr.get(names::RUN_OP).self_ns as f64 / 1e3,
                tr.get(names::RUN_OP).calls as f64,
            ),
            "us",
        ),
    ];
    for fs in [&replay::BTRFS, &replay::F2FS] {
        for name in [fs.read, fs.write, fs.writeback] {
            v.push((format!("{name}.us_per_call"), us_per_call(tr, name), "us"));
        }
    }
    v.push((
        "duet.pump.us_per_call".into(),
        us_per_call(tr, names::PUMP),
        "us",
    ));
    v.push((
        "duet.pump.ns_per_event".into(),
        ratio(tr.get(names::PUMP).total_ns as f64, c.duet_events as f64),
        "ns",
    ));
    v.push((
        "duet-tasks.step.us_per_call".into(),
        us_per_call(tr, names::TASK_STEP),
        "us",
    ));
    v.push((
        "duet-tasks.poll.us_per_call".into(),
        us_per_call(tr, names::TASK_POLL),
        "us",
    ));
    v
}

fn write_spans(w: Workload, tables: &[(&str, &Tracer)]) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}.tsv", w.name()));
    let mut s = String::from("size\tparent\tspan\tcalls\ttotal_ns\tself_ns\n");
    for (size, tr) in tables {
        for ((parent, name), a) in &tr.edges {
            s.push_str(&format!(
                "{size}\t{parent}\t{name}\t{}\t{}\t{}\n",
                a.calls, a.total_ns, a.self_ns
            ));
        }
    }
    std::fs::write(&path, s).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn traced_run(args: &Args, workers: usize) -> Result<Report, String> {
    let w = args.workload;
    let mut rep = Report::default();
    let (tr, c, untraced_s, traced_s) = traced_pass(w, w.scale(), args.seed, workers, &mut rep);
    // Half size: the growth of host cost per event with run size,
    // pinned to a layer.
    let (half_tr, half_c, _, _) = traced_pass(w, w.scale() * 2, args.seed, workers, &mut rep);
    println!(
        "spans written to {}",
        write_spans(w, &[("full", &tr), ("half", &half_tr)])?
    );

    let profile = tr.get(names::PROFILE);
    let lp = tr.get(names::LOOP);
    let cache_lookups = (c.cache_hits + c.cache_misses) as f64;
    let step = tr.get(names::TASK_STEP);
    let poll = tr.get(names::TASK_POLL);
    let pump = tr.get(names::PUMP);
    let mut m: Vec<(String, f64, &'static str)> = vec![
        (
            "experiments.obtain.calls".into(),
            c.obtain_calls as f64,
            "count",
        ),
        (
            "experiments.obtain.fork_frac".into(),
            ratio(c.obtain_forks as f64, c.obtain_calls as f64),
            "ratio",
        ),
        (
            "experiments.profile.calls".into(),
            c.profile_calls as f64,
            "count",
        ),
        (
            "experiments.profile.memo_hit_frac".into(),
            ratio(c.profile_hits as f64, c.profile_calls as f64),
            "ratio",
        ),
        (
            "experiments.profile.s".into(),
            profile.total_ns as f64 / 1e9,
            "s",
        ),
        (
            "experiments.loop.self_s".into(),
            lp.self_ns as f64 / 1e9,
            "s",
        ),
        ("experiments.sim_s".into(), c.sim_ns as f64 / 1e9, "s"),
        (
            "workloads.run_op.calls".into(),
            tr.get(names::RUN_OP).calls as f64,
            "count",
        ),
        ("workloads.bytes_read".into(), c.bytes_read as f64, "bytes"),
        (
            "workloads.bytes_written".into(),
            c.bytes_written as f64,
            "bytes",
        ),
    ];
    for fs in [&replay::BTRFS, &replay::F2FS] {
        for name in [fs.read, fs.write, fs.writeback] {
            m.push((format!("{name}.calls"), tr.get(name).calls as f64, "count"));
        }
    }
    m.extend([
        (
            "sim-cache.hit_frac".to_string(),
            ratio(c.cache_hits as f64, cache_lookups),
            "ratio",
        ),
        ("sim-cache.misses".into(), c.cache_misses as f64, "count"),
        (
            "sim-cache.evictions".into(),
            c.cache_evictions as f64,
            "count",
        ),
        (
            "sim-cache.writebacks".into(),
            c.cache_writebacks as f64,
            "count",
        ),
        (
            "sim-disk.normal.ops".into(),
            c.disk_normal_ops as f64,
            "count",
        ),
        ("sim-disk.idle.ops".into(), c.disk_idle_ops as f64, "count"),
        ("sim-disk.blocks".into(), c.disk_blocks as f64, "count"),
        (
            "sim-disk.idle_busy_s".into(),
            c.disk_idle_busy_ns as f64 / 1e9,
            "s",
        ),
        ("duet.pump.calls".into(), pump.calls as f64, "count"),
        ("duet.events".into(), c.duet_events as f64, "count"),
        (
            "duet.items_fetched".into(),
            c.duet_items_fetched as f64,
            "count",
        ),
        (
            "duet.peak_descriptors".into(),
            c.duet_peak_descriptors as f64,
            "count",
        ),
        ("duet-tasks.step.calls".into(), step.calls as f64, "count"),
        ("duet-tasks.poll.calls".into(), poll.calls as f64, "count"),
        (
            "duet-tasks.io_saved_frac".into(),
            ratio(c.saved_units as f64, c.total_units as f64),
            "ratio",
        ),
        ("trace.overhead_s".into(), traced_s - untraced_s, "s"),
        (
            "trace.overhead_frac".into(),
            ratio(traced_s - untraced_s, untraced_s),
            "ratio",
        ),
        ("trace.spans".into(), tr.recorded as f64, "count"),
    ]);
    m.extend(unit_costs(&tr, &c));
    m.extend(
        unit_costs(&half_tr, &half_c)
            .into_iter()
            .map(|(n, v, u)| (format!("half.{n}"), v, u)),
    );
    m.push((
        "half.duet.events".into(),
        half_c.duet_events as f64,
        "count",
    ));
    m.push((
        "half.experiments.sim_s".into(),
        half_c.sim_ns as f64 / 1e9,
        "s",
    ));
    rep.metrics = m;
    Ok(rep)
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    let snapshot = snapshot_env()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = MAX_WORKERS.min(nproc);
    let w = args.workload;
    println!(
        "env: nproc={nproc} cpu={} profile=release trace_feature={} DUET_SNAPSHOT={snapshot} \
         workers={workers} seed={} workload={} scale=1/{} seconds={} trace={}",
        json_str(&cpu_model()),
        if cfg!(feature = "trace") { "on" } else { "off" },
        args.seed,
        w.name(),
        w.scale(),
        args.seconds,
        u8::from(args.trace),
    );
    let started = Instant::now();
    let rep = if args.trace {
        traced_run(&args, workers)?
    } else {
        timed_run(&args, workers)?
    };
    for p in &rep.problems {
        println!("FAILED {p}");
    }
    for (name, value, unit) in &rep.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "metric failed_frac = {} ratio ({} of {} cells)",
        ratio(rep.failed as f64, rep.attempted as f64),
        rep.failed,
        rep.attempted
    );
    println!("run took {:.1} s", started.elapsed().as_secs_f64());
    let metrics: BTreeMap<&str, String> = rep
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            (
                n.as_str(),
                format!("{{\"value\": {v:?}, \"unit\": {}}}", json_str(u)),
            )
        })
        .collect();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v)| format!("{}: {v}", json_str(n)))
        .collect();
    let correct = rep.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted,
        rep.failed,
        body.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_are_strict() {
        let ok = args("--workload table5_probes --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::Table5Probes, 7, 20, true)
        );
        for (bad, names) in [
            ("--workload nope --seed 1 --seconds 5 --trace 0", "nope"),
            (
                "--workload table5_probes --seed -1 --seconds 5 --trace 0",
                "-1",
            ),
            (
                "--workload table5_probes --seed 1 --seconds 0 --trace 0",
                "--seconds `0`",
            ),
            (
                "--workload table5_probes --seed 1 --seconds 5x --trace 0",
                "5x",
            ),
            (
                "--workload table5_probes --seed 1 --seconds 5 --trace yes",
                "yes",
            ),
            ("--workload table5_probes --seed 1 --seconds 5", "--trace"),
            (
                "--workload table5_probes --seed 1 --seed 2 --seconds 5 --trace 0",
                "twice",
            ),
            (
                "--workload table5_probes --seed 1 --seconds 5 --trace 0 --jobs 4",
                "--jobs",
            ),
            ("--workload table5_probes --seed", "needs a value"),
        ] {
            let err = args(bad).err().expect(bad);
            assert!(err.contains(names), "{bad}: {err}");
        }
    }

    #[test]
    fn harrell_davis_quantiles() {
        assert_eq!(hd_quantile(&[3.0], 0.5), 3.0);
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((hd_quantile(&v, 0.5) - 5.0).abs() < 1e-9, "symmetric data");
        let (p50, p75) = (hd_quantile(&v, 0.5), hd_quantile(&v, 0.75));
        assert!(p50 < p75 && p75 < 9.0);
        // A bimodal sample: the estimate lies between the modes instead
        // of snapping to one of them.
        let mut two = vec![1.0; 10];
        two.extend(vec![2.0; 10]);
        let m = hd_quantile(&two, 0.5);
        assert!(m > 1.2 && m < 1.8, "{m}");
    }

    #[test]
    fn traced_replay_reproduces_public_runner() {
        for w in Workload::ALL {
            let cells = if w == Workload::Table5Probes {
                vec![0, 3, 5]
            } else {
                vec![0]
            };
            for cell in cells {
                let public = cells::run_public(w, 1024, cell, 9).expect("public runner");
                let mut tr = Tracer::new();
                let traced = cells::run_traced(w, 1024, cell, 9, &mut tr).expect("traced replay");
                assert_eq!(public.digest, traced.digest, "{} cell {cell}", w.name());
                assert!(tr.get(names::LOOP).calls > 0);
            }
        }
    }
}
