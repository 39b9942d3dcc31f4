//! `aggview-perfbench`: the end-to-end and per-layer benchmark.
//!
//! ```text
//! aggview-perfbench --workload ingest|sharded_mixed
//!                   --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`).

mod e2e;
mod model;
mod rng;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use workload::{OpType, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: one timed set-up only (see `e2e::setup_in_child`).
    setup_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30;
    let mut trace = false;
    let mut setup_child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--setup-child" => setup_child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        setup_child,
    })
}

/// One reported metric: value and unit, in output order.
pub type Metrics = Vec<(String, f64, &'static str)>;

fn pct(samples: &[f64], p: f64, name: &str) -> Result<f64, String> {
    stats::percentile(samples, p)
        .ok_or_else(|| format!("{name}: {} sample(s) cannot support it", samples.len()))
}

fn end_to_end(m: &e2e::Measured) -> Result<Metrics, String> {
    let lat = |t: OpType| m.latency_ms.get(&t).map_or(&[][..], |v| &v[..]);
    let ops = m.ops() as f64;
    Ok(vec![
        ("setup_s".into(), stats::median(&m.setup_s), "s"),
        ("ops_per_s".into(), ops / m.wall_s, "ops/s"),
        ("cpu_ms_per_op".into(), m.cpu_s * 1e3 / ops, "ms"),
        (
            "rollup_p50_ms".into(),
            pct(lat(OpType::Rollup), 0.50, "rollup p50")?,
            "ms",
        ),
        (
            "rollup_p99_ms".into(),
            pct(lat(OpType::Rollup), 0.99, "rollup p99")?,
            "ms",
        ),
        (
            "adhoc_p50_ms".into(),
            pct(lat(OpType::Adhoc), 0.50, "adhoc p50")?,
            "ms",
        ),
        (
            "adhoc_p90_ms".into(),
            pct(lat(OpType::Adhoc), 0.90, "adhoc p90")?,
            "ms",
        ),
        (
            "fresh_read_p50_ms".into(),
            pct(lat(OpType::FreshRead), 0.50, "fresh p50")?,
            "ms",
        ),
        (
            "fresh_read_p90_ms".into(),
            pct(lat(OpType::FreshRead), 0.90, "fresh p90")?,
            "ms",
        ),
        (
            "write_p50_ms".into(),
            pct(lat(OpType::Write), 0.50, "write p50")?,
            "ms",
        ),
        (
            "write_p90_ms".into(),
            pct(lat(OpType::Write), 0.90, "write p90")?,
            "ms",
        ),
        ("recovery_s".into(), stats::median(&m.recovery_s), "s"),
        ("peak_rss_mb".into(), m.peak_rss_mb, "MB"),
        ("store_mb".into(), m.store_mb, "MB"),
    ])
}

fn report_ops(m: &e2e::Measured) {
    println!("op type          attempted  failed  p50_ms    max_ms");
    for t in OpType::ALL {
        let Some(&n) = m.attempted.get(&t) else {
            continue;
        };
        let lat = m.latency_ms.get(&t).map_or(&[][..], |v| &v[..]);
        let max = lat.iter().copied().fold(0.0, f64::max);
        println!(
            "{:<16} {:>9} {:>7}  {:<9.4} {:.4}",
            t.name(),
            n,
            m.failed.get(&t).copied().unwrap_or(0),
            stats::median(lat),
            max
        );
    }
    let total_reads: usize = m.template_ms.values().map(|v| v.len()).sum();
    println!("template                  share   median_ms  p90_ms");
    for ((t, name), v) in &m.template_ms {
        println!(
            "{:<25} {:>6.2}% {:<10.4} {:.4}",
            format!("{}/{}", t.name(), name),
            100.0 * v.len() as f64 / total_reads as f64,
            stats::median(v),
            stats::percentile(v, 0.9).unwrap_or(f64::NAN)
        );
    }
    let c = &m.counters;
    println!(
        "plan cache hit ratio {:.4}; checkpoints {}; wal appends {}; replayed batches {}; \
         setups {:?} s; reopens {:?} s",
        c.plan_cache_hits as f64 / (c.plan_cache_hits + c.plan_cache_misses).max(1) as f64,
        c.checkpoints,
        c.wal_appends,
        m.replayed_batches,
        m.setup_s,
        m.recovery_s
    );
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let workload =
        Workload::parse(&args.workload).ok_or(format!("unknown workload {}", args.workload))?;
    let dir = e2e::run_dir(&args.workload);
    if args.setup_child {
        let setup = workload::setup_plan(workload, args.seed);
        let secs = e2e::setup_once(workload, &setup, &dir.join("data"));
        clean_up(&dir);
        return secs.map(|s| format!("setup_s {s}"));
    }
    let plan = workload::plan(workload, args.seed, args.seconds);
    let setup_s = (1..e2e::SETUPS)
        .map(|_| e2e::setup_in_child(&args.workload, args.seed))
        .collect::<Result<Vec<f64>, String>>()?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = (|| {
        let m = e2e::run(workload, &plan, &dir, setup_s)?;
        println!(
            "workload {} seed {} rounds {} ops {} ({:.2} s timed)",
            args.workload,
            args.seed,
            plan.rounds,
            m.ops(),
            m.wall_s
        );
        report_ops(&m);
        let metrics = end_to_end(&m)?;
        for (name, value, unit) in &metrics {
            println!("{name:<20} {value:.4} {unit}");
        }
        for w in m.wrong.iter().take(10) {
            println!("WRONG: {w}");
        }
        let metrics = if args.trace {
            let layers = trace::run(workload, &plan, &dir, &m)?;
            for (name, value, unit) in &layers {
                println!("{name:<28} {value:.4} {unit}");
            }
            layers
        } else {
            metrics
        };
        let failed: u64 = m.failed.values().sum();
        Ok(json(m.wrong.is_empty(), m.ops(), failed, &metrics))
    })();
    clean_up(&dir);
    result
}

/// Remove a run's directory, and `.bench_data` once no run uses it.
fn clean_up(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Ok(mut it) = std::fs::read_dir(".bench_data") {
        if it.next().is_none() {
            let _ = std::fs::remove_dir(".bench_data");
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
