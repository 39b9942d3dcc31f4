//! The untraced end-to-end run: set up the warehouse in a durable data
//! directory behind an in-process `NetServer`, replay the operation
//! sequence from one `NetClient` in a closed loop, check answers against
//! the model, then reopen the directory and check what recovery kept.

use crate::model::{bag_eq, rows_of, Row};
use crate::workload::{Op, OpType, Plan, Workload};
use aggview::backend::BackendSpec;
use aggview::net::{NetClient, NetConfig, NetServer, ServeBackend};
use aggview::obs::{CounterId, MetricsRegistry, Stage};
use aggview::session::{SessionOptions, StatementOutcome};
use aggview::state::WritePolicy;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Set-ups per run (`setup_s` is their median). All but the last run in
/// child processes of their own (see [`setup_in_child`]).
pub const SETUPS: usize = 3;
/// Reopens per run (`recovery_s` is their median).
pub const REOPENS: usize = 7;

pub type Result<T> = std::result::Result<T, String>;

fn io<E: std::fmt::Display>(context: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// The stages the writer thread times itself, in the order it runs them.
pub const WRITER_STAGES: [Stage; 3] = [Stage::Apply, Stage::Wal, Stage::Publish];

/// The program's own counters, summed over every registry and store the
/// backend has (one for a shared store; front door plus shards when
/// sharded).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub exec_vectorized: u64,
    pub exec_row_fallback: u64,
    pub maintain_incremental: u64,
    pub maintain_recompute: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
    pub queue_wait_ns: u64,
    /// The writer thread's apply + WAL + publish time (`StoreStats`).
    pub apply_publish_ns: u64,
    /// The writer thread's own stage spans, summed: apply, WAL, publish.
    pub writer_stage_ns: [u64; 3],
}

impl Counters {
    fn read(backend: &ServeBackend) -> Counters {
        let mut regs: Vec<std::sync::Arc<MetricsRegistry>> = Vec::new();
        let mut c = Counters::default();
        match backend {
            ServeBackend::Shared(s) => {
                regs.extend(s.metrics().cloned());
                c.queue_wait_ns = s.stats().queue_wait_ns.load(Ordering::Relaxed);
                c.apply_publish_ns = s.stats().apply_publish_ns.load(Ordering::Relaxed);
            }
            ServeBackend::Sharded(s) => {
                regs.extend(s.metrics().cloned());
                for shard in s.shards() {
                    regs.extend(shard.metrics().cloned());
                    c.queue_wait_ns += shard.stats().queue_wait_ns.load(Ordering::Relaxed);
                    c.apply_publish_ns += shard.stats().apply_publish_ns.load(Ordering::Relaxed);
                }
            }
        }
        for m in &regs {
            c.plan_cache_hits += m.get(CounterId::PlanCacheHits);
            c.plan_cache_misses += m.get(CounterId::PlanCacheMisses);
            c.exec_vectorized += m.get(CounterId::ExecVectorized);
            c.exec_row_fallback += m.get(CounterId::ExecRowFallback);
            c.maintain_incremental += m.get(CounterId::MaintainIncremental);
            c.maintain_recompute += m.get(CounterId::MaintainRecompute);
            c.wal_appends += m.get(CounterId::WalAppends);
            c.wal_bytes += m.get(CounterId::WalBytes);
            c.checkpoints += m.get(CounterId::Checkpoints);
            for (slot, stage) in c.writer_stage_ns.iter_mut().zip(WRITER_STAGES) {
                *slot += m.stage_snapshot(stage).sum_ns;
            }
        }
        c
    }

    fn minus(self, b: Counters) -> Counters {
        Counters {
            plan_cache_hits: self.plan_cache_hits - b.plan_cache_hits,
            plan_cache_misses: self.plan_cache_misses - b.plan_cache_misses,
            exec_vectorized: self.exec_vectorized - b.exec_vectorized,
            exec_row_fallback: self.exec_row_fallback - b.exec_row_fallback,
            maintain_incremental: self.maintain_incremental - b.maintain_incremental,
            maintain_recompute: self.maintain_recompute - b.maintain_recompute,
            wal_appends: self.wal_appends - b.wal_appends,
            wal_bytes: self.wal_bytes - b.wal_bytes,
            checkpoints: self.checkpoints - b.checkpoints,
            queue_wait_ns: self.queue_wait_ns - b.queue_wait_ns,
            apply_publish_ns: self.apply_publish_ns - b.apply_publish_ns,
            writer_stage_ns: std::array::from_fn(|i| {
                self.writer_stage_ns[i] - b.writer_stage_ns[i]
            }),
        }
    }
}

/// What the end-to-end run measured and found.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Client-side latency per op type, ms, in sequence order.
    pub latency_ms: BTreeMap<OpType, Vec<f64>>,
    /// Latency per read template (for the make-up table), ms.
    pub template_ms: BTreeMap<(OpType, &'static str), Vec<f64>>,
    pub attempted: BTreeMap<OpType, u64>,
    pub failed: BTreeMap<OpType, u64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub recovery_s: Vec<f64>,
    pub replayed_batches: u64,
    pub peak_rss_mb: f64,
    pub store_mb: f64,
    /// Counter deltas over the timed phase.
    pub counters: Counters,
    /// Correctness findings; empty when every checked answer matched.
    pub wrong: Vec<String>,
}

impl Measured {
    pub fn ops(&self) -> u64 {
        self.attempted.values().sum()
    }
}

fn spec(workload: Workload, dir: &Path) -> BackendSpec {
    BackendSpec::new(WritePolicy::default())
        .shards(workload.shards())
        .data_dir(Some(dir.to_string_lossy().into_owned()))
}

fn request(
    client: &mut NetClient,
    sql: &str,
) -> Result<std::result::Result<StatementOutcome, String>> {
    client.request(sql).map_err(io("request"))
}

/// The affected-row count of a write ack (its leading number; the rest of
/// the message text is not part of the check).
fn ack_rows(outcome: &StatementOutcome) -> Option<usize> {
    match outcome {
        StatementOutcome::Ok(msg) => msg.split_whitespace().next()?.parse().ok(),
        _ => None,
    }
}

/// Total bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// User + system CPU seconds of this process (all threads).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    // Linux reports them in USER_HZ = 100 ticks per second.
    (ticks(11) + ticks(12)) / 100.0
}

/// High-water resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A served store: backend, server and one connected client.
struct Served {
    backend: ServeBackend,
    server: NetServer,
    client: NetClient,
}

impl Served {
    fn close(self) {
        drop(self.client);
        self.server.shutdown();
        // The last handle: joins the writer thread(s), which finish any
        // checkpoint in progress.
        drop(self.backend);
    }
}

/// One set-up in a child process of this program (`--setup-child`), which
/// loads a store of its own, times it and deletes it. The measured store
/// is set up in this process, but the other set-ups are not: the memory
/// they allocated and freed before the timed phase left the heap in a
/// state that changed with the seed, and `fresh_read` latency changed
/// with it.
pub fn setup_in_child(workload: &str, seed: u64) -> Result<f64> {
    let exe = std::env::current_exe().map_err(io("locate the benchmark"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--setup-child",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(io("start a set-up run"))?;
    if !out.status.success() {
        return Err(format!("set-up run failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("set-up run printed no time: {stdout}"))
}

/// What a `--setup-child` run does: one timed set-up in `dir`, then
/// shutdown. Returns the set-up seconds.
pub fn setup_once(workload: Workload, setup: &[String], dir: &Path) -> Result<f64> {
    let t = Instant::now();
    let s = set_up(workload, setup, dir)?;
    let secs = t.elapsed().as_secs_f64();
    s.close();
    Ok(secs)
}

/// Build the store in `dir` and load it through the front door.
fn set_up(workload: Workload, setup: &[String], dir: &Path) -> Result<Served> {
    let built = spec(workload, dir).build()?;
    let server = NetServer::start(built.backend.clone(), "127.0.0.1:0", NetConfig::default())
        .map_err(io("start server"))?;
    let mut client = NetClient::connect(server.addr()).map_err(io("connect"))?;
    for sql in setup {
        if let Err(e) = request(&mut client, sql)? {
            return Err(format!(
                "setup statement failed: {e}: {}",
                &sql[..sql.len().min(80)]
            ));
        }
    }
    Ok(Served {
        backend: built.backend,
        server,
        client,
    })
}

/// The end-to-end run. `setup_s` holds the set-up times of the child
/// runs; this run's own set-up is added to them.
pub fn run(workload: Workload, plan: &Plan, dir: &Path, setup_s: Vec<f64>) -> Result<Measured> {
    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    let data = dir.join("data");
    let t = Instant::now();
    let served = set_up(workload, &plan.setup, &data)?;
    m.setup_s.push(t.elapsed().as_secs_f64());
    let Served {
        backend,
        server,
        mut client,
    } = served;

    for sql in &plan.warmup {
        if let Err(e) = request(&mut client, sql)? {
            return Err(format!("warm-up read failed: {e}: {sql}"));
        }
    }

    let before = Counters::read(&backend);
    let mut answers: Vec<(usize, Vec<Row>)> = Vec::new();
    let mut probe: Option<String> = None;
    let mut probe_due = false;
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    for (i, op) in plan.ops.iter().enumerate() {
        let ty = op.ty();
        *m.attempted.entry(ty).or_default() += 1;
        let t = Instant::now();
        let outcome = request(&mut client, op.sql())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        m.latency_ms.entry(ty).or_default().push(ms);
        let mut failed = false;
        match (op, outcome) {
            (
                Op::Read {
                    template, expected, ..
                },
                Ok(StatementOutcome::Answer { relation, .. }),
            ) => {
                m.template_ms.entry((ty, template)).or_default().push(ms);
                if expected.is_some() {
                    answers.push((i, rows_of(&relation)));
                }
                if ty == OpType::FreshRead && probe_due {
                    // The rejected row must be absent once a later write
                    // has been acked and read after.
                    let sql = probe.take().expect("a probe is due");
                    probe_due = false;
                    match request(&mut client, &sql)? {
                        Ok(StatementOutcome::Answer { relation, .. })
                            if relation.rows.is_empty() => {}
                        _ => *m.failed.entry(OpType::RejectedWrite).or_default() += 1,
                    }
                }
            }
            (Op::Write { rows, sql }, Ok(ack)) => {
                if ack_rows(&ack) != Some(*rows) {
                    m.wrong
                        .push(format!("{sql}: ack {ack:?}, model says {rows} row(s)"));
                }
                probe_due = probe.is_some();
            }
            (Op::Rejected { probe: p, .. }, Err(_)) => probe = Some(p.clone()),
            (Op::Rejected { .. }, Ok(_)) => failed = true,
            (_, _) => failed = true,
        }
        if failed {
            *m.failed.entry(ty).or_default() += 1;
        }
    }
    m.wall_s = t0.elapsed().as_secs_f64();
    m.cpu_s = cpu_seconds() - cpu0;
    if probe.is_some() {
        // The sequence ended before the probe could run.
        *m.failed.entry(OpType::RejectedWrite).or_default() += 1;
    }
    m.counters = Counters::read(&backend).minus(before);

    for (i, got) in &answers {
        let Op::Read {
            sql,
            expected: Some(want),
            ..
        } = &plan.ops[*i]
        else {
            unreachable!("only checked reads keep answers");
        };
        if let Err(e) = bag_eq(want, got) {
            m.wrong.push(format!("op {i} `{sql}`: {e}"));
        }
    }

    Served {
        backend,
        server,
        client,
    }
    .close();
    m.store_mb = dir_bytes(&data) as f64 / (1024.0 * 1024.0);
    m.peak_rss_mb = peak_rss_mb();

    for _ in 0..REOPENS {
        let t = Instant::now();
        let built = spec(workload, &data).build()?;
        m.recovery_s.push(t.elapsed().as_secs_f64());
        let stores: Vec<&aggview::server::SharedStore> = match &built.backend {
            ServeBackend::Shared(s) => vec![s],
            ServeBackend::Sharded(s) => s.shards().iter().collect(),
        };
        m.replayed_batches = stores
            .iter()
            .filter_map(|s| s.recovery())
            .map(|r| r.replayed_batches)
            .sum();
        let mut session = built.backend.session(SessionOptions::default());
        for (sql, want) in &plan.after_reopen {
            let stmt = aggview::sql::parse_statement(sql).map_err(io("parse"))?;
            match session.execute(&stmt) {
                Ok(StatementOutcome::Answer { relation, .. }) => {
                    if let Err(e) = bag_eq(want, &rows_of(&relation)) {
                        m.wrong.push(format!("after reopen `{sql}`: {e}"));
                    }
                }
                other => m.wrong.push(format!("after reopen `{sql}`: {other:?}")),
            }
        }
    }
    Ok(m)
}

/// The scratch directory for one run, inside the working directory.
pub fn run_dir(workload: &str) -> PathBuf {
    PathBuf::from(".bench_data").join(format!("{workload}-{}", std::process::id()))
}
