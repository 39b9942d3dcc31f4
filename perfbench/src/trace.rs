//! The traced run: the same operation sequence sent through each layer's
//! public entry points, in the order the program calls them, each call
//! timed from here. Nothing inside the program is instrumented; counts and
//! ratios come from the program's own counters of the end-to-end run.
//!
//! The top-level layers of an operation type add up, with its
//! `unattributed.*` metric, to the end-to-end median. Child layers
//! (`state.table_copy_us` and `maintenance.*` inside `state.apply_us`;
//! `plan_cache`, `rewrite` and `exec` inside the sharded selects) are
//! either timed on the side, on copies, or nested in a timed parent, so a
//! parent's time stays the program's own.

use crate::e2e::{Measured, REOPENS};
use crate::stats::median;
use crate::workload::{Op, OpType, Plan, Workload};
use crate::Metrics;
use aggview::durability::{open_dir, DurabilityOptions, DurabilityState};
use aggview::engine::maintenance::{maintain_view_ctx, DeltaKind};
use aggview::engine::shard::{merge_concat, shard_column, shard_of_value, GatherPlan};
use aggview::engine::value::lit_value;
use aggview::engine::{execute_ctx, ColumnarRelation, Database, ExecContext, PhysicalPlan};
use aggview::engine::{Relation, Value};
use aggview::net::protocol::{self, Command};
use aggview::obs::{CounterId, MetricsRegistry, ObsOptions};
use aggview::plan_cache::{AnswerMeta, CacheKey, PlanCache};
use aggview::rewrite::{Canonical, RewriteOptions, Rewriter};
use aggview::server::WriteOp;
use aggview::session::StatementOutcome;
use aggview::sharded::{gather_plan, ShardedStore, UnionState};
use aggview::sql::ast::{Expr, SelectItem, TableRef};
use aggview::sql::{parse_script, Insert, Query, Statement};
use aggview::state::{EngineState, WritePolicy};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

type Result<T> = std::result::Result<T, String>;

/// Time one call, in microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Layer times of one operation (µs), by layer name.
#[derive(Default)]
struct Spans(BTreeMap<&'static str, f64>);

impl Spans {
    fn add(&mut self, layer: &'static str, us: f64) {
        *self.0.entry(layer).or_default() += us;
    }
}

/// Layers whose times add up to a read's latency (unsharded).
const READ_TOP: [&str; 7] = [
    "net.encode_us",
    "net.decode_us",
    "sql.parse_us",
    "plan_cache.lookup_us",
    "rewrite.search_us",
    "exec.columnarize_us",
    "exec_us",
];
/// Layers whose times add up to a read's latency (sharded).
const SHARDED_READ_TOP: [&str; 8] = [
    "net.encode_us",
    "net.decode_us",
    "sql.parse_us",
    "sharded.union_rebuild_us",
    "sharded.gather_plan_us",
    "sharded.scatter_us",
    "sharded.merge_us",
    "sharded.union_select_us",
];
/// Layers whose times add up to a write's ack latency. The checkpoint is
/// written after the ack, so it delays the next write's queue wait, not
/// this write. After the ack the session re-pins the new snapshot, which
/// frees the one it held before (`server.snapshot_drop_us`; unsharded only:
/// a sharded session re-pins shard snapshots on its next read).
const WRITE_TOP: [&str; 8] = [
    "net.encode_us",
    "net.decode_us",
    "sql.parse_us",
    "server.queue_wait_us",
    "state.apply_us",
    "wal.append_us",
    "server.publish_copy_us",
    "server.snapshot_drop_us",
];

/// Which published state a read ran on (with its version, it names one
/// snapshot, whose columnar cache starts empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Scope {
    Published,
    Union,
    Shard(usize),
}

/// Per-read bookkeeping shared by the unsharded and sharded paths.
#[derive(Default)]
struct ReadStats {
    /// Relations already converted to columns, by (state, version, name).
    columnar_warm: HashSet<(Scope, u64, String)>,
    conversions: Vec<f64>,
    searches: Vec<f64>,
    candidates: Vec<f64>,
    rows_examined: u64,
    rows_returned: u64,
}

fn counter(db: &Database, id: CounterId) -> u64 {
    db.metrics().map_or(0, |m| m.get(id))
}

/// The serving select path (`select_on` in the session layer): plan-cache
/// lookup, rewrite search and planning on a miss, execution. Records
/// `plan_cache.lookup_us`, `rewrite.search_us`, `exec.columnarize_us` and
/// `exec_us` (execution less the columnar conversion it triggered).
fn traced_select(
    state: &EngineState,
    cache: &mut PlanCache,
    q: &Query,
    scope: (Scope, u64),
    spans: &mut Spans,
    rs: &mut ReadStats,
) -> Result<Relation> {
    let cx = ExecContext::columnar(true);
    let db = &state.db;
    let vectorized0 = counter(db, CounterId::ExecVectorized);
    let probes0 = counter(db, CounterId::IndexProbes);
    let probe_rows0 = counter(db, CounterId::IndexProbeRows);
    let t = Instant::now();
    let key = Canonical::from_query(q, db)
        .ok()
        .map(|c| CacheKey::new(&c, q.output_names()));
    let entry = key.as_ref().and_then(|k| cache.lookup(k));
    spans.add("plan_cache.lookup_us", t.elapsed().as_secs_f64() * 1e6);
    let (relation, from, exec_us) = match entry {
        Some(cached) => {
            let t = Instant::now();
            let rel = match (&cached.plan, &cached.rewriting) {
                (Some(plan), _) => plan.run(db),
                (None, Some(rw)) => aggview::run::execute_rewriting_ctx(rw, db, &cx),
                (None, None) => execute_ctx(q, db, &cx),
            }
            .map_err(|e| e.to_string())?;
            let exec_us = t.elapsed().as_secs_f64() * 1e6;
            let executed = cached.rewriting.as_ref().map_or(q, |r| &r.query);
            let from: Vec<String> = executed.from.iter().map(|t| t.table.clone()).collect();
            (rel, from, exec_us)
        }
        None => {
            let (searched, us) = timed(|| {
                let rewriter = Rewriter::with_options(&state.catalog, RewriteOptions::default());
                let (mut rws, search) = rewriter
                    .rewrite_with_stats(q, &state.views)
                    .map_err(|e| e.to_string())?;
                let stats = state.table_stats();
                rws.sort_by(|a, b| a.cost(&stats).total_cmp(&b.cost(&stats)));
                Ok::<_, String>((rws, search))
            });
            let (rewritings, search) = searched?;
            spans.add("rewrite.search_us", us);
            rs.searches.push(us);
            let candidates = rewritings.len();
            rs.candidates.push(candidates as f64);
            let best = rewritings.into_iter().next();
            let t = Instant::now();
            let executed = best.as_ref().map_or(q, |b| &b.query);
            let compilable = best
                .as_ref()
                .is_none_or(|b| b.aux_views.is_empty() && !b.requires_nat);
            let plan = compilable
                .then(|| PhysicalPlan::compile(executed, db).ok())
                .flatten()
                .map(|mut p| {
                    p.set_columnar(true);
                    p
                });
            let rel = match (&plan, &best) {
                (Some(p), _) => p.run(db),
                (None, Some(rw)) => aggview::run::execute_rewriting_ctx(rw, db, &cx),
                (None, None) => execute_ctx(q, db, &cx),
            }
            .map_err(|e| e.to_string())?;
            let exec_us = t.elapsed().as_secs_f64() * 1e6;
            let from: Vec<String> = executed.from.iter().map(|t| t.table.clone()).collect();
            let (_, us) = timed(|| {
                if let Some(k) = key {
                    let meta = AnswerMeta {
                        executed: executed.to_string(),
                        views_used: best.as_ref().map_or(Vec::new(), |b| b.views_used.clone()),
                        candidates,
                        set_semantics: best.as_ref().is_some_and(|b| b.set_semantics),
                    };
                    cache.store(k, best.clone(), plan, meta, search);
                }
            });
            spans.add("plan_cache.lookup_us", us);
            (rel, from, exec_us)
        }
    };
    // A vectorized scan of a relation not yet converted in this state paid
    // the columnar conversion inside `run`: time that conversion on the
    // side and count it as the child it is.
    let mut conversion = 0.0;
    if counter(db, CounterId::ExecVectorized) > vectorized0 && from.len() == 1 {
        let warm_key = (scope.0, scope.1, from[0].clone());
        if rs.columnar_warm.insert(warm_key) {
            if let Ok(rel) = db.get(&from[0]) {
                conversion = timed(|| black_box(ColumnarRelation::from_rows(rel))).1;
                rs.conversions.push(conversion);
            }
        }
    }
    spans.add("exec.columnarize_us", conversion);
    spans.add("exec_us", (exec_us - conversion).max(0.0));
    rs.rows_examined += if counter(db, CounterId::IndexProbes) > probes0 {
        counter(db, CounterId::IndexProbeRows) - probe_rows0
    } else {
        from.iter()
            .map(|r| db.get(r).map_or(0, |r| r.len() as u64))
            .sum()
    };
    rs.rows_returned += relation.len().max(1) as u64;
    Ok(relation)
}

/// The write-side mirror of one store (or one shard): the writer's master
/// state, its WAL and checkpoint pacing, and its epoch.
struct Master {
    state: EngineState,
    wal: DurabilityState,
    epoch: u64,
}

/// Route a write statement the way the sharded store does: DDL and
/// `DELETE` to every shard, `INSERT` rows by their shard column.
fn route(stmt: &Statement, masters: &[Master]) -> Vec<(usize, Statement)> {
    let n = masters.len();
    match stmt {
        Statement::Insert(ins) if n > 1 => {
            let Some(schema) = masters[0].state.catalog.table(&ins.table) else {
                return vec![(0, stmt.clone())];
            };
            let col = shard_column(schema);
            let mut parts: Vec<Vec<_>> = vec![Vec::new(); n];
            for row in &ins.rows {
                parts[shard_of_value(&lit_value(&row[col]), n)].push(row.clone());
            }
            parts
                .into_iter()
                .enumerate()
                .filter(|(_, rows)| !rows.is_empty())
                .map(|(i, rows)| {
                    let table = ins.table.clone();
                    (i, Statement::Insert(Insert { table, rows }))
                })
                .collect()
        }
        _ => (0..n).map(|i| (i, stmt.clone())).collect(),
    }
}

fn write_op(stmt: &Statement) -> Result<WriteOp> {
    Ok(match stmt {
        Statement::CreateTable(ct) => WriteOp::CreateTable(ct.clone()),
        Statement::CreateView(cv) => WriteOp::CreateView(cv.clone()),
        Statement::Insert(ins) => WriteOp::Insert(ins.clone()),
        Statement::Delete(del) => WriteOp::Delete(del.clone()),
        other => return Err(format!("not a write: {other}")),
    })
}

fn apply(state: &mut EngineState, stmt: &Statement, policy: WritePolicy) -> Result<String> {
    let applied = match stmt {
        Statement::CreateTable(ct) => state.create_table(ct),
        Statement::CreateView(cv) => state.create_view(cv, policy),
        Statement::Insert(ins) => state.insert(ins, policy),
        Statement::Delete(del) => state.delete(del, policy),
        other => return Err(format!("not a write: {other}")),
    };
    applied.map(|a| a.message).map_err(|e| e.0)
}

/// The rows a `DELETE` removes, found the way the program finds them.
fn delete_delta(state: &EngineState, stmt: &Statement) -> Vec<Vec<Value>> {
    let Statement::Delete(del) = stmt else {
        return Vec::new();
    };
    let Ok(rel) = state.db.get(&del.table) else {
        return Vec::new();
    };
    let q = Query {
        distinct: false,
        select: rel
            .columns
            .iter()
            .map(|c| SelectItem::expr(Expr::col(c.clone())))
            .collect(),
        from: vec![TableRef::new(del.table.clone())],
        where_clause: del.filter.clone(),
        group_by: Vec::new(),
        having: None,
    };
    execute_ctx(&q, &state.db, &ExecContext::columnar(true)).map_or(Vec::new(), |r| r.rows)
}

/// One write on one store: apply (with its table copy and per-view
/// maintenance timed on the side), WAL append, publish copy, checkpoint.
/// Returns the ack message and the published copy.
fn traced_write(
    m: &mut Master,
    stmt: &Statement,
    policy: WritePolicy,
    spans: &mut Spans,
    checkpoints: &mut Vec<f64>,
) -> Result<std::result::Result<(String, EngineState), String>> {
    let cx = ExecContext::columnar(true);
    let table = match stmt {
        Statement::Insert(ins) => ins.table.clone(),
        Statement::Delete(del) => del.table.clone(),
        other => return Err(format!("not a data write: {other}")),
    };
    let (_, us) = timed(|| black_box(m.state.db.get(&table).ok().cloned()));
    spans.add("state.table_copy_us", us);
    let dependents: Vec<_> = m
        .state
        .views
        .iter()
        .filter(|v| v.query.from.iter().any(|t| t.table == table))
        .filter_map(|v| {
            let rel = m.state.db.get(&v.name).ok()?.clone();
            Some((v.query.clone(), rel, m.state.db.index(&v.name).cloned()))
        })
        .collect();
    let delta: Vec<Vec<Value>> = match stmt {
        Statement::Insert(ins) => ins
            .rows
            .iter()
            .map(|r| r.iter().map(lit_value).collect())
            .collect(),
        _ => delete_delta(&m.state, stmt),
    };
    let (applied, us) = timed(|| apply(&mut m.state, stmt, policy));
    spans.add("state.apply_us", us);
    let message = match applied {
        Ok(msg) => msg,
        // Rejected: nothing is logged or published.
        Err(e) => return Ok(Err(e)),
    };
    for (query, mut rel, mut index) in dependents {
        let kind = match stmt {
            Statement::Insert(_) => DeltaKind::Insert(&delta),
            _ => DeltaKind::Delete(&delta),
        };
        let (incremental, us) = timed(|| {
            maintain_view_ctx(
                &query,
                &mut rel,
                &table,
                kind,
                &m.state.db,
                index.as_mut(),
                &cx,
            )
        });
        match incremental {
            Ok(true) => spans.add("maintenance.incremental_us", us),
            Ok(false) => spans.add("maintenance.recompute_us", us),
            Err(e) => return Err(format!("maintenance on the side failed: {e}")),
        }
    }
    let (logged, us) = timed(|| m.wal.log_batch(m.epoch + 1, &stmt.to_string()));
    logged.map_err(|e| format!("wal: {e}"))?;
    spans.add("wal.append_us", us);
    m.epoch += 1;
    let (published, us) = timed(|| m.state.clone());
    spans.add("server.publish_copy_us", us);
    let (fired, us) = timed(|| m.wal.maybe_checkpoint(&m.state, m.epoch, 0));
    if fired.map_err(|e| format!("checkpoint: {e}"))? {
        checkpoints.push(us);
    }
    Ok(Ok((message, published)))
}

/// The shard data directories of a run (the directory itself when
/// unsharded).
fn store_dirs(workload: Workload, data: &Path) -> Vec<PathBuf> {
    match workload.shards() {
        None => vec![data.to_path_buf()],
        Some(n) => (0..n).map(|i| data.join(format!("shard-{i:03}"))).collect(),
    }
}

/// What reads run against: the last published state, or the sharded
/// store with its union and per-shard plan caches.
enum ReadSide {
    Single {
        published: EngineState,
        version: u64,
        cache: PlanCache,
    },
    Sharded {
        store: ShardedStore,
        union: UnionState,
        union_epochs: Vec<u64>,
        rebuilds: u64,
        rebuild_us: Vec<f64>,
        union_cache: PlanCache,
        shard_caches: Vec<PlanCache>,
        registry: Arc<MetricsRegistry>,
    },
}

impl ReadSide {
    fn select(&mut self, q: &Query, spans: &mut Spans, rs: &mut ReadStats) -> Result<Relation> {
        match self {
            ReadSide::Single {
                published,
                version,
                cache,
            } => traced_select(published, cache, q, (Scope::Published, *version), spans, rs),
            ReadSide::Sharded {
                store,
                union,
                union_epochs,
                rebuilds,
                rebuild_us,
                union_cache,
                shard_caches,
                registry,
            } => {
                let stale = store.epochs() != *union_epochs;
                let (ensured, us) = timed(|| union.ensure(store, Some(&*registry)).map(|_| ()));
                ensured.map_err(|e| e.0)?;
                spans.add("sharded.union_rebuild_us", us);
                if stale {
                    *union_epochs = store.epochs();
                    *rebuilds += 1;
                    rebuild_us.push(us);
                }
                let (gather, us) = timed(|| gather_plan(union.state(), q));
                spans.add("sharded.gather_plan_us", us);
                let scatter_q = match &gather {
                    GatherPlan::Concat => Some(q.clone()),
                    GatherPlan::Reaggregate(plan) => Some(plan.scatter.clone()),
                    GatherPlan::Fallback(_) => None,
                };
                let mut merged = None;
                if let Some(sq) = scatter_q {
                    let t = Instant::now();
                    let mut parts = Vec::new();
                    for (i, shard) in store.shards().iter().enumerate() {
                        let snap = shard.load();
                        let scope = (Scope::Shard(i), snap.epoch);
                        parts.push(traced_select(
                            &snap.state,
                            &mut shard_caches[i],
                            &sq,
                            scope,
                            spans,
                            rs,
                        )?);
                    }
                    spans.add("sharded.scatter_us", t.elapsed().as_secs_f64() * 1e6);
                    let (m, us) = timed(|| match &gather {
                        GatherPlan::Reaggregate(plan) => {
                            plan.merge(q, &parts).map_err(|e| e.to_string())
                        }
                        _ => Ok(merge_concat(q, parts)),
                    });
                    spans.add("sharded.merge_us", us);
                    merged = Some(m?);
                }
                let t = Instant::now();
                let answer = traced_select(
                    union.state(),
                    union_cache,
                    q,
                    (Scope::Union, *rebuilds),
                    spans,
                    rs,
                )?;
                spans.add("sharded.union_select_us", t.elapsed().as_secs_f64() * 1e6);
                Ok(merged.unwrap_or(answer))
            }
        }
    }
}

fn outcome_of(relation: Relation) -> StatementOutcome {
    StatementOutcome::Answer {
        relation,
        executed: String::new(),
        views_used: Vec::new(),
        candidates: 0,
        set_semantics: false,
        verified: None,
        elapsed_ms: 0.0,
        search: Box::default(),
        obs: None,
    }
}

pub fn run(workload: Workload, plan: &Plan, dir: &Path, m: &Measured) -> Result<Metrics> {
    let policy = WritePolicy {
        durability: true,
        ..WritePolicy::default()
    };
    let data = dir.join("data");

    // Recovery of the end-to-end run's data directory.
    let mut opens = Vec::new();
    let mut replayed = 0;
    for _ in 0..REOPENS {
        let mut total_us = 0.0;
        replayed = 0;
        for d in store_dirs(workload, &data) {
            let (recovered, us) = timed(|| open_dir(&d, policy, DurabilityOptions::default()));
            let recovered = recovered.map_err(|e| format!("open {}: {e}", d.display()))?;
            replayed += recovered.report.replayed_batches;
            total_us += us;
        }
        opens.push(total_us);
    }

    // Mirrors of the stores after set-up.
    let registry = Arc::new(MetricsRegistry::new(&ObsOptions::default()));
    let n = workload.shards().unwrap_or(1);
    let mut masters = Vec::new();
    for i in 0..n {
        let wal_dir = dir.join(format!("trace-wal-{i}"));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let recovered = open_dir(&wal_dir, policy, DurabilityOptions::default())
            .map_err(|e| format!("open trace wal: {e}"))?;
        let mut state = EngineState::new();
        state.db.set_metrics(Arc::clone(&registry));
        masters.push(Master {
            state,
            wal: recovered.durability,
            epoch: 0,
        });
    }
    let store = (n > 1).then(|| ShardedStore::new(n, WritePolicy::default()));
    for sql in &plan.setup {
        let stmt = parse_script(sql).map_err(|e| e.to_string())?.remove(0);
        for (i, part) in route(&stmt, &masters) {
            let master = &mut masters[i];
            apply(&mut master.state, &part, policy)?;
            master.epoch += 1;
            // Keep the checkpoint cadence where the live store has it.
            master
                .wal
                .maybe_checkpoint(&master.state, master.epoch, 0)
                .map_err(|e| format!("checkpoint: {e}"))?;
        }
        if let Some(store) = &store {
            store.apply_write(write_op(&stmt)?).map_err(|e| e.0)?;
        }
    }
    let mut side = match store {
        None => ReadSide::Single {
            published: masters[0].state.clone(),
            version: 0,
            cache: PlanCache::with_cap(aggview::plan_cache::DEFAULT_PLAN_CACHE_CAP),
        },
        Some(store) => ReadSide::Sharded {
            store,
            union: UnionState::new(),
            union_epochs: Vec::new(),
            rebuilds: 0,
            rebuild_us: Vec::new(),
            union_cache: PlanCache::with_cap(aggview::plan_cache::DEFAULT_PLAN_CACHE_CAP),
            shard_caches: (0..n)
                .map(|_| PlanCache::with_cap(aggview::plan_cache::DEFAULT_PLAN_CACHE_CAP))
                .collect(),
            registry: Arc::clone(&registry),
        },
    };

    let mut rs = ReadStats::default();
    for sql in &plan.warmup {
        let Statement::Select(q) = parse_script(sql).map_err(|e| e.to_string())?.remove(0) else {
            return Err("warm-up statement is not a SELECT".into());
        };
        side.select(&q, &mut Spans::default(), &mut rs)?;
    }
    let mut rs = ReadStats::default();

    let acked_writes = m.attempted.get(&OpType::Write).copied().unwrap_or(0).max(1);
    let queue_wait_us = m.counters.queue_wait_ns as f64 / acked_writes as f64 / 1e3;
    let mut per_op: Vec<(OpType, Spans)> = Vec::with_capacity(plan.ops.len());
    let mut answer_bytes = Vec::new();
    let mut checkpoints = Vec::new();
    for (id, op) in plan.ops.iter().enumerate() {
        let id = id as u64 + 1;
        let mut spans = Spans::default();
        let (line, us) = timed(|| protocol::encode_request(id, op.sql(), None));
        spans.add("net.encode_us", us);
        let (request, us) = timed(|| protocol::decode_request(line.as_bytes()));
        spans.add("net.decode_us", us);
        let Command::Sql(sql) = request?.cmd else {
            return Err("request is not SQL".into());
        };
        let (stmts, us) = timed(|| parse_script(&sql));
        spans.add("sql.parse_us", us);
        let stmt = stmts.map_err(|e| e.to_string())?.remove(0);
        let outcome = match (&stmt, op) {
            (Statement::Select(q), Op::Read { .. }) => {
                Ok(outcome_of(side.select(q, &mut spans, &mut rs)?))
            }
            (_, Op::Write { .. } | Op::Rejected { .. }) => {
                let mut ack = Ok(String::new());
                let mut last_published = None;
                for (i, part) in route(&stmt, &masters) {
                    match traced_write(
                        &mut masters[i],
                        &part,
                        policy,
                        &mut spans,
                        &mut checkpoints,
                    )? {
                        Ok((msg, published)) => {
                            ack = Ok(msg);
                            last_published = Some(published);
                        }
                        Err(e) => ack = Err(e),
                    }
                }
                match &mut side {
                    ReadSide::Single {
                        published, version, ..
                    } => {
                        if let Some(p) = last_published {
                            let old = std::mem::replace(published, p);
                            spans.add("server.snapshot_drop_us", timed(|| drop(old)).1);
                            *version += 1;
                        }
                    }
                    ReadSide::Sharded { store, .. } => {
                        // Keep the store the reads run on in step.
                        let _ = store.apply_write(write_op(&stmt)?);
                    }
                }
                if ack.is_ok() {
                    spans.add("server.queue_wait_us", queue_wait_us);
                }
                ack.map(StatementOutcome::Ok)
            }
            _ => return Err(format!("op and statement disagree: {sql}")),
        };
        let (line, us) = timed(|| match &outcome {
            Ok(o) => protocol::encode_outcome(id, o),
            Err(e) => protocol::encode_error(Some(id), e),
        });
        spans.add("net.encode_us", us);
        let (decoded, us) = timed(|| protocol::decode_response(line.as_bytes()));
        decoded?;
        spans.add("net.decode_us", us);
        if op.ty() == OpType::Rollup {
            answer_bytes.push(line.len() as f64 + 1.0);
        }
        per_op.push((op.ty(), spans));
    }
    let _ = std::fs::remove_dir_all(dir.join("trace-wal-0"));
    let _ = std::fs::remove_dir_all(dir.join("trace-wal-1"));

    // Median over the operations of the given types that ran the layer.
    let invoked = |layer: &str, types: &[OpType]| -> f64 {
        let v: Vec<f64> = per_op
            .iter()
            .filter(|(t, _)| types.contains(t))
            .filter_map(|(_, s)| s.0.get(layer).copied())
            .collect();
        median(&v)
    };
    // Median over all operations of one type, 0 where the layer did not run.
    let per_type = |layer: &str, t: OpType| -> f64 {
        let v: Vec<f64> = per_op
            .iter()
            .filter(|(ty, _)| *ty == t)
            .map(|(_, s)| s.0.get(layer).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    };
    let reads = [OpType::Rollup, OpType::Adhoc, OpType::FreshRead];
    let all = [
        OpType::Rollup,
        OpType::Adhoc,
        OpType::FreshRead,
        OpType::Write,
        OpType::RejectedWrite,
    ];
    let writes = [OpType::Write];
    let c = &m.counters;
    let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    let (rebuild_us, rebuilds) = match &side {
        ReadSide::Sharded {
            rebuild_us,
            rebuilds,
            ..
        } => (median(rebuild_us), *rebuilds as f64),
        ReadSide::Single { .. } => (0.0, 0.0),
    };

    println!("closure (median us): op type, end-to-end, layers..., unattributed");
    let mut unattributed = Vec::new();
    for (t, name) in [
        (OpType::Rollup, "unattributed.rollup_us"),
        (OpType::Adhoc, "unattributed.adhoc_us"),
        (OpType::FreshRead, "unattributed.fresh_read_us"),
        (OpType::Write, "unattributed.write_us"),
    ] {
        let top: &[&str] = match (t, workload.shards()) {
            (OpType::Write, _) => &WRITE_TOP,
            (_, Some(_)) => &SHARDED_READ_TOP,
            (_, None) => &READ_TOP,
        };
        let e2e_us = median(m.latency_ms.get(&t).map_or(&[][..], |v| &v[..])) * 1e3;
        let parts: Vec<(&str, f64)> = top.iter().map(|l| (*l, per_type(l, t))).collect();
        let rest = e2e_us - parts.iter().map(|(_, v)| v).sum::<f64>();
        let shown: Vec<String> = parts.iter().map(|(l, v)| format!("{l}={v:.1}")).collect();
        println!(
            "  {:<10} {e2e_us:.1} = {} + unattributed {rest:.1}",
            t.name(),
            shown.join(" + ")
        );
        unattributed.push((name.to_string(), rest, "us"));
    }
    // The writer thread's own clocks (`StoreStats::apply_publish_ns` and its
    // stage spans) against the traced steps it runs, as means over every
    // write it applied.
    let writes_applied: Vec<&Spans> = per_op
        .iter()
        .filter(|(t, _)| matches!(t, OpType::Write | OpType::RejectedWrite))
        .map(|(_, s)| s)
        .collect();
    let per_write = |ns: u64| ns as f64 / writes_applied.len().max(1) as f64 / 1e3;
    let traced_mean = |layer: &str| {
        writes_applied
            .iter()
            .filter_map(|s| s.0.get(layer))
            .sum::<f64>()
            / writes_applied.len().max(1) as f64
    };
    let writer_steps = ["state.apply_us", "wal.append_us", "server.publish_copy_us"];
    let shown: Vec<String> = writer_steps
        .iter()
        .zip(c.writer_stage_ns)
        .map(|(l, ns)| format!("{l} {:.1} (traced {:.1})", per_write(ns), traced_mean(l)))
        .collect();
    println!(
        "  writer thread (mean us per write): apply+publish {:.1} = {}",
        per_write(c.apply_publish_ns),
        shown.join(" + ")
    );

    let mut out: Metrics = vec![
        ("net.decode_us".into(), invoked("net.decode_us", &all), "us"),
        ("net.encode_us".into(), invoked("net.encode_us", &all), "us"),
        (
            "net.answer_bytes".into(),
            answer_bytes.iter().sum::<f64>() / answer_bytes.len().max(1) as f64,
            "bytes",
        ),
        ("sql.parse_us".into(), invoked("sql.parse_us", &all), "us"),
        (
            "plan_cache.hit_ratio".into(),
            ratio(c.plan_cache_hits, c.plan_cache_misses),
            "ratio",
        ),
        (
            "plan_cache.lookup_us".into(),
            invoked("plan_cache.lookup_us", &reads),
            "us",
        ),
        ("rewrite.search_us".into(), median(&rs.searches), "us"),
        (
            "rewrite.candidates".into(),
            rs.candidates.iter().sum::<f64>() / rs.candidates.len().max(1) as f64,
            "count",
        ),
        (
            "exec.rollup_us".into(),
            per_type("exec_us", OpType::Rollup),
            "us",
        ),
        (
            "exec.adhoc_us".into(),
            per_type("exec_us", OpType::Adhoc),
            "us",
        ),
        (
            "exec.vectorized_ratio".into(),
            ratio(c.exec_vectorized, c.exec_row_fallback),
            "ratio",
        ),
        (
            "exec.rows_examined_per_row".into(),
            rs.rows_examined as f64 / rs.rows_returned.max(1) as f64,
            "ratio",
        ),
        ("exec.columnarize_us".into(), median(&rs.conversions), "us"),
        (
            "state.table_copy_us".into(),
            invoked("state.table_copy_us", &writes),
            "us",
        ),
        (
            "state.apply_us".into(),
            invoked("state.apply_us", &writes),
            "us",
        ),
        (
            "maintenance.incremental_us".into(),
            invoked("maintenance.incremental_us", &writes),
            "us",
        ),
        (
            "maintenance.recompute_us".into(),
            invoked("maintenance.recompute_us", &writes),
            "us",
        ),
        (
            "maintenance.recompute_ratio".into(),
            ratio(c.maintain_recompute, c.maintain_incremental),
            "ratio",
        ),
        (
            "server.publish_copy_us".into(),
            invoked("server.publish_copy_us", &writes),
            "us",
        ),
        ("server.queue_wait_us".into(), queue_wait_us, "us"),
        (
            "server.snapshot_drop_us".into(),
            invoked("server.snapshot_drop_us", &writes),
            "us",
        ),
        (
            "wal.append_us".into(),
            invoked("wal.append_us", &writes),
            "us",
        ),
        (
            "wal.bytes_per_write".into(),
            c.wal_bytes as f64 / c.wal_appends.max(1) as f64,
            "bytes",
        ),
        ("checkpoint.write_us".into(), median(&checkpoints), "us"),
        ("checkpoint.count".into(), c.checkpoints as f64, "count"),
        ("recovery.open_us".into(), median(&opens), "us"),
        ("recovery.replayed_batches".into(), replayed as f64, "count"),
        ("sharded.union_rebuild_us".into(), rebuild_us, "us"),
        ("sharded.union_rebuilds".into(), rebuilds, "count"),
        (
            "sharded.gather_plan_us".into(),
            invoked("sharded.gather_plan_us", &reads),
            "us",
        ),
        (
            "sharded.scatter_us".into(),
            invoked("sharded.scatter_us", &reads),
            "us",
        ),
        (
            "sharded.merge_us".into(),
            invoked("sharded.merge_us", &reads),
            "us",
        ),
        (
            "sharded.union_select_us".into(),
            invoked("sharded.union_select_us", &reads),
            "us",
        ),
    ];
    out.extend(unattributed);
    Ok(out)
}
