//! The two workloads: schema and views, query templates, and the
//! seeded operation sequence with the model answers it is checked against.
//!
//! A run replays whole *rounds*. Every round of a workload holds the same
//! operations by type and template (the seed only draws constants, rows
//! and the order of reads inside the round), so state size, WAL bytes,
//! checkpoints, recovery work and the share of each cost mode repeat from
//! run to run.

use crate::model::{self, random_call, AggFn, Cmp, Col, Join, Row, Spec, Warehouse};
use crate::rng::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    ShardedMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "sharded_mixed" => Some(Workload::ShardedMixed),
            _ => None,
        }
    }

    pub fn shards(self) -> Option<usize> {
        (self == Workload::ShardedMixed).then_some(2)
    }
}

/// What the client sends, reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpType {
    Rollup,
    Adhoc,
    FreshRead,
    Write,
    RejectedWrite,
}

impl OpType {
    pub const ALL: [OpType; 5] = [
        OpType::Rollup,
        OpType::Adhoc,
        OpType::FreshRead,
        OpType::Write,
        OpType::RejectedWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpType::Rollup => "rollup",
            OpType::Adhoc => "adhoc",
            OpType::FreshRead => "fresh_read",
            OpType::Write => "write",
            OpType::RejectedWrite => "rejected_write",
        }
    }
}

#[derive(Debug, Clone)]
pub enum Op {
    Read {
        ty: OpType,
        template: &'static str,
        sql: String,
        /// The model's answer at this point of the sequence, for the
        /// sampled reads that are checked.
        expected: Option<Vec<Row>>,
    },
    /// `INSERT` or `DELETE` on `Calls`, acked with the affected-row count.
    Write { sql: String, rows: usize },
    /// An `INSERT` into `Adjustments` whose amount is not a number: view
    /// maintenance must reject it and leave no trace. `probe` is the key
    /// lookup that checks so, sent after the next acked write.
    Rejected { sql: String, probe: String },
}

impl Op {
    pub fn ty(&self) -> OpType {
        match self {
            Op::Read { ty, .. } => *ty,
            Op::Write { .. } => OpType::Write,
            Op::Rejected { .. } => OpType::RejectedWrite,
        }
    }

    pub fn sql(&self) -> &str {
        match self {
            Op::Read { sql, .. } | Op::Write { sql, .. } | Op::Rejected { sql, .. } => sql,
        }
    }
}

/// The paper's query Q (Example 1.1).
pub fn papers_q() -> Spec {
    Spec {
        join: Join::Plans,
        filters: vec![(Col::Year, Cmp::Eq, 1995)],
        group: vec![Col::Plan, Col::PlanName],
        aggs: vec![(AggFn::Sum, Col::Charge)],
    }
}

fn year(rng: &mut Rng) -> i64 {
    model::YEARS[rng.below(model::YEARS.len())]
}

/// Rollup templates: the summary shapes the views are built to answer.
pub const ROLLUPS: [&str; 5] = ["q", "plan_month", "plan_day", "cust_month", "wide"];

pub fn template(name: &str, rng: &mut Rng) -> Spec {
    let sum_count = vec![(AggFn::Sum, Col::Charge), (AggFn::Count, Col::Charge)];
    match name {
        // Hot repeats.
        "q" => papers_q(),
        "plan_month" => Spec {
            join: Join::None,
            filters: vec![(Col::Year, Cmp::Eq, 1995)],
            group: vec![Col::Plan, Col::Month],
            aggs: sum_count,
        },
        // Drawn constants: 3 x 12 x 28 and 1,000 x 3 keys, far more than
        // the 64-entry plan cache holds.
        "plan_day" => Spec {
            join: Join::None,
            filters: vec![
                (Col::Year, Cmp::Eq, year(rng)),
                (Col::Month, Cmp::Eq, rng.range(1, 12)),
                (Col::Day, Cmp::Eq, rng.range(1, 28)),
            ],
            group: vec![Col::Plan],
            aggs: vec![(AggFn::Sum, Col::Charge)],
        },
        "cust_month" => Spec {
            join: Join::None,
            filters: vec![
                (Col::Cust, Cmp::Eq, rng.range(1, model::N_CUSTOMERS)),
                (Col::Year, Cmp::Eq, year(rng)),
            ],
            group: vec![Col::Month],
            aggs: vec![
                (AggFn::Sum, Col::Charge),
                (AggFn::Min, Col::Charge),
                (AggFn::Max, Col::Charge),
            ],
        },
        // The wide answer: one row per customer.
        "wide" => Spec {
            join: Join::None,
            filters: vec![(Col::Year, Cmp::Eq, 1995)],
            group: vec![Col::Cust],
            aggs: sum_count,
        },
        // Adhoc constants are drawn so that selectivity barely varies: the
        // cost of a template stays one mode, only the cache key changes.
        "charge_band" => {
            let lo = rng.range(1, 900);
            Spec {
                join: Join::None,
                filters: vec![(Col::Charge, Cmp::Ge, lo), (Col::Charge, Cmp::Le, lo + 59)],
                group: vec![Col::Plan],
                aggs: vec![(AggFn::Count, Col::Charge), (AggFn::Avg, Col::Charge)],
            }
        }
        "day_charge" => Spec {
            join: Join::None,
            filters: vec![
                (Col::Day, Cmp::Le, rng.range(14, 15)),
                (Col::Charge, Cmp::Ge, rng.range(400, 449)),
            ],
            group: vec![Col::Day],
            aggs: vec![(AggFn::Sum, Col::Charge)],
        },
        "area_join" => Spec {
            join: Join::Customer,
            filters: vec![
                (Col::Charge, Cmp::Ge, rng.range(400, 449)),
                (Col::Year, Cmp::Eq, year(rng)),
            ],
            group: vec![Col::AreaCode],
            aggs: sum_count,
        },
        other => unreachable!("unknown template {other}"),
    }
}

/// Single-table summary views over `Calls`, maintained incrementally.
const SUMMARY_VIEWS: [&str; 4] = [
    "CREATE VIEW VPM AS SELECT Plan_Id, Month, Year, SUM(Charge) AS S, COUNT(Charge) AS N \
     FROM Calls GROUP BY Plan_Id, Month, Year",
    "CREATE VIEW VPD AS SELECT Plan_Id, Day, Month, Year, SUM(Charge) AS S, COUNT(Charge) AS N \
     FROM Calls GROUP BY Plan_Id, Day, Month, Year",
    "CREATE VIEW VCM AS SELECT Cust_Id, Month, Year, SUM(Charge) AS S, COUNT(Charge) AS N, \
     MIN(Charge) AS Lo, MAX(Charge) AS Hi FROM Calls GROUP BY Cust_Id, Month, Year",
    "CREATE VIEW V95 AS SELECT Plan_Id, Month, SUM(Charge) AS S, COUNT(Charge) AS N \
     FROM Calls WHERE Year = 1995 GROUP BY Plan_Id, Month",
];

/// `ingest` adds the paper's join view V1, one conjunctive view, and the
/// `Adjustments` summary the rejected writes aim at.
const INGEST_VIEWS: [&str; 3] = [
    "CREATE VIEW V1 AS SELECT Calls.Plan_Id, Plan_Name, Month, Year, \
     SUM(Charge) AS Monthly_Earnings FROM Calls, Calling_Plans \
     WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Calls.Plan_Id, Plan_Name, Month, Year",
    "CREATE VIEW VBig AS SELECT Call_Id, Cust_Id, Charge FROM Calls WHERE Charge >= 400",
    "CREATE VIEW AdjV AS SELECT Cust_Id, SUM(Amount) AS S, COUNT(Amount) AS N \
     FROM Adjustments GROUP BY Cust_Id",
];

/// Rows per bulk `INSERT` while loading `Calls`. With 84 statements the
/// set-up leaves `ingest` (98 set-up batches, 102 acked writes) a WAL tail
/// of 8 batches after the default 64-batch checkpoint cadence.
const BULK_ROWS: usize = 600;

fn values<T>(rows: &[T], fmt: impl Fn(&T) -> String) -> String {
    rows.iter().map(fmt).collect::<Vec<_>>().join(", ")
}

fn call_tuple(c: &model::Call) -> String {
    format!(
        "({}, {}, {}, {}, {}, {}, {})",
        c[0], c[1], c[2], c[3], c[4], c[5], c[6]
    )
}

/// Schema, bulk load and view backfill, one statement per request.
pub fn setup_sql(workload: Workload, w: &Warehouse) -> Vec<String> {
    let mut out = vec![
        "CREATE TABLE Customer (Cust_Id, Cust_Name, Area_Code, Phone_Number, KEY (Cust_Id))".into(),
        "CREATE TABLE Calling_Plans (Plan_Id, Plan_Name, KEY (Plan_Id))".into(),
        "CREATE TABLE Calls (Call_Id, Cust_Id, Plan_Id, Day, Month, Year, Charge, KEY (Call_Id))"
            .into(),
        format!(
            "INSERT INTO Customer VALUES {}",
            values(&w.customers, |(id, area)| format!(
                "({id}, 'cust_{id:04}', {area}, {})",
                5_550_000 + id
            ))
        ),
        format!(
            "INSERT INTO Calling_Plans VALUES {}",
            values(&(1..=model::N_PLANS).collect::<Vec<_>>(), |p| format!(
                "({p}, '{}')",
                model::plan_name(*p)
            ))
        ),
    ];
    for chunk in w.calls.chunks(BULK_ROWS) {
        out.push(format!(
            "INSERT INTO Calls VALUES {}",
            values(chunk, call_tuple)
        ));
    }
    if workload == Workload::Ingest {
        out.push("CREATE TABLE Adjustments (Adj_Id, Cust_Id, Amount, KEY (Adj_Id))".into());
        out.push(format!(
            "INSERT INTO Adjustments VALUES {}",
            values(&w.adjustments, |(id, c, a)| format!("({id}, {c}, {a})"))
        ));
    }
    out.extend(SUMMARY_VIEWS.iter().map(|s| s.to_string()));
    if workload == Workload::Ingest {
        out.extend(INGEST_VIEWS.iter().map(|s| s.to_string()));
    }
    out
}

/// How a write cycle opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteKind {
    Insert,
    Delete,
    Rejected,
}

/// The fixed make-up of one round of a workload. A round is a list of
/// write cycles: the write, then (when it is acked) the `fresh_read`, then
/// the cycle's adhoc read, if any, then its share of the round's rollups.
/// Placing the adhoc read first in the cycle makes it the first scan of
/// `Calls` after the write every time, so whether it pays the columnar
/// conversion never depends on the seed.
struct Recipe {
    cycles: Vec<(WriteKind, Option<&'static str>)>,
    /// Rollups per round by template; their order is shuffled per round.
    rollups: Vec<(&'static str, usize)>,
    /// Rounds replayed for a 30-second run.
    rounds: usize,
}

/// Adhoc templates in a 1:3:1 pattern: whatever the cost order of the
/// three, the median and the 90th percentile of adhoc latency fall inside
/// one template's cost mode, not on the boundary between two.
const ADHOC_PATTERN: [&str; 5] = [
    "charge_band",
    "day_charge",
    "day_charge",
    "day_charge",
    "area_join",
];

fn recipe(workload: Workload) -> Recipe {
    use WriteKind::*;
    let adhoc = |i: usize| Some(ADHOC_PATTERN[i % ADHOC_PATTERN.len()]);
    // Rollup shares: `plan_month` holds the median and `wide` the 99th
    // percentile, each well inside its own cost mode.
    match workload {
        // 42 acked writes (one in four a DELETE) and one rejected write.
        // With 98 set-up batches and the checkpoint every 64, four rounds
        // leave a WAL tail of 10 batches for recovery to replay.
        Workload::Ingest => Recipe {
            cycles: (0..43)
                .map(|i| {
                    let kind = match i {
                        21 => Rejected,
                        i if i % 4 == 3 => Delete,
                        _ => Insert,
                    };
                    (kind, adhoc(i))
                })
                .collect(),
            rollups: vec![
                ("q", 100),
                ("plan_month", 225),
                ("plan_day", 80),
                ("cust_month", 80),
                ("wide", 15),
            ],
            rounds: 4,
        },
        // 5 cycles of 13 operations.
        Workload::ShardedMixed => Recipe {
            cycles: (0..5).map(|i| (Insert, adhoc(i))).collect(),
            rollups: vec![
                ("q", 10),
                ("plan_month", 22),
                ("plan_day", 8),
                ("cust_month", 8),
                ("wide", 2),
            ],
            rounds: 30,
        },
    }
}

/// Everything a run sends, generated (and answered by the model) before
/// any timer starts.
pub struct Plan {
    pub setup: Vec<String>,
    pub warmup: Vec<String>,
    pub ops: Vec<Op>,
    pub rounds: usize,
    /// Statements and model answers that must hold after every reopen:
    /// Q, one instance of each rollup template, and the `Calls` count.
    pub after_reopen: Vec<(String, Vec<Row>)>,
}

/// Checked reads: the first of each template in every `CHECK_EVERY`-th
/// round (every round when there are fewer), and the fresh read of the
/// first cycle of those rounds.
const CHECK_EVERY: usize = 5;

/// The set-up statements of [`plan`] alone, for a set-up run in a child
/// process.
pub fn setup_plan(workload: Workload, seed: u64) -> Vec<String> {
    let mut data_rng = Rng::new(seed).fork(1);
    setup_sql(workload, &Warehouse::generate(&mut data_rng))
}

pub fn plan(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let mut root = Rng::new(seed);
    let mut data_rng = root.fork(1);
    let mut op_rng = root.fork(2);
    let mut warm_rng = root.fork(3);
    let mut w = Warehouse::generate(&mut data_rng);
    let setup = setup_sql(workload, &w);
    let recipe = recipe(workload);
    // Whole rounds only; never fewer than the 30-second count, which is
    // what the tail percentiles need.
    let rounds = recipe
        .rounds
        .max((recipe.rounds as u64 * seconds).div_ceil(30) as usize);
    let check_every = if recipe.rounds < CHECK_EVERY {
        1
    } else {
        CHECK_EVERY
    };

    let mut warmup = Vec::new();
    for t in ROLLUPS
        .iter()
        .chain(&ADHOC_PATTERN[..2])
        .chain(&ADHOC_PATTERN[4..])
    {
        for _ in 0..3 {
            warmup.push(template(t, &mut warm_rng).sql());
        }
    }

    let mut ops = Vec::new();
    let mut next_adj = 1_000 + model::N_ADJUSTMENTS;
    let mut inserts = 0usize;
    for round in 0..rounds {
        let check_round = round % check_every == 0;
        let mut rollups: Vec<&'static str> = recipe
            .rollups
            .iter()
            .flat_map(|(t, n)| std::iter::repeat_n(*t, *n))
            .collect();
        for i in (1..rollups.len()).rev() {
            rollups.swap(i, op_rng.below(i + 1));
        }
        let (total, n_cycles) = (rollups.len(), recipe.cycles.len());
        let mut rollups = rollups.into_iter();
        let mut checked: Vec<&'static str> = Vec::new();
        let mut read =
            |ty: OpType, t: &'static str, ops: &mut Vec<Op>, w: &Warehouse, rng: &mut Rng| {
                let spec = template(t, rng);
                let check = check_round && !checked.contains(&t);
                if check {
                    checked.push(t);
                }
                ops.push(Op::Read {
                    ty,
                    template: t,
                    sql: spec.sql(),
                    expected: check.then(|| spec.eval(w)),
                });
            };
        for (k, (kind, adhoc)) in recipe.cycles.iter().enumerate() {
            match kind {
                WriteKind::Insert => {
                    // Sizes 1..=20 in a fixed order: new keys, and so the
                    // shards an insert touches, never depend on the seed.
                    let n = 1 + (inserts * 7) % 20;
                    inserts += 1;
                    let rows: Vec<model::Call> = (0..n)
                        .map(|_| {
                            w.max_call_id += 1;
                            random_call(&mut op_rng, w.max_call_id)
                        })
                        .collect();
                    let sql = format!("INSERT INTO Calls VALUES {}", values(&rows, call_tuple));
                    w.calls.extend(rows);
                    ops.push(Op::Write { sql, rows: n });
                }
                WriteKind::Delete => {
                    let lo = op_rng.range(1, w.max_call_id);
                    let hi = lo + op_rng.range(1, 20);
                    let rows = w.delete_calls(lo, hi);
                    ops.push(Op::Write {
                        sql: format!("DELETE FROM Calls WHERE Call_Id >= {lo} AND Call_Id < {hi}"),
                        rows,
                    });
                }
                WriteKind::Rejected => {
                    // Keys and amounts do not depend on the seed, so the
                    // op fails the same way in every run while it fails.
                    let id = next_adj;
                    next_adj += 1;
                    let cust = 1 + id % model::ADJ_CUSTOMERS;
                    ops.push(Op::Rejected {
                        sql: format!("INSERT INTO Adjustments VALUES ({id}, {cust}, 'void')"),
                        probe: format!(
                            "SELECT Adj_Id, Amount FROM Adjustments WHERE Adj_Id = {id}"
                        ),
                    });
                }
            }
            if *kind != WriteKind::Rejected {
                let spec = papers_q();
                let expected = (check_round && k == 0).then(|| spec.eval(&w));
                ops.push(Op::Read {
                    ty: OpType::FreshRead,
                    template: "q",
                    sql: spec.sql(),
                    expected,
                });
            }
            if let Some(t) = adhoc {
                read(OpType::Adhoc, t, &mut ops, &w, &mut op_rng);
            }
            let share = total * (k + 1) / n_cycles - total * k / n_cycles;
            for t in rollups.by_ref().take(share) {
                read(OpType::Rollup, t, &mut ops, &w, &mut op_rng);
            }
        }
    }

    let mut after_reopen: Vec<(String, Vec<Row>)> = ROLLUPS
        .iter()
        .map(|t| {
            let spec = template(t, &mut op_rng);
            (spec.sql(), spec.eval(&w))
        })
        .collect();
    let count = Spec {
        join: Join::None,
        filters: Vec::new(),
        group: Vec::new(),
        aggs: vec![(AggFn::Count, Col::CallId)],
    };
    after_reopen.push((count.sql(), count.eval(&w)));
    Plan {
        setup,
        warmup,
        ops,
        rounds,
        after_reopen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_have_a_fixed_make_up() {
        for wl in [Workload::Ingest, Workload::ShardedMixed] {
            let counts = |seed| {
                let p = plan(wl, seed, 30);
                let mut c = [0usize; 5];
                for op in &p.ops {
                    c[OpType::ALL.iter().position(|t| *t == op.ty()).unwrap()] += 1;
                }
                c
            };
            assert_eq!(counts(1), counts(2), "{wl:?}");
        }
    }
}
