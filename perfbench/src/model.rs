//! The benchmark's own model of the telephony warehouse (the paper's
//! Example 1.1): the rows it generated, inserted and deleted, and a plain
//! hash-aggregation evaluator for the query shapes it sends. Expected
//! answers come from here, never from the program under test.

use crate::rng::Rng;
use aggview::engine::{Relation, Value};
use std::collections::HashMap;

/// Sizes of the generated warehouse.
pub const N_CALLS: i64 = 50_000;
pub const N_CUSTOMERS: i64 = 1_000;
pub const N_PLANS: i64 = 12;
pub const YEARS: [i64; 3] = [1994, 1995, 1996];
pub const N_AREAS: i64 = 40;
pub const N_ADJUSTMENTS: i64 = 100;
/// Customers the `Adjustments` rows (and so the groups of its view) cover.
pub const ADJ_CUSTOMERS: i64 = 20;

/// One `Calls` row: `(Call_Id, Cust_Id, Plan_Id, Day, Month, Year, Charge)`.
pub type Call = [i64; 7];

#[derive(Debug, Clone, Default)]
pub struct Warehouse {
    pub calls: Vec<Call>,
    /// `(Cust_Id, Area_Code)`; the name and phone number follow from the id.
    pub customers: Vec<(i64, i64)>,
    /// `(Adj_Id, Cust_Id, Amount)`.
    pub adjustments: Vec<(i64, i64, i64)>,
    /// Highest `Call_Id` handed out so far.
    pub max_call_id: i64,
}

pub fn plan_name(plan: i64) -> String {
    format!("plan_{plan:02}")
}

/// A random call with the given id, drawn like the bulk-loaded ones.
pub fn random_call(rng: &mut Rng, id: i64) -> Call {
    [
        id,
        rng.range(1, N_CUSTOMERS),
        rng.range(1, N_PLANS),
        rng.range(1, 28),
        rng.range(1, 12),
        YEARS[rng.below(YEARS.len())],
        rng.range(1, 999),
    ]
}

impl Warehouse {
    /// The initial warehouse for a seed.
    pub fn generate(rng: &mut Rng) -> Self {
        let customers = (1..=N_CUSTOMERS)
            .map(|c| (c, 200 + rng.range(0, N_AREAS - 1)))
            .collect();
        let calls = (1..=N_CALLS).map(|id| random_call(rng, id)).collect();
        let adjustments = (1..=N_ADJUSTMENTS)
            .map(|id| (id, 1 + (id - 1) % ADJ_CUSTOMERS, rng.range(-500, 500)))
            .collect();
        Warehouse {
            calls,
            customers,
            adjustments,
            max_call_id: N_CALLS,
        }
    }

    pub fn delete_calls(&mut self, lo: i64, hi: i64) -> usize {
        let before = self.calls.len();
        self.calls.retain(|c| !(lo <= c[0] && c[0] < hi));
        before - self.calls.len()
    }
}

/// Columns the query shapes refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Col {
    CallId,
    Cust,
    Plan,
    Day,
    Month,
    Year,
    Charge,
    PlanName,
    AreaCode,
}

impl Col {
    fn name(self, join: Join) -> &'static str {
        match (self, join) {
            (Col::Plan, Join::Plans) => "Calling_Plans.Plan_Id",
            (Col::Cust, Join::Customer) => "Calls.Cust_Id",
            (Col::CallId, _) => "Call_Id",
            (Col::Cust, _) => "Cust_Id",
            (Col::Plan, _) => "Plan_Id",
            (Col::Day, _) => "Day",
            (Col::Month, _) => "Month",
            (Col::Year, _) => "Year",
            (Col::Charge, _) => "Charge",
            (Col::PlanName, _) => "Plan_Name",
            (Col::AreaCode, _) => "Area_Code",
        }
    }
}

/// Which dimension table, if any, `Calls` joins with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Join {
    None,
    Plans,
    Customer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Eq,
    Ge,
    Le,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    Sum,
    Count,
    Min,
    Max,
    Avg,
}

/// A single-block aggregate query over `Calls` (optionally joined with one
/// dimension table): rendered to SQL for the program, evaluated here for
/// the expected answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub join: Join,
    pub filters: Vec<(Col, Cmp, i64)>,
    pub group: Vec<Col>,
    pub aggs: Vec<(AggFn, Col)>,
}

impl Spec {
    pub fn sql(&self) -> String {
        let mut items: Vec<String> = self
            .group
            .iter()
            .map(|c| c.name(self.join).to_string())
            .collect();
        for (f, c) in &self.aggs {
            let f = match f {
                AggFn::Sum => "SUM",
                AggFn::Count => "COUNT",
                AggFn::Min => "MIN",
                AggFn::Max => "MAX",
                AggFn::Avg => "AVG",
            };
            items.push(format!("{f}({})", c.name(self.join)));
        }
        let mut sql = format!("SELECT {} FROM Calls", items.join(", "));
        let mut conds: Vec<String> = Vec::new();
        match self.join {
            Join::None => {}
            Join::Plans => {
                sql.push_str(", Calling_Plans");
                conds.push("Calls.Plan_Id = Calling_Plans.Plan_Id".into());
            }
            Join::Customer => {
                sql.push_str(", Customer");
                conds.push("Calls.Cust_Id = Customer.Cust_Id".into());
            }
        }
        for (c, op, v) in &self.filters {
            let op = match op {
                Cmp::Eq => "=",
                Cmp::Ge => ">=",
                Cmp::Le => "<=",
            };
            conds.push(format!("{} {op} {v}", c.name(self.join)));
        }
        if !conds.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&conds.join(" AND "));
        }
        if !self.group.is_empty() {
            let g: Vec<&str> = self.group.iter().map(|c| c.name(self.join)).collect();
            sql.push_str(" GROUP BY ");
            sql.push_str(&g.join(", "));
        }
        sql
    }

    /// The expected answer, by hash aggregation over the model.
    pub fn eval(&self, w: &Warehouse) -> Vec<Row> {
        let area: HashMap<i64, i64> = match self.join {
            Join::Customer => w.customers.iter().copied().collect(),
            _ => HashMap::new(),
        };
        let cell = |c: Col, call: &Call| -> Cell {
            match c {
                Col::CallId => Cell::I(call[0]),
                Col::Cust => Cell::I(call[1]),
                Col::Plan => Cell::I(call[2]),
                Col::Day => Cell::I(call[3]),
                Col::Month => Cell::I(call[4]),
                Col::Year => Cell::I(call[5]),
                Col::Charge => Cell::I(call[6]),
                Col::PlanName => Cell::S(plan_name(call[2])),
                Col::AreaCode => Cell::I(area[&call[1]]),
            }
        };
        let mut groups: HashMap<Vec<Cell>, Vec<Acc>> = HashMap::new();
        for call in &w.calls {
            let keep = self.filters.iter().all(|(c, op, v)| {
                let Cell::I(x) = cell(*c, call) else {
                    return false;
                };
                match op {
                    Cmp::Eq => x == *v,
                    Cmp::Ge => x >= *v,
                    Cmp::Le => x <= *v,
                }
            });
            if !keep {
                continue;
            }
            let key: Vec<Cell> = self.group.iter().map(|c| cell(*c, call)).collect();
            let accs = groups
                .entry(key)
                .or_insert_with(|| vec![Acc::default(); self.aggs.len()]);
            for (acc, (_, c)) in accs.iter_mut().zip(&self.aggs) {
                let Cell::I(x) = cell(*c, call) else {
                    unreachable!("aggregates are over integer columns");
                };
                acc.add(x);
            }
        }
        if groups.is_empty() && self.group.is_empty() {
            // An ungrouped aggregate over no rows still answers one row.
            groups.insert(Vec::new(), vec![Acc::default(); self.aggs.len()]);
        }
        groups
            .into_iter()
            .map(|(mut key, accs)| {
                for (acc, (f, _)) in accs.iter().zip(&self.aggs) {
                    key.push(acc.finish(*f));
                }
                key
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    sum: i64,
    count: i64,
    min: Option<i64>,
    max: Option<i64>,
}

impl Acc {
    fn add(&mut self, x: i64) {
        self.sum += x;
        self.count += 1;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    fn finish(&self, f: AggFn) -> Cell {
        match f {
            AggFn::Sum => Cell::I(self.sum),
            AggFn::Count => Cell::I(self.count),
            AggFn::Min => self.min.map_or(Cell::Null, Cell::I),
            AggFn::Max => self.max.map_or(Cell::Null, Cell::I),
            AggFn::Avg if self.count == 0 => Cell::Null,
            AggFn::Avg => Cell::d(self.sum as f64 / self.count as f64),
        }
    }
}

/// One answer value. Integers compare exactly, doubles within
/// [`REL_TOL`] relative.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cell {
    Null,
    I(i64),
    /// Stored as bits so rows can key hash maps; compared by value.
    D(OrdF64),
    S(String),
}

impl Cell {
    pub fn d(x: f64) -> Cell {
        Cell::D(OrdF64(x))
    }
}

/// An `f64` with a total order (for sorting answer rows).
#[derive(Debug, Clone, Copy)]
pub struct OrdF64(pub f64);

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0).is_eq()
    }
}
impl Eq for OrdF64 {}
impl std::hash::Hash for OrdF64 {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.0.to_bits().hash(h);
    }
}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

pub type Row = Vec<Cell>;

pub const REL_TOL: f64 = 1e-9;

/// The program's answer as model rows.
pub fn rows_of(rel: &Relation) -> Vec<Row> {
    rel.rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Int(i) => Cell::I(*i),
                    Value::Double(d) => Cell::d(*d),
                    Value::Str(s) => Cell::S(s.clone()),
                    Value::Bool(b) => Cell::S(b.to_string()),
                })
                .collect()
        })
        .collect()
}

fn cell_eq(a: &Cell, b: &Cell) -> bool {
    match (a, b) {
        (Cell::D(x), Cell::D(y)) => {
            let (x, y) = (x.0, y.0);
            x == y || (x - y).abs() <= REL_TOL * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

/// Bag (multiset) comparison: the same rows, each as often, in any order.
pub fn bag_eq(expected: &[Row], got: &[Row]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "{} row(s) expected, {} returned",
            expected.len(),
            got.len()
        ));
    }
    let mut e = expected.to_vec();
    let mut g = got.to_vec();
    e.sort();
    g.sort();
    for (x, y) in e.iter().zip(&g) {
        if x.len() != y.len() || !x.iter().zip(y).all(|(a, b)| cell_eq(a, b)) {
            return Err(format!("expected row {x:?}, got {y:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Warehouse {
        Warehouse {
            // (id, cust, plan, day, month, year, charge)
            calls: vec![
                [1, 1, 1, 3, 1, 1995, 120],
                [2, 2, 1, 12, 1, 1995, 250],
                [3, 1, 2, 5, 2, 1995, 75],
                [4, 3, 1, 20, 2, 1994, 60],
                [5, 2, 2, 7, 2, 1995, 310],
            ],
            customers: vec![(1, 201), (2, 202), (3, 201)],
            adjustments: Vec::new(),
            max_call_id: 5,
        }
    }

    #[test]
    fn papers_q_by_hand() {
        // Q: per plan, SUM(Charge) over 1995 calls, joined for the name.
        let q = Spec {
            join: Join::Plans,
            filters: vec![(Col::Year, Cmp::Eq, 1995)],
            group: vec![Col::Plan, Col::PlanName],
            aggs: vec![(AggFn::Sum, Col::Charge)],
        };
        assert_eq!(
            q.sql(),
            "SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) FROM Calls, Calling_Plans \
             WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995 \
             GROUP BY Calling_Plans.Plan_Id, Plan_Name"
        );
        let want = vec![
            vec![Cell::I(1), Cell::S("plan_01".into()), Cell::I(370)],
            vec![Cell::I(2), Cell::S("plan_02".into()), Cell::I(385)],
        ];
        bag_eq(&want, &q.eval(&tiny())).unwrap();
    }

    #[test]
    fn min_max_count_avg_and_customer_join() {
        let q = Spec {
            join: Join::Customer,
            filters: vec![(Col::Charge, Cmp::Ge, 70)],
            group: vec![Col::AreaCode],
            aggs: vec![
                (AggFn::Count, Col::Charge),
                (AggFn::Min, Col::Charge),
                (AggFn::Max, Col::Charge),
                (AggFn::Avg, Col::Charge),
            ],
        };
        // Area 201: customers 1 and 3 -> charges 120, 75 (60 filtered out).
        // Area 202: customer 2 -> 250, 310.
        let want = vec![
            vec![
                Cell::I(201),
                Cell::I(2),
                Cell::I(75),
                Cell::I(120),
                Cell::d(97.5),
            ],
            vec![
                Cell::I(202),
                Cell::I(2),
                Cell::I(250),
                Cell::I(310),
                Cell::d(280.0),
            ],
        ];
        bag_eq(&want, &q.eval(&tiny())).unwrap();
    }

    #[test]
    fn ungrouped_aggregate_over_nothing_is_one_row() {
        let q = Spec {
            join: Join::None,
            filters: vec![(Col::Year, Cmp::Eq, 2001)],
            group: vec![],
            aggs: vec![(AggFn::Count, Col::CallId)],
        };
        assert_eq!(q.eval(&tiny()), vec![vec![Cell::I(0)]]);
    }

    #[test]
    fn deletes_by_half_open_id_range() {
        let mut w = tiny();
        assert_eq!(w.delete_calls(2, 4), 2);
        let ids: Vec<i64> = w.calls.iter().map(|c| c[0]).collect();
        assert_eq!(ids, vec![1, 4, 5]);
    }

    #[test]
    fn bag_compare_ignores_order_but_not_multiplicity() {
        let a = vec![vec![Cell::I(1)], vec![Cell::I(1)], vec![Cell::I(2)]];
        let b = vec![vec![Cell::I(2)], vec![Cell::I(1)], vec![Cell::I(1)]];
        bag_eq(&a, &b).unwrap();
        let c = vec![vec![Cell::I(2)], vec![Cell::I(2)], vec![Cell::I(1)]];
        assert!(bag_eq(&a, &c).is_err());
        assert!(bag_eq(&a, &b[..2]).is_err());
    }

    #[test]
    fn doubles_within_relative_tolerance_ints_exact() {
        let x = 1234.5678;
        let close = x * (1.0 + 0.5e-9);
        let far = x * (1.0 + 5e-9);
        bag_eq(&[vec![Cell::d(x)]], &[vec![Cell::d(close)]]).unwrap();
        assert!(bag_eq(&[vec![Cell::d(x)]], &[vec![Cell::d(far)]]).is_err());
        assert!(bag_eq(&[vec![Cell::I(10)]], &[vec![Cell::I(11)]]).is_err());
        // An integer never matches a double, even of the same value.
        assert!(bag_eq(&[vec![Cell::I(10)]], &[vec![Cell::d(10.0)]]).is_err());
    }
}
