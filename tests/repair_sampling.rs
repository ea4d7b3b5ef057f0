//! Sampled repairs: a soundness oracle for range answers at TPC-H sizes,
//! where enumerating every repair is out of reach. For plain and annotated
//! Q1 and Q6 (SF 0.01, p = 5 %, n = 2), every repair R drawn — 16 at
//! random, and per (group, aggregate, direction) the adversary that keeps
//! each key's tuple with the least or greatest contribution to that group —
//! must hold each answer's group, with each aggregate inside the answer's
//! `[min, max]`. Over one relation the adversaries of SUM and COUNT are
//! exact: they reach each bound, bit for bit (both evaluators sum exactly).
//! The joins Q3, Q4, Q10 and Q12 (SF 0.002, p = 5 %, n = 2) are held to the
//! same over 16 random repairs, with no adversary: a tuple's contribution
//! to a group depends on the tuples the repair keeps in the other
//! relations, so a per-group pick is only a heuristic there. Q(R) is the
//! reference evaluator's, not the engine's; its nested loops set the joins'
//! scale.
//!
//! What it cannot catch: a group missing from the answers, or a bound too
//! wide (for joins, any bound); only repair enumeration can. Run it in
//! release: `cargo test --release -p conquer --test repair_sampling`.

use std::collections::HashMap;

use conquer::core::{AggKind, ProjItem};
use conquer::engine::value::Key;
use conquer::repair::RepairEnumerator;
use conquer::sql::ast::Expr;
use conquer::tpch::{build_workload, WorkloadConfig, Q1, Q10, Q12, Q3, Q4, Q6};
use conquer::{
    analyze, consistent_answers, consistent_answers_annotated, parse_query, ConstraintSet,
    Database, TreeQuery, Value,
};

/// Per tuple of the query's one relation that satisfies its WHERE: its
/// group values and each aggregate's argument (`1` for `COUNT(*)`).
type Contributions = HashMap<Key, (Vec<Value>, Vec<Value>)>;

fn contributions(db: &Database, tq: &TreeQuery, args: &[Option<&Expr>]) -> Contributions {
    let rel = &tq.relations[0];
    let groups = tq.group_by.iter().map(|c| Expr::Column(c.clone()));
    let args = args.iter().map(|a| a.map_or(Expr::int(1), Expr::clone));
    let select: Vec<String> = groups.chain(args).map(|e| e.to_string()).collect();
    let sql = format!(
        "select *, {} from {} {} where {}",
        select.join(", "),
        rel.table,
        rel.binding,
        Expr::conjoin(tq.selection.iter().cloned()).unwrap()
    );
    let width = db.table(&rel.table).unwrap().schema().columns.len();
    let (g, rows) = (
        width + tq.group_by.len(),
        conquer_reference::evaluate_sql(db, &sql).unwrap(),
    );
    let split = |r: &[Value]| {
        (
            Key::from_values(&r[..width]),
            (r[width..g].to_vec(), r[g..].to_vec()),
        )
    };
    rows.rows.iter().map(|r| split(r)).collect()
}

/// What `tuple` adds to aggregate `i` of `group` in a repair that keeps it.
fn contribution(by_tuple: &Contributions, tuple: &[Value], group: &[Value], i: usize) -> f64 {
    match by_tuple.get(&Key::from_values(tuple)) {
        Some((g, args)) if g[..] == group[..] => args[i].as_f64().unwrap().unwrap_or(0.0),
        _ => 0.0,
    }
}

#[test]
fn sampled_and_adversarial_repairs_fall_within_the_range_answers() {
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.01,
        p: 0.05,
        n: 2,
        seed: 7,
        threads: 2,
        annotate: true,
    });
    // The repairs of `lineitem`, the one relation Q1 and Q6 read.
    let sigma =
        ConstraintSet::new().with_key("lineitem", w.sigma.key_of("lineitem").unwrap().to_vec());
    let lineitem = Database::new();
    lineitem
        .register((*w.db.table("lineitem").unwrap()).clone())
        .unwrap();
    let repairs = RepairEnumerator::new(&lineitem, &sigma, u128::MAX).unwrap();
    for q in [Q1, Q6] {
        let tq = analyze(&parse_query(q.sql).unwrap(), &w.sigma).unwrap();
        let groups = tq.group_by.len();
        let aggs: Vec<(AggKind, Option<&Expr>)> = tq
            .projection
            .iter()
            .filter_map(|p| match p {
                ProjItem::Aggregate { kind, arg, .. } => Some((*kind, arg.as_ref())),
                ProjItem::Plain { .. } => None,
            })
            .collect();
        let exact = |i: usize| {
            matches!(
                aggs[i].0,
                AggKind::Sum | AggKind::Count | AggKind::CountStar
            )
        };
        let by_tuple = contributions(&w.db, &tq, &aggs.iter().map(|a| a.1).collect::<Vec<_>>());
        let answers = [
            consistent_answers(&w.db, q.sql, &w.sigma).unwrap(),
            consistent_answers_annotated(&w.db, q.sql, &w.sigma).unwrap(),
        ];
        // Every answer holds in repair `digits`; an adversary aimed at
        // (group, aggregate, greatest) of a SUM or COUNT reaches that bound.
        let check = |digits: &[usize], aim: Option<(&[Value], usize, bool)>| {
            let repair = repairs.repair_at(digits).unwrap();
            let got = conquer_reference::evaluate_sql(repair, q.sql).unwrap();
            for (answer, strategy) in answers.iter().zip(["rewritten", "annotated"]) {
                for row in &answer.rows {
                    let group = &row[..groups];
                    let what = format!("{} {strategy} {group:?}", q.name());
                    let Some(value) = got.rows.iter().find(|r| r[..groups] == *group) else {
                        panic!("{what}: the group is missing from a repair");
                    };
                    for i in 0..aggs.len() {
                        let (lo, hi) = (&row[groups + 2 * i], &row[groups + 2 * i + 1]);
                        let v = &value[groups + i];
                        let num = |x: &Value| x.as_f64().unwrap().unwrap();
                        assert!(
                            num(lo) <= num(v) && num(v) <= num(hi),
                            "{what} #{i}: {v} outside [{lo}, {hi}]"
                        );
                        if let Some((g, j, greatest)) = aim {
                            if g == group && j == i && exact(i) {
                                let bound = if greatest { hi } else { lo };
                                assert_eq!(v, bound, "{what} #{i}: the adversary misses it");
                            }
                        }
                    }
                }
            }
        };
        for digits in repairs.sample(16, q.number.into()) {
            check(&digits, None);
        }
        for row in &answers[0].rows {
            let group = &row[..groups];
            for i in 0..aggs.len() {
                for greatest in [false, true] {
                    let score = |_: &str, t: &Vec<Value>| contribution(&by_tuple, t, group, i);
                    check(
                        &repairs.extreme(greatest, score),
                        Some((group, i, greatest)),
                    );
                }
            }
        }
    }
}

/// `sql` without its ORDER BY and LIMIT: under a top-N cut, whether a group
/// is in the answer says nothing about the repairs.
fn unordered(sql: &str) -> String {
    let mut query = parse_query(sql).unwrap();
    query.order_by.clear();
    query.limit = None;
    query.to_string()
}

#[test]
fn sampled_repairs_fall_within_the_join_range_answers() {
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.002,
        p: 0.05,
        n: 2,
        seed: 7,
        threads: 2,
        annotate: true,
    });
    // The repairs of the relations the four statements read.
    let (read, mut sigma) = (Database::new(), ConstraintSet::new());
    for table in ["customer", "orders", "lineitem", "nation"] {
        read.register((*w.db.table(table).unwrap()).clone())
            .unwrap();
        sigma = sigma.with_key(table, w.sigma.key_of(table).unwrap().to_vec());
    }
    let repairs = RepairEnumerator::new(&read, &sigma, u128::MAX).unwrap();
    for q in [Q3, Q4, Q10, Q12] {
        let sql = unordered(q.sql);
        let tq = analyze(&parse_query(&sql).unwrap(), &w.sigma).unwrap();
        // Each item's column in Q(R) and (first) column in an answer, where
        // an aggregate takes two: its `[min, max]`.
        let (mut in_repair, mut in_answer, mut aggs, mut at) = (vec![], vec![], vec![], 0);
        for (i, item) in tq.projection.iter().enumerate() {
            if let ProjItem::Aggregate { .. } = item {
                aggs.push((i, at));
                at += 2;
            } else {
                in_repair.push(i);
                in_answer.push(at);
                at += 1;
            }
        }
        let group = |row: &[Value], columns: &[usize]| -> Vec<Value> {
            columns.iter().map(|&c| row[c].clone()).collect()
        };
        let answers = [
            consistent_answers(&w.db, &sql, &w.sigma).unwrap(),
            consistent_answers_annotated(&w.db, &sql, &w.sigma).unwrap(),
        ];
        for digits in repairs.sample(16, q.number.into()) {
            let got =
                conquer_reference::evaluate_sql(repairs.repair_at(&digits).unwrap(), &sql).unwrap();
            let by_group: HashMap<Key, &[Value]> = got
                .rows
                .iter()
                .map(|r| (Key::from_values(&group(r, &in_repair)), &r[..]))
                .collect();
            for (answer, strategy) in answers.iter().zip(["rewritten", "annotated"]) {
                assert!(
                    !answer.rows.is_empty(),
                    "{} {strategy}: no answer",
                    q.name()
                );
                for row in &answer.rows {
                    let g = group(row, &in_answer);
                    let what = format!("{} {strategy} {g:?}", q.name());
                    let Some(value) = by_group.get(&Key::from_values(&g)) else {
                        panic!("{what}: the group is missing from a repair");
                    };
                    for &(i, at) in &aggs {
                        let (lo, hi, v) = (&row[at], &row[at + 1], &value[i]);
                        let num = |x: &Value| x.as_f64().unwrap().unwrap();
                        assert!(
                            num(lo) <= num(v) && num(v) <= num(hi),
                            "{what} #{i}: {v} outside [{lo}, {hi}]"
                        );
                    }
                }
            }
        }
    }
}
