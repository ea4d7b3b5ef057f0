//! Randomized tests: on *random* inconsistent databases and a family of
//! random tree queries, the rewriting must agree exactly with brute-force
//! repair enumeration. This is the strongest correctness evidence in the
//! repository: Theorems 1 and 2 checked on hundreds of instances.
//!
//! Instances are drawn from the workspace's deterministic RNG
//! (`conquer::tpch::rng`) with fixed seeds, so every run checks the same
//! cases and a failure names the seed that produced it.

use conquer::engine::DataType;
use conquer::tpch::rng::StdRng;
use conquer::{
    consistent_answers, consistent_answers_oracle, range_consistent_oracle, ConstraintSet,
    Database, Table, Value,
};

const CASES: u64 = 200;

/// A small random table r(k, a, b): keys in 0..4 so that duplicate keys
/// (inconsistency) arise often, attribute values in 0..4.
fn table_r(rng: &mut StdRng) -> Vec<(i64, i64, i64)> {
    let n = rng.gen_range(0..10usize);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..4i64),
                rng.gen_range(0..4i64),
                rng.gen_range(0..4i64),
            )
        })
        .collect()
}

/// A second table s(k, c) to join against.
fn table_s(rng: &mut StdRng) -> Vec<(i64, i64)> {
    let n = rng.gen_range(0..8usize);
    (0..n)
        .map(|_| (rng.gen_range(0..4i64), rng.gen_range(0..4i64)))
        .collect()
}

fn build_db(r: &[(i64, i64, i64)], s: Option<&[(i64, i64)]>) -> Database {
    let db = Database::new();
    let mut tr = Table::new(
        "r",
        vec![
            ("k", DataType::Integer),
            ("a", DataType::Integer),
            ("b", DataType::Integer),
        ],
    );
    tr.extend_unchecked(
        r.iter()
            .map(|(k, a, b)| vec![Value::Int(*k), Value::Int(*a), Value::Int(*b)]),
    );
    db.register(tr).unwrap();
    if let Some(s) = s {
        let mut ts = Table::new(
            "s",
            vec![("k", DataType::Integer), ("c", DataType::Integer)],
        );
        ts.extend_unchecked(s.iter().map(|(k, c)| vec![Value::Int(*k), Value::Int(*c)]));
        db.register(ts).unwrap();
    }
    db
}

fn sigma_r() -> ConstraintSet {
    ConstraintSet::new().with_key("r", ["k"])
}

fn sigma_rs() -> ConstraintSet {
    ConstraintSet::new()
        .with_key("r", ["k"])
        .with_key("s", ["k"])
}

fn sorted(rows: &conquer::Rows) -> Vec<Vec<String>> {
    let mut v: Vec<Vec<String>> = rows
        .rows
        .iter()
        .map(|row| row.iter().map(ToString::to_string).collect())
        .collect();
    v.sort();
    v
}

fn check_join_query(db: &Database, q: &str, sigma: &ConstraintSet, case: u64) {
    let rewritten = consistent_answers(db, q, sigma)
        .unwrap_or_else(|e| panic!("rewrite failed for {q} (case {case}): {e}"));
    let oracle = consistent_answers_oracle(db, q, sigma)
        .unwrap_or_else(|e| panic!("oracle failed for {q} (case {case}): {e}"));
    assert_eq!(
        sorted(&rewritten),
        sorted(&oracle),
        "query: {q} (case {case})"
    );
}

/// Theorem 1 on a single relation: key projection, non-key projection,
/// and mixed selections.
#[test]
fn single_relation_join_queries_match_oracle() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x51A6_0000 + case);
        let rows = table_r(&mut rng);
        let threshold = rng.gen_range(0..4i64);
        let db = build_db(&rows, None);
        let sigma = sigma_r();
        for q in [
            format!("select r.k from r where r.a > {threshold}"),
            format!("select r.a from r where r.b >= {threshold}"),
            format!("select r.k, r.b from r where r.a <= {threshold}"),
            "select r.a, r.b from r".to_string(),
        ] {
            check_join_query(&db, &q, &sigma, case);
        }
    }
}

/// Theorem 1 across a non-key-to-key join r.b -> s.k.
#[test]
fn two_relation_join_queries_match_oracle() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2E1A_0000 + case);
        let r_rows = table_r(&mut rng);
        let s_rows = table_s(&mut rng);
        let threshold = rng.gen_range(0..4i64);
        let db = build_db(&r_rows, Some(&s_rows));
        let sigma = sigma_rs();
        for q in [
            format!("select r.k from r, s where r.b = s.k and s.c > {threshold}"),
            format!("select r.a from r, s where r.b = s.k and s.c <= {threshold}"),
            "select s.c from r, s where r.b = s.k".to_string(),
        ] {
            check_join_query(&db, &q, &sigma, case);
        }
    }
}

/// Theorem 1 across a key-to-key join r.k = s.k.
#[test]
fn key_to_key_join_queries_match_oracle() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x4E14_0000 + case);
        let r_rows = table_r(&mut rng);
        let s_rows = table_s(&mut rng);
        let threshold = rng.gen_range(0..4i64);
        let db = build_db(&r_rows, Some(&s_rows));
        let sigma = sigma_rs();
        for q in [
            format!("select r.k from r, s where r.k = s.k and r.a > {threshold}"),
            format!("select r.a from r, s where r.k = s.k and s.c > {threshold}"),
        ] {
            check_join_query(&db, &q, &sigma, case);
        }
    }
}

/// Theorem 2: SUM/COUNT/MIN/MAX ranges on grouped single-relation
/// queries match the oracle exactly (values may be negative for SUM).
#[test]
fn aggregate_ranges_match_oracle() {
    const AGGS: [&str; 4] = ["sum", "count", "min", "max"];
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA66A_0000 + case);
        let n = rng.gen_range(1..10usize);
        let rows: Vec<(i64, i64, i64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..4i64),
                    rng.gen_range(0..3i64),
                    rng.gen_range(-3..4i64),
                )
            })
            .collect();
        let threshold = rng.gen_range(-3..4i64);
        let agg = AGGS[rng.gen_range(0..AGGS.len())];

        let db = Database::new();
        let mut t = Table::new(
            "r",
            vec![
                ("k", DataType::Integer),
                ("g", DataType::Integer),
                ("v", DataType::Integer),
            ],
        );
        t.extend_unchecked(
            rows.iter()
                .map(|(k, g, v)| vec![Value::Int(*k), Value::Int(*g), Value::Int(*v)]),
        );
        db.register(t).unwrap();
        let sigma = sigma_r();

        let agg_expr = if agg == "count" {
            "count(*)".to_string()
        } else {
            format!("{agg}(r.v)")
        };
        let q = format!("select r.g, {agg_expr} as x from r where r.v >= {threshold} group by r.g");
        let rewritten = consistent_answers(&db, &q, &sigma)
            .unwrap_or_else(|e| panic!("rewrite failed for {q}: {e}"));
        let oracle = range_consistent_oracle(&db, &q, &sigma, 1)
            .unwrap_or_else(|e| panic!("oracle failed for {q}: {e}"));

        let mut rewritten_view: Vec<(String, String, String)> = rewritten
            .rows
            .iter()
            .map(|r| (r[0].to_string(), r[1].to_string(), r[2].to_string()))
            .collect();
        let mut oracle_view: Vec<(String, String, String)> = oracle
            .iter()
            .map(|a| {
                (
                    a.group[0].to_string(),
                    a.ranges[0].0.to_string(),
                    a.ranges[0].1.to_string(),
                )
            })
            .collect();
        // Group order is first-seen for the rewriting and sorted for the
        // oracle; compare as sets of rows.
        rewritten_view.sort();
        oracle_view.sort();
        assert_eq!(rewritten_view, oracle_view, "query: {q} (case {case})");
    }
}

/// Theorem 2 across a join: grouped SUM over r joined to s.
#[test]
fn joined_aggregate_ranges_match_oracle() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x701A_0000 + case);
        let nr = rng.gen_range(1..8usize);
        let r_rows: Vec<(i64, i64, i64)> = (0..nr)
            .map(|_| {
                (
                    rng.gen_range(0..3i64),
                    rng.gen_range(0..3i64),
                    rng.gen_range(0..4i64),
                )
            })
            .collect();
        let ns = rng.gen_range(1..6usize);
        let s_rows: Vec<(i64, i64)> = (0..ns)
            .map(|_| (rng.gen_range(0..3i64), rng.gen_range(0..3i64)))
            .collect();

        let db = Database::new();
        let mut tr = Table::new(
            "r",
            vec![
                ("k", DataType::Integer),
                ("fk", DataType::Integer),
                ("v", DataType::Integer),
            ],
        );
        tr.extend_unchecked(
            r_rows
                .iter()
                .map(|(k, f, v)| vec![Value::Int(*k), Value::Int(*f), Value::Int(*v)]),
        );
        db.register(tr).unwrap();
        let mut ts = Table::new(
            "s",
            vec![("k", DataType::Integer), ("g", DataType::Integer)],
        );
        ts.extend_unchecked(
            s_rows
                .iter()
                .map(|(k, g)| vec![Value::Int(*k), Value::Int(*g)]),
        );
        db.register(ts).unwrap();
        let sigma = sigma_rs();

        let q = "select s.g, sum(r.v) as x from r, s where r.fk = s.k group by s.g";
        let rewritten = consistent_answers(&db, q, &sigma)
            .unwrap_or_else(|e| panic!("rewrite failed (case {case}): {e}"));
        let oracle = range_consistent_oracle(&db, q, &sigma, 1)
            .unwrap_or_else(|e| panic!("oracle failed (case {case}): {e}"));

        let mut rewritten_view: Vec<(String, String, String)> = rewritten
            .rows
            .iter()
            .map(|r| (r[0].to_string(), r[1].to_string(), r[2].to_string()))
            .collect();
        let mut oracle_view: Vec<(String, String, String)> = oracle
            .iter()
            .map(|a| {
                (
                    a.group[0].to_string(),
                    a.ranges[0].0.to_string(),
                    a.ranges[0].1.to_string(),
                )
            })
            .collect();
        rewritten_view.sort();
        oracle_view.sort();
        assert_eq!(rewritten_view, oracle_view, "case {case}");
    }
}

/// The annotated rewriting always agrees with the plain one.
#[test]
fn annotated_rewriting_agrees_with_plain() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA110_0000 + case);
        let rows = table_r(&mut rng);
        let threshold = rng.gen_range(0..4i64);
        let db = build_db(&rows, None);
        let sigma = sigma_r();
        let q = format!("select r.k, r.a from r where r.b > {threshold}");
        let plain = consistent_answers(&db, &q, &sigma).unwrap();
        conquer::annotate_database(&db, &sigma).unwrap();
        let annotated = conquer::consistent_answers_annotated(&db, &q, &sigma).unwrap();
        assert_eq!(sorted(&plain), sorted(&annotated), "case {case}");
    }
}

/// `query` cut down to the body of its CTE `name`, over the CTEs before
/// it, with `edit` applied to that body's SQL text.
fn cte_rows(
    db: &Database,
    query: &conquer::sql::ast::Query,
    name: &str,
    edit: impl Fn(String) -> String,
) -> conquer::Rows {
    let at = query
        .ctes
        .iter()
        .position(|c| c.name == name)
        .unwrap_or_else(|| panic!("the rewriting has no CTE {name}:\n{query}"));
    let mut cut = conquer::parse_query(&edit(query.ctes[at].query.to_string())).unwrap();
    cut.ctes = query.ctes[..at].to_vec();
    db.execute_query(&cut).unwrap()
}

/// `rows` as strings, the first `width` columns split off as the key.
fn keyed(rows: &conquer::Rows, width: usize) -> Vec<(Vec<String>, Vec<String>)> {
    sorted(rows)
        .into_iter()
        .map(|mut row| {
            let rest = row.split_off(width);
            (row, rest)
        })
        .collect()
}

/// The split of `conq_base` (DESIGN.md §2.3), checked on one instance and
/// query under both strategies against the data and repair enumeration:
///
/// * every key of `conq_rest` has a violated key on a witness — a row of
///   the query's join whose tuple of some relation shares its key with
///   another tuple (counted here, not by the rewriting's SQL);
/// * `conq_pass` holds each key at most once, no key of `conq_rest`, and
///   each of its keys is certain with exact bounds: in every repair the
///   query's rows of that key, projected to the key and the answer columns
///   or to the key, the groups and SUM's argument (whose two bounds must
///   agree), are exactly its row;
/// * renaming `conq_rest` to `conq_base` in the Filter's candidates leaves
///   the Filter's rows unchanged, and those candidates are then every
///   candidate of the keys `conq_rest` holds: the split is by whole keys.
///
/// `db` must be annotated; the query is a join query or a SUM grouped by
/// columns, its clauses lower-case.
fn check_split(db: &Database, sigma: &ConstraintSet, q: &str, case: u64) {
    let parsed = conquer::parse_query(q).unwrap();
    let tq = conquer::analyze(&parsed, sigma).unwrap();
    let root = &tq.relations[tq.root];
    let key_len = root.key.len();
    let root_key: Vec<String> = root
        .key
        .iter()
        .map(|k| format!("{}.{k}", root.binding))
        .collect();
    let from = q[q.find(" from ").unwrap()..]
        .split(" group by ")
        .next()
        .unwrap();

    // The root keys with a violated key on a witness.
    let violated_roots: Vec<Vec<String>> = {
        let keys: Vec<String> = tq
            .relations
            .iter()
            .flat_map(|r| r.key.iter().map(move |k| format!("{}.{k}", r.binding)))
            .collect();
        let witnesses = sorted(
            &db.query(&format!("select {} {from}", keys.join(", ")))
                .unwrap(),
        );
        let mut at = 0;
        let mut violated_parts = Vec::new();
        for r in &tq.relations {
            let tuples = sorted(
                &db.query(&format!("select {} from {}", r.key.join(", "), r.table))
                    .unwrap(),
            );
            let violated: Vec<Vec<String>> = tuples
                .windows(2)
                .filter(|w| w[0] == w[1])
                .map(|w| w[0].clone())
                .collect();
            violated_parts.push((at..at + r.key.len(), violated));
            at += r.key.len();
        }
        let root_at = violated_parts[tq.root].0.clone();
        witnesses
            .iter()
            .filter(|w| {
                violated_parts
                    .iter()
                    .any(|(at, violated)| violated.contains(&w[at.clone()].to_vec()))
            })
            .map(|w| w[root_at.clone()].to_vec())
            .collect()
    };

    // The query's rows per repair, in the layout of the rewriting's rows.
    let columns = if tq.has_aggregates() {
        let arg = tq
            .projection
            .iter()
            .find_map(|p| match p {
                conquer::core::ProjItem::Aggregate { arg, .. } => arg.clone(),
                conquer::core::ProjItem::Plain { .. } => None,
            })
            .expect("a SUM");
        let groups = tq.group_by.iter().map(ToString::to_string);
        root_key
            .iter()
            .cloned()
            .chain(groups)
            .chain([format!("coalesce({arg}, 0)")])
            .collect::<Vec<_>>()
    } else {
        let items = tq.projection.iter().map(|p| match p {
            conquer::core::ProjItem::Plain { expr, .. } => expr.to_string(),
            conquer::core::ProjItem::Aggregate { .. } => unreachable!("a join query"),
        });
        root_key.iter().cloned().chain(items).collect()
    };
    let per_repair = format!("select {} {from}", columns.join(", "));
    let mut repairs = Vec::new();
    conquer::RepairEnumerator::new(db, sigma, 1 << 16)
        .unwrap()
        .for_each_repair(|repair| {
            repairs.push(keyed(&repair.query(&per_repair)?, key_len));
            Ok(())
        })
        .unwrap();

    let (candidates, filter) = ("conq_qg_candidates", "conq_qg_filter");
    for annotated in [false, true] {
        let what = format!("{q} (case {case}, annotated={annotated})");
        let rewritten =
            conquer::rewrite(&parsed, sigma, &conquer::RewriteOptions { annotated }).unwrap();
        let mut rest_keys: Vec<Vec<String>> =
            keyed(&cte_rows(db, &rewritten, "conq_rest", |sql| sql), key_len)
                .into_iter()
                .map(|(key, _)| key)
                .collect();
        rest_keys.dedup();
        for key in &rest_keys {
            assert!(
                violated_roots.contains(key),
                "{what}: {key:?} in conq_rest, violated nowhere"
            );
        }

        let passed: Vec<(Vec<String>, Vec<String>)> =
            keyed(&cte_rows(db, &rewritten, "conq_pass", |sql| sql), key_len)
                .into_iter()
                .map(|(key, mut row)| {
                    if tq.has_aggregates() {
                        let hi = row.pop().unwrap();
                        assert_eq!(
                            row.last(),
                            Some(&hi),
                            "{what}: {key:?} passes with two bounds"
                        );
                    }
                    (key, row)
                })
                .collect();
        for pair in passed.windows(2) {
            assert_ne!(pair[0].0, pair[1].0, "{what}: a key passes twice");
        }
        for (key, row) in &passed {
            assert!(
                !rest_keys.contains(key),
                "{what}: {key:?} both passes and is in conq_rest"
            );
            for repair in &repairs {
                let of_key: Vec<&Vec<String>> = repair
                    .iter()
                    .filter(|(k, _)| k == key)
                    .map(|(_, r)| r)
                    .collect();
                assert_eq!(
                    of_key,
                    [row],
                    "{what}: {key:?} passes, but not so in a repair"
                );
            }
        }

        let filtered = sorted(&cte_rows(db, &rewritten, filter, |sql| sql));
        let at = rewritten
            .ctes
            .iter()
            .position(|c| c.name == candidates)
            .unwrap();
        let mut over_base = rewritten.clone();
        let text = over_base.ctes[at]
            .query
            .to_string()
            .replace("conq_rest", "conq_base");
        over_base.ctes[at].query = conquer::parse_query(&text).unwrap();
        assert_eq!(
            filtered,
            sorted(&cte_rows(db, &over_base, filter, |sql| sql)),
            "{what}: the Filter over conq_rest's candidates vs over every candidate"
        );
        let of_rest_keys: Vec<Vec<String>> =
            sorted(&cte_rows(db, &over_base, candidates, |sql| sql))
                .into_iter()
                .filter(|cand| rest_keys.contains(&cand[..key_len].to_vec()))
                .collect();
        assert_eq!(
            sorted(&cte_rows(db, &rewritten, candidates, |sql| sql)),
            of_rest_keys,
            "{what}: conq_rest holds part of a key"
        );
    }
}

/// A random instance of the join tree `r → s → u` with the key-to-key
/// co-root `t` of `r`: `r(k, a, b)`, `s(k, c, f)`, `u(k, d)`, `t(k, e)`,
/// `b` and `f` the foreign keys. Every relation starts consistent; the
/// scenario then places the conflicts — and the NULL foreign keys — where
/// one rule of the suspects' argument is the only one at work; the last puts
/// NULLs in key attributes, which both strategies refuse.
fn tree_db(rng: &mut StdRng, scenario: u64) -> Database {
    const R: usize = 0;
    const S: usize = 1;
    const U: usize = 2;
    const T: usize = 3;
    let widths = [3, 3, 2, 2];
    let mut tables: Vec<Vec<Vec<Value>>> = widths
        .iter()
        .map(|width| {
            (0..rng.gen_range(2..5i64))
                .map(|k| {
                    let mut row = vec![Value::Int(k)];
                    row.extend((1..*width).map(|_| Value::Int(rng.gen_range(0..4i64))));
                    row
                })
                .collect()
        })
        .collect();
    // `copies` more tuples under the key of a random tuple of `rel`.
    let mut violate = |tables: &mut Vec<Vec<Vec<Value>>>, rel: usize, copies: usize| {
        let at = rng.gen_range(0..tables[rel].len());
        for _ in 0..copies {
            let mut row = vec![tables[rel][at][0].clone()];
            row.extend((1..widths[rel]).map(|_| Value::Int(rng.gen_range(0..4i64))));
            tables[rel].push(row);
        }
    };
    match scenario {
        0 => violate(&mut tables, R, 1),
        1 => violate(&mut tables, U, 1), // a leaf two hops from the root
        2 => violate(&mut tables, T, 1), // the co-root
        3 => {
            // Groups of three.
            violate(&mut tables, S, 2);
            violate(&mut tables, R, 2);
        }
        _ => {
            for rel in [R, S, U, T] {
                violate(&mut tables, rel, 1);
            }
        }
    }
    if scenario == 5 {
        // NULL foreign keys: a tuple that joins nothing.
        tables[R][0][2] = Value::Null;
        let last = tables[S].len() - 1;
        tables[S][last][2] = Value::Null;
    }
    if scenario == NULL_KEY_SCENARIO {
        // NULL key attributes, the root's included.
        for rel in [R, S, U, T] {
            let at = rng.gen_range(0..tables[rel].len());
            tables[rel][at][0] = Value::Null;
        }
        let mut row = tables[R][0].clone();
        row[0] = Value::Null;
        tables[R].push(row);
    }
    let db = Database::new();
    let names = [
        ("r", ["k", "a", "b"].as_slice()),
        ("s", ["k", "c", "f"].as_slice()),
        ("u", ["k", "d"].as_slice()),
        ("t", ["k", "e"].as_slice()),
    ];
    for ((name, columns), rows) in names.into_iter().zip(tables) {
        let columns = columns.iter().map(|c| (*c, DataType::Integer)).collect();
        let mut table = Table::new(name, columns);
        table.extend_unchecked(rows);
        db.register(table).unwrap();
    }
    db
}

const TREE_SCENARIOS: u64 = 7;
const NULL_KEY_SCENARIO: u64 = 6;

/// Both strategies refuse each of `queries` over a tree whose every relation
/// holds a NULL key, naming the first relation of its FROM clause, `r`.
fn check_null_keys_refused(db: &Database, sigma: &ConstraintSet, queries: &[String], case: u64) {
    let refused = conquer::RewriteError::NullKey("r".into());
    for q in queries {
        let plain = consistent_answers(db, q, sigma).unwrap_err();
        assert_eq!(plain, refused, "{q} (case {case})");
    }
    conquer::annotate_database(db, sigma).unwrap();
    for q in queries {
        let annotated = conquer::consistent_answers_annotated(db, q, sigma).unwrap_err();
        assert_eq!(annotated, refused, "annotated: {q} (case {case})");
    }
}

/// [`check_split`] over a single relation and over random trees of two
/// to four relations, whose join queries also match repair enumeration;
/// [`check_null_keys_refused`] over trees with NULL keys.
#[test]
fn suspects_cover_everything_the_filter_can_emit() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5A5B_0000 + case);
        let rows = table_r(&mut rng);
        let threshold = rng.gen_range(0..4i64);
        let db = build_db(&rows, None);
        let sigma = sigma_r();
        conquer::annotate_database(&db, &sigma).unwrap();
        let q = format!("select r.k, r.a from r where r.b > {threshold}");
        check_split(&db, &sigma, &q, case);
        let q = format!("select r.a, sum(r.b) as x from r where r.b >= {threshold} group by r.a");
        check_split(&db, &sigma, &q, case);
    }

    let sigma = ["r", "s", "u", "t"]
        .into_iter()
        .fold(ConstraintSet::new(), |sigma, rel| {
            sigma.with_key(rel, ["k"])
        });
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5A5C_0000 + case);
        let scenario = case % TREE_SCENARIOS;
        let db = tree_db(&mut rng, scenario);
        let th = rng.gen_range(0..4i64);
        let joins = [
            format!("select r.k, r.a from r, s where r.b = s.k and s.c > {th}"),
            format!("select r.k, r.a from r, t where r.k = t.k and t.e > {th}"),
            format!("select r.k, r.a from r, s, u where r.b = s.k and s.f = u.k and u.d >= {th}"),
            format!(
                "select r.k, r.a, u.d from r, t, s, u \
                 where r.k = t.k and r.b = s.k and s.f = u.k and t.e >= {th}"
            ),
        ];
        let agg = format!(
            "select r.a, sum(u.d) as x from r, s, u \
             where r.b = s.k and s.f = u.k and s.c >= {th} group by r.a"
        );
        if scenario == NULL_KEY_SCENARIO {
            let queries: Vec<String> = joins.into_iter().chain([agg]).collect();
            check_null_keys_refused(&db, &sigma, &queries, case);
            continue;
        }
        conquer::annotate_database(&db, &sigma).unwrap();
        for q in &joins {
            // NULL foreign keys (scenario 5) are answered, as the oracle has it.
            check_join_query(&db, q, &sigma, case);
            check_split(&db, &sigma, q, case);
        }
        check_split(&db, &sigma, &agg, case);
    }
}

/// The SQL printer round-trips every rewriting this family produces.
#[test]
fn rewriting_sql_round_trips() {
    const AGGS: [&str; 3] = ["sum", "min", "max"];
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5019_0000 + case);
        let threshold = rng.gen_range(0..4i64);
        let agg = AGGS[rng.gen_range(0..AGGS.len())];
        let sigma = sigma_rs();
        for q in [
            format!("select r.k from r, s where r.b = s.k and s.c > {threshold}"),
            format!("select r.a, {agg}(r.b) as x from r where r.k >= {threshold} group by r.a"),
        ] {
            let parsed = conquer::parse_query(&q).unwrap();
            let rewritten =
                conquer::rewrite(&parsed, &sigma, &conquer::RewriteOptions::default()).unwrap();
            let text = rewritten.to_string();
            let reparsed =
                conquer::parse_query(&text).unwrap_or_else(|e| panic!("bad SQL: {e}\n{text}"));
            assert_eq!(reparsed, rewritten, "case {case}");
        }
    }
}
