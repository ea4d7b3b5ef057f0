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

/// The Filter reads `conq_suspects` — the candidates one of whose
/// witnesses holds a tuple with a violated key — in place of all
/// candidates. Checked three ways on one instance and query: the Filter
/// emits only suspect keys; reading every candidate instead (the shape of
/// Figs. 5/8, recovered by renaming the CTE in the Filter's text) emits the
/// same rows; and, for a query whose answer rows are its candidates minus
/// the `key_len` leading key columns, by definition — against repair
/// enumeration — every candidate that is *not* a suspect is an answer in
/// every repair, so no Filter may remove it.
///
/// A Filter row holding a NULL matches no candidate (`=` is never true of
/// NULL), so such rows are left out of the comparison: over all candidates
/// the multiplicity branch can emit one, over the suspects it cannot.
fn check_suspects(
    db: &Database,
    sigma: &ConstraintSet,
    q: &str,
    (candidates, filter): (&str, &str),
    key_len: Option<usize>,
    case: u64,
) {
    let parsed = conquer::parse_query(q).unwrap();
    let rewritten = conquer::rewrite(&parsed, sigma, &conquer::RewriteOptions::default()).unwrap();
    let non_null = |rows: &conquer::Rows| -> Vec<Vec<String>> {
        let mut kept = sorted(rows);
        kept.retain(|row| !row.iter().any(|v| v == "NULL"));
        kept
    };
    let suspects = sorted(&cte_rows(db, &rewritten, "conq_suspects", |sql| sql));
    let filtered = cte_rows(db, &rewritten, filter, |sql| sql);
    for key in non_null(&filtered) {
        assert!(
            suspects.contains(&key),
            "{q} (case {case}): filtered key {key:?} is no suspect"
        );
    }
    let over_all_candidates = cte_rows(db, &rewritten, filter, |sql| {
        sql.replace("conq_suspects", candidates)
    });
    assert_eq!(
        non_null(&filtered),
        non_null(&over_all_candidates),
        "{q} (case {case}): the Filter over suspects vs over every candidate"
    );
    let Some(key_len) = key_len else { return };
    let certain = sorted(&consistent_answers_oracle(db, q, sigma).unwrap());
    for cand in sorted(&cte_rows(db, &rewritten, candidates, |sql| sql)) {
        let (key, answer) = cand.split_at(key_len);
        if !key.iter().any(|v| v == "NULL") && !suspects.contains(&key.to_vec()) {
            assert!(
                certain.contains(&answer.to_vec()),
                "{q} (case {case}): {cand:?} is no suspect, yet not certain"
            );
        }
    }
}

/// A random instance of the join tree `r → s → u` with the key-to-key
/// co-root `t` of `r`: `r(k, a, b)`, `s(k, c, f)`, `u(k, d)`, `t(k, e)`,
/// `b` and `f` the foreign keys. Every relation starts consistent; the
/// scenario then places the conflicts — and the NULLs — where one rule of
/// the suspects' argument is the only one at work.
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
    if scenario == 6 {
        // NULL key attributes, the root's included: tuples in no key group.
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

/// [`check_suspects`] over a single relation and over random trees of two
/// to four relations.
#[test]
fn suspects_cover_everything_the_filter_can_emit() {
    const JOIN: (&str, &str) = ("conq_candidates", "conq_filter");
    const AGG: (&str, &str) = ("conq_qg_candidates", "conq_qg_filter");
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5A5B_0000 + case);
        let rows = table_r(&mut rng);
        let threshold = rng.gen_range(0..4i64);
        let db = build_db(&rows, None);
        let sigma = sigma_r();
        let q = format!("select r.k, r.a from r where r.b > {threshold}");
        check_suspects(&db, &sigma, &q, JOIN, Some(1), case);
        let q = format!("select r.a, sum(r.b) as x from r where r.b >= {threshold} group by r.a");
        check_suspects(&db, &sigma, &q, AGG, None, case);
    }

    let sigma = ["r", "s", "u", "t"]
        .into_iter()
        .fold(ConstraintSet::new(), |sigma, rel| {
            sigma.with_key(rel, ["k"])
        });
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5A5C_0000 + case);
        let db = tree_db(&mut rng, case % TREE_SCENARIOS);
        let th = rng.gen_range(0..4i64);
        for q in [
            format!("select r.k, r.a from r, s where r.b = s.k and s.c > {th}"),
            format!("select r.k, r.a from r, t where r.k = t.k and t.e > {th}"),
            format!("select r.k, r.a from r, s, u where r.b = s.k and s.f = u.k and u.d >= {th}"),
            format!(
                "select r.k, r.a, u.d from r, t, s, u \
                 where r.k = t.k and r.b = s.k and s.f = u.k and t.e >= {th}"
            ),
        ] {
            check_suspects(&db, &sigma, &q, JOIN, Some(1), case);
        }
        let q = format!(
            "select r.a, sum(u.d) as x from r, s, u \
             where r.b = s.k and s.f = u.k and s.c >= {th} group by r.a"
        );
        check_suspects(&db, &sigma, &q, AGG, None, case);
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
