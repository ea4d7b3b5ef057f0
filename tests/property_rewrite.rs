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

/// Over a single relation the Filter reads `conq_suspects` — the
/// candidates whose key is violated — in place of all candidates. Checked
/// three ways per instance: the Filter emits only suspect keys; reading
/// every candidate instead (the shape of Figs. 5/8, recovered by renaming
/// the CTE in the Filter's text) emits the same rows; and by definition —
/// against repair enumeration — every candidate that is *not* a suspect is
/// an answer in every repair, so no Filter may remove it.
#[test]
fn suspects_cover_everything_the_filter_can_emit() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5A5B_0000 + case);
        let rows = table_r(&mut rng);
        let threshold = rng.gen_range(0..4i64);
        let db = build_db(&rows, None);
        let sigma = sigma_r();
        for (q, candidates, filter) in [
            (
                format!("select r.k, r.a from r where r.b > {threshold}"),
                "conq_candidates",
                "conq_filter",
            ),
            (
                format!("select r.a, sum(r.b) as x from r where r.b >= {threshold} group by r.a"),
                "conq_qg_candidates",
                "conq_qg_filter",
            ),
        ] {
            let parsed = conquer::parse_query(&q).unwrap();
            let rewritten =
                conquer::rewrite(&parsed, &sigma, &conquer::RewriteOptions::default()).unwrap();
            let suspects = sorted(&cte_rows(&db, &rewritten, "conq_suspects", |sql| sql));
            let filtered = sorted(&cte_rows(&db, &rewritten, filter, |sql| sql));
            for key in &filtered {
                assert!(
                    suspects.contains(key),
                    "{q} (case {case}): filtered key {key:?} is no suspect"
                );
            }
            let over_all_candidates = cte_rows(&db, &rewritten, filter, |sql| {
                sql.replace("conq_suspects", candidates)
            });
            assert_eq!(
                filtered,
                sorted(&over_all_candidates),
                "{q} (case {case}): the Filter over suspects vs over every candidate"
            );
            if candidates == "conq_candidates" {
                let certain = sorted(&consistent_answers_oracle(&db, &q, &sigma).unwrap());
                for cand in cte_rows(&db, &rewritten, candidates, |sql| sql).rows {
                    let cand: Vec<String> = cand.iter().map(ToString::to_string).collect();
                    // Candidates are (key, projected items); the query
                    // projects the key first, so a candidate minus its
                    // leading key column is an answer row.
                    if !suspects.contains(&cand[..1].to_vec()) {
                        assert!(
                            certain.contains(&cand[1..].to_vec()),
                            "{q} (case {case}): {cand:?} is no suspect, yet not certain"
                        );
                    }
                }
            }
        }
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
