//! Reproductions of the worked examples of the paper (Examples 1–9 and the
//! instances of Figures 1, 2 and 7), running the generated rewritings on
//! the engine, plus structural checks on the generated SQL and negative
//! tests for the tree-query classification.

use conquer_core::{
    analyze, annotate_database, consistent_answers, consistent_answers_annotated, rewrite_sql,
    ConstraintSet, RewriteError, RewriteOptions,
};
use conquer_engine::{Database, Value};
use conquer_sql::parse_query;

fn figure1_db() -> Database {
    let db = Database::new();
    db.run_script(
        "create table customer (custkey text, acctbal float);
         insert into customer values
           ('c1', 2000), ('c1', 100), ('c2', 2500), ('c3', 2200), ('c3', 2500);",
    )
    .unwrap();
    db
}

fn figure2_db() -> Database {
    let db = Database::new();
    db.run_script(
        "create table orders (orderkey text, clerk text, custfk text);
         insert into orders values
           ('o1', 'ali', 'c1'), ('o2', 'jo', 'c2'), ('o2', 'ali', 'c3'),
           ('o3', 'ali', 'c4'), ('o3', 'pat', 'c2'), ('o4', 'ali', 'c2'),
           ('o4', 'ali', 'c3'), ('o5', 'ali', 'c2');
         create table customer (custkey text, acctbal float);
         insert into customer values
           ('c1', 2000), ('c1', 100), ('c2', 2500), ('c3', 2200), ('c3', 2500);",
    )
    .unwrap();
    db
}

fn figure7_db() -> Database {
    let db = Database::new();
    db.run_script(
        "create table customer (custkey text, nationkey text, mktsegment text, acctbal float);
         insert into customer values
           ('c1', 'n1', 'building', 1000),
           ('c1', 'n1', 'building', 2000),
           ('c2', 'n1', 'building', 500),
           ('c2', 'n1', 'banking', 600),
           ('c3', 'n2', 'banking', 100);",
    )
    .unwrap();
    db
}

fn figure2_sigma() -> ConstraintSet {
    ConstraintSet::new()
        .with_key("orders", ["orderkey"])
        .with_key("customer", ["custkey"])
}

fn strings(rows: &conquer_engine::Rows, col: usize) -> Vec<String> {
    let mut v: Vec<String> = rows.rows.iter().map(|r| r[col].to_string()).collect();
    v.sort();
    v
}

// --- Example 1 / Figure 1 -------------------------------------------------

#[test]
fn example1_consistent_answers() {
    let db = figure1_db();
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
    let rows = consistent_answers(
        &db,
        "select custkey from customer where acctbal > 1000",
        &sigma,
    )
    .unwrap();
    assert_eq!(strings(&rows, 0), vec!["c2", "c3"]);
}

#[test]
fn example1_difference_detects_inconsistency() {
    // Section 1: the difference between the original and rewritten query
    // flags c1 as potentially inconsistent.
    let db = figure1_db();
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
    let q = "select custkey from customer where acctbal > 1000";
    let possible = db.query(q).unwrap();
    let consistent = consistent_answers(&db, q, &sigma).unwrap();
    let mut possible_set = strings(&possible, 0);
    possible_set.dedup();
    let consistent_set = strings(&consistent, 0);
    let suspicious: Vec<String> = possible_set
        .into_iter()
        .filter(|v| !consistent_set.contains(v))
        .collect();
    assert_eq!(suspicious, vec!["c1"]);
}

// --- Example 3 / Figures 2 and 3 -------------------------------------------

#[test]
fn example3_q2_consistent_orders() {
    let db = figure2_db();
    let rows = consistent_answers(
        &db,
        "select o.orderkey from customer c, orders o
         where c.acctbal > 1000 and o.custfk = c.custkey",
        &figure2_sigma(),
    )
    .unwrap();
    assert_eq!(strings(&rows, 0), vec!["o2", "o4", "o5"]);
}

#[test]
fn example3_rewriting_structure_matches_figure3() {
    let sql = rewrite_sql(
        "select o.orderkey from customer c, orders o
         where c.acctbal > 1000 and o.custfk = c.custkey",
        &figure2_sigma(),
        &RewriteOptions {
            paper_style_negation: true,
            ..Default::default()
        },
    )
    .unwrap();
    // Candidates and Filter, a left outer join, the IS NULL check, the
    // negated selection, and NOT EXISTS — and, since only the root key is
    // projected, no multiplicity (count(*) > 1) branch.
    assert!(sql.contains("conq_candidates AS (SELECT DISTINCT"), "{sql}");
    assert!(sql.contains("conq_filter AS ("), "{sql}");
    assert!(
        sql.contains("LEFT OUTER JOIN customer c ON o.custfk = c.custkey"),
        "{sql}"
    );
    assert!(sql.contains("c.custkey IS NULL"), "{sql}");
    assert!(sql.contains("c.acctbal <= 1000"), "{sql}");
    assert!(sql.contains("NOT EXISTS"), "{sql}");
    assert!(!sql.contains("GROUP BY conq_k1"), "{sql}");
    // The generated SQL re-parses.
    parse_query(&sql).unwrap();
}

// --- Example 4 / Figure 4 ---------------------------------------------------

#[test]
fn example4_q3_consistent_clerks_with_multiplicity() {
    let db = figure2_db();
    let rows = consistent_answers(
        &db,
        "select o.clerk from customer c, orders o
         where c.acctbal > 1000 and o.custfk = c.custkey",
        &figure2_sigma(),
    )
    .unwrap();
    // {ali, ali}: ali is consistent with multiplicity two (o4 and o5).
    assert_eq!(strings(&rows, 0), vec!["ali", "ali"]);
}

#[test]
fn example4_rewriting_has_multiplicity_branch() {
    let sql = rewrite_sql(
        "select o.clerk from customer c, orders o
         where c.acctbal > 1000 and o.custfk = c.custkey",
        &figure2_sigma(),
        &RewriteOptions::default(),
    )
    .unwrap();
    assert!(sql.contains("UNION ALL"), "{sql}");
    assert!(sql.contains("HAVING count(*) > 1"), "{sql}");
    parse_query(&sql).unwrap();
}

// --- Example 5 / Figure 7: global aggregation --------------------------------

#[test]
fn example5_q4_range_of_global_sum() {
    let db = figure7_db();
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
    let rows =
        consistent_answers(&db, "select sum(acctbal) as sumbal from customer", &sigma).unwrap();
    // Repairs sum to 1600, 1700, 2600, 2700: the range is [1600, 2700].
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.rows[0][0], Value::Float(1600.0));
    assert_eq!(rows.rows[0][1], Value::Float(2700.0));
}

// --- Example 6 / 7: grouped aggregation --------------------------------------

#[test]
fn example6_q5_range_consistent_answers() {
    let db = figure7_db();
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
    let rows = consistent_answers(
        &db,
        "select nationkey, sum(acctbal) as bal from customer
         where mktsegment = 'building' group by nationkey",
        &sigma,
    )
    .unwrap();
    // {(n1, 1000, 2500)}: n1 is the only consistent group; c1 contributes
    // [1000, 2000] and filtered c2 contributes [0, 500].
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.rows[0][0], Value::str("n1"));
    assert_eq!(rows.rows[0][1], Value::Float(1000.0));
    assert_eq!(rows.rows[0][2], Value::Float(2500.0));
}

// --- Example 8: negative values ----------------------------------------------

#[test]
fn example8_negative_values() {
    let db = Database::new();
    db.run_script(
        "create table customer (custkey text, nationkey text, mktsegment text, acctbal float);
         insert into customer values
           ('c1', 'n1', 'building', 1000),
           ('c1', 'n1', 'building', 2000),
           ('c2', 'n1', 'building', -500),
           ('c2', 'n1', 'banking', 600),
           ('c3', 'n2', 'banking', 100);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
    let rows = consistent_answers(
        &db,
        "select nationkey, sum(acctbal) as bal from customer
         where mktsegment = 'building' group by nationkey",
        &sigma,
    )
    .unwrap();
    // The paper: range-consistent answer {(n1, 500, 2000)} — c2's negative
    // balance lowers the minimum instead of raising the maximum.
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.rows[0][1], Value::Float(500.0));
    assert_eq!(rows.rows[0][2], Value::Float(2000.0));
}

// --- Example 9 / Figure 9: annotations ----------------------------------------

#[test]
fn example9_annotated_rewriting_agrees_with_plain() {
    let db = figure2_db();
    let sigma = figure2_sigma();
    let q = "select o.orderkey from customer c, orders o
             where c.acctbal > 1000 and o.custfk = c.custkey";
    let plain = consistent_answers(&db, q, &sigma).unwrap();
    annotate_database(&db, &sigma).unwrap();
    let annotated = consistent_answers_annotated(&db, q, &sigma).unwrap();
    assert_eq!(strings(&plain, 0), strings(&annotated, 0));
    assert_eq!(strings(&annotated, 0), vec!["o2", "o4", "o5"]);
}

#[test]
fn example9_annotated_rewriting_structure() {
    let sql = rewrite_sql(
        "select o.orderkey from customer c, orders o
         where c.acctbal > 1000 and o.custfk = c.custkey",
        &figure2_sigma(),
        &RewriteOptions {
            annotated: true,
            ..Default::default()
        },
    )
    .unwrap();
    // The conscand counter and the filter guard from Section 5.
    assert!(
        sql.contains("sum(CASE WHEN c.cons = 'n' OR o.cons = 'n' THEN 1 ELSE 0 END)"),
        "{sql}"
    );
    assert!(sql.contains("conq_cand.conq_conscand > 0"), "{sql}");
    assert!(sql.contains("GROUP BY o.orderkey"), "{sql}");
    parse_query(&sql).unwrap();
}

#[test]
fn annotated_requires_annotations() {
    let db = figure2_db();
    let sigma = figure2_sigma();
    let err = consistent_answers_annotated(&db, "select orderkey from orders", &sigma).unwrap_err();
    assert!(err.to_string().contains("not annotated"));
}

#[test]
fn annotated_agg_rewriting_agrees_with_plain() {
    let db = figure7_db();
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
    let q = "select nationkey, sum(acctbal) as bal from customer
             where mktsegment = 'building' group by nationkey";
    let plain = consistent_answers(&db, q, &sigma).unwrap();
    annotate_database(&db, &sigma).unwrap();
    let annotated = consistent_answers_annotated(&db, q, &sigma).unwrap();
    assert_eq!(plain.rows, annotated.rows);
}

// --- multiplicity / bag semantics ---------------------------------------------

#[test]
fn bag_semantics_minimum_multiplicity() {
    // A value supported by two never-filtered keys appears twice.
    let db = Database::new();
    db.run_script(
        "create table t (k integer, v text);
         insert into t values (1, 'x'), (2, 'x'), (3, 'x'), (3, 'y');",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    let rows = consistent_answers(&db, "select v from t", &sigma).unwrap();
    // Keys 1 and 2 consistently produce 'x'; key 3 is ambiguous.
    assert_eq!(strings(&rows, 0), vec!["x", "x"]);
}

#[test]
fn distinct_input_query_gets_distinct_output() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, v text);
         insert into t values (1, 'x'), (2, 'x');",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    let rows = consistent_answers(&db, "select distinct v from t", &sigma).unwrap();
    assert_eq!(strings(&rows, 0), vec!["x"]);
}

#[test]
fn key_only_projection_needs_no_filter_at_all() {
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    let sql = rewrite_sql("select k from t", &sigma, &RewriteOptions::default()).unwrap();
    assert!(!sql.contains("conq_filter"), "{sql}");
    assert!(sql.contains("SELECT DISTINCT"), "{sql}");
}

// --- single relation: the Filter reads only the violated keys -------------------

#[test]
fn single_relation_filter_reads_the_suspects() {
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
    let plain = RewriteOptions::default();
    // Both branches (a selection, a projection beyond the key) over an
    // aliased relation: two CTEs ahead of the Filter, and every Filter
    // branch reads the second.
    let sql = rewrite_sql(
        "select c.acctbal from customer c where c.acctbal > 1000",
        &sigma,
        &plain,
    )
    .unwrap();
    for piece in [
        "conq_conflicts AS (SELECT c.custkey AS conq_k1 FROM customer c \
         GROUP BY c.custkey HAVING count(*) > 1)",
        "conq_suspects AS (SELECT conq_cand.conq_k1 AS conq_k1 FROM conq_candidates conq_cand \
         WHERE EXISTS (SELECT * FROM conq_conflicts conq_v \
         WHERE conq_cand.conq_k1 = conq_v.conq_k1))",
        "FROM conq_suspects conq_cand JOIN customer c ON conq_cand.conq_k1 = c.custkey",
        "UNION ALL SELECT conq_k1 FROM conq_suspects GROUP BY conq_k1 HAVING count(*) > 1",
        "NOT EXISTS (SELECT * FROM conq_filter",
    ] {
        assert!(sql.contains(piece), "missing {piece:?} in:\n{sql}");
    }
    parse_query(&sql).unwrap();

    // RewriteAgg takes the same Filter over q_G's candidates.
    let sql = rewrite_sql(
        "select sum(acctbal) as s from customer where acctbal > 0",
        &sigma,
        &plain,
    )
    .unwrap();
    assert!(sql.contains("conq_conflicts AS ("), "{sql}");
    assert!(
        sql.contains(
            "conq_suspects AS (SELECT conq_cand.conq_k1 AS conq_k1 FROM conq_qg_candidates"
        ),
        "{sql}"
    );
    assert!(
        sql.contains("FROM conq_suspects conq_cand JOIN customer"),
        "{sql}"
    );

    // Nothing to filter, nothing to precompute; the annotated rewriting
    // keeps its `conscand` guard.
    let annotated = RewriteOptions {
        annotated: true,
        ..plain
    };
    for (q, opts) in [
        ("select custkey from customer", &plain),
        (
            "select acctbal from customer where acctbal > 1000",
            &annotated,
        ),
    ] {
        let sql = rewrite_sql(q, &sigma, opts).unwrap();
        assert!(!sql.contains("conq_conflicts"), "{sql}");
        assert!(!sql.contains("conq_suspects"), "{sql}");
    }

    // One relation is the one-member case of the suspects' union: the text
    // of PR 16, to the byte.
    let sql = rewrite_sql(
        "select custkey from customer where acctbal > 1000",
        &sigma,
        &plain,
    )
    .unwrap();
    assert_eq!(
        sql,
        "WITH conq_candidates AS (SELECT DISTINCT customer.custkey AS conq_k1, \
         custkey AS custkey FROM customer WHERE acctbal > 1000), \
         conq_conflicts AS (SELECT customer.custkey AS conq_k1 FROM customer \
         GROUP BY customer.custkey HAVING count(*) > 1), \
         conq_suspects AS (SELECT conq_cand.conq_k1 AS conq_k1 FROM conq_candidates conq_cand \
         WHERE EXISTS (SELECT * FROM conq_conflicts conq_v \
         WHERE conq_cand.conq_k1 = conq_v.conq_k1)), \
         conq_filter AS (SELECT conq_cand.conq_k1 AS conq_k1 FROM conq_suspects conq_cand \
         JOIN customer ON conq_cand.conq_k1 = customer.custkey \
         WHERE NOT coalesce(acctbal > 1000, FALSE)) \
         SELECT conq_cand.custkey AS custkey FROM conq_candidates conq_cand \
         WHERE NOT EXISTS (SELECT * FROM conq_filter conq_f \
         WHERE conq_cand.conq_k1 = conq_f.conq_k1)"
    );
}

// --- more relations: suspects are found through the witnesses' keys -------------

/// The CTEs of `sql`, `name AS (body)` each, in order.
fn ctes(sql: &str) -> Vec<String> {
    let query = parse_query(sql).unwrap();
    query
        .ctes
        .iter()
        .map(|c| format!("{} AS ({})", c.name, c.query))
        .collect()
}

#[test]
fn two_relation_filter_reads_the_suspects_of_both_relations() {
    // Example 4's query: `conq_base` keeps each satisfying row's customer
    // key beside the Candidates' columns; a candidate is a suspect when its
    // order key is violated or one of its rows holds a violated customer.
    let sql = rewrite_sql(
        "select o.clerk from customer c, orders o
         where c.acctbal > 1000 and o.custfk = c.custkey",
        &figure2_sigma(),
        &RewriteOptions::default(),
    )
    .unwrap();
    assert_eq!(
        ctes(&sql),
        [
            "conq_base AS (SELECT o.orderkey AS conq_k1, o.clerk AS clerk, \
             c.custkey AS conq_r0k1 FROM customer c, orders o \
             WHERE o.custfk = c.custkey AND c.acctbal > 1000)",
            "conq_candidates AS (SELECT DISTINCT conq_b.conq_k1 AS conq_k1, \
             conq_b.clerk AS clerk FROM conq_base conq_b)",
            "conq_conflicts AS (SELECT o.orderkey AS conq_k1 FROM orders o \
             GROUP BY o.orderkey HAVING count(*) > 1)",
            "conq_conflicts_0 AS (SELECT c.custkey AS conq_r0k1 FROM customer c \
             GROUP BY c.custkey HAVING count(*) > 1)",
            "conq_suspect_keys AS (SELECT conq_k1 FROM conq_conflicts \
             UNION ALL SELECT conq_b.conq_k1 AS conq_k1 FROM conq_base conq_b \
             WHERE EXISTS (SELECT * FROM conq_conflicts_0 conq_v \
             WHERE conq_b.conq_r0k1 = conq_v.conq_r0k1))",
            "conq_suspects AS (SELECT conq_cand.conq_k1 AS conq_k1 \
             FROM conq_candidates conq_cand \
             WHERE EXISTS (SELECT * FROM conq_suspect_keys conq_v \
             WHERE conq_cand.conq_k1 = conq_v.conq_k1))",
            "conq_filter AS (SELECT conq_cand.conq_k1 AS conq_k1 FROM conq_suspects conq_cand \
             JOIN orders o ON conq_cand.conq_k1 = o.orderkey \
             LEFT OUTER JOIN customer c ON o.custfk = c.custkey \
             WHERE c.custkey IS NULL OR NOT coalesce(c.acctbal > 1000, FALSE) \
             UNION ALL SELECT conq_k1 FROM conq_suspects GROUP BY conq_k1 HAVING count(*) > 1)",
        ]
    );
    // The answers are Example 4's (checked above); the body is Figure 5's.
    assert!(
        sql.ends_with(
            "SELECT conq_cand.clerk AS clerk FROM conq_candidates conq_cand \
             WHERE NOT EXISTS (SELECT * FROM conq_filter conq_f \
             WHERE conq_cand.conq_k1 = conq_f.conq_k1)"
        ),
        "{sql}"
    );
}

fn chain_sigma() -> ConstraintSet {
    ConstraintSet::new()
        .with_key("li", ["ok", "ln"])
        .with_key("ord", ["ok"])
        .with_key("cust", ["ck"])
        .with_key("nat", ["nk"])
}

const CHAIN_QUERY: &str = "select c.ck, n.name, sum(l.qty) as q from li l, ord o, cust c, nat n
     where l.ok = o.ok and o.ck = c.ck and c.nk = n.nk and l.qty > 1
     group by c.ck, n.name";

#[test]
fn four_relation_aggregate_reads_the_suspects_of_every_relation() {
    let sql = rewrite_sql(CHAIN_QUERY, &chain_sigma(), &RewriteOptions::default()).unwrap();
    let ctes = ctes(&sql);
    let names: Vec<&str> = ctes.iter().map(|c| c.split(' ').next().unwrap()).collect();
    assert_eq!(
        names,
        [
            "conq_base",
            "conq_qg_candidates",
            "conq_conflicts",
            "conq_conflicts_1",
            "conq_conflicts_2",
            "conq_conflicts_3",
            "conq_suspect_keys",
            "conq_suspects",
            "conq_qg_filter",
            "conq_qg_cons",
            "conq_unfiltered",
            "conq_filtered",
        ]
    );
    assert_eq!(
        ctes[0],
        "conq_base AS (SELECT l.ok AS conq_k1, l.ln AS conq_k2, c.ck AS ck, n.name AS name, \
         coalesce(l.qty, 0) AS conq_e2, o.ok AS conq_r1k1, c.ck AS conq_r2k1, n.nk AS conq_r3k1 \
         FROM li l, ord o, cust c, nat n \
         WHERE l.ok = o.ok AND o.ck = c.ck AND c.nk = n.nk AND l.qty > 1)"
    );
    assert_eq!(
        ctes[2..8],
        [
            "conq_conflicts AS (SELECT l.ok AS conq_k1, l.ln AS conq_k2 FROM li l \
             GROUP BY l.ok, l.ln HAVING count(*) > 1)",
            "conq_conflicts_1 AS (SELECT o.ok AS conq_r1k1 FROM ord o \
             GROUP BY o.ok HAVING count(*) > 1)",
            "conq_conflicts_2 AS (SELECT c.ck AS conq_r2k1 FROM cust c \
             GROUP BY c.ck HAVING count(*) > 1)",
            "conq_conflicts_3 AS (SELECT n.nk AS conq_r3k1 FROM nat n \
             GROUP BY n.nk HAVING count(*) > 1)",
            "conq_suspect_keys AS (SELECT conq_k1, conq_k2 FROM conq_conflicts \
             UNION ALL SELECT conq_b.conq_k1 AS conq_k1, conq_b.conq_k2 AS conq_k2 \
             FROM conq_base conq_b WHERE EXISTS (SELECT * FROM conq_conflicts_1 conq_v \
             WHERE conq_b.conq_r1k1 = conq_v.conq_r1k1) \
             UNION ALL SELECT conq_b.conq_k1 AS conq_k1, conq_b.conq_k2 AS conq_k2 \
             FROM conq_base conq_b WHERE EXISTS (SELECT * FROM conq_conflicts_2 conq_v \
             WHERE conq_b.conq_r2k1 = conq_v.conq_r2k1) \
             UNION ALL SELECT conq_b.conq_k1 AS conq_k1, conq_b.conq_k2 AS conq_k2 \
             FROM conq_base conq_b WHERE EXISTS (SELECT * FROM conq_conflicts_3 conq_v \
             WHERE conq_b.conq_r3k1 = conq_v.conq_r3k1))",
            "conq_suspects AS (SELECT conq_cand.conq_k1 AS conq_k1, conq_cand.conq_k2 AS conq_k2 \
             FROM conq_qg_candidates conq_cand \
             WHERE EXISTS (SELECT * FROM conq_suspect_keys conq_v \
             WHERE conq_cand.conq_k1 = conq_v.conq_k1 AND conq_cand.conq_k2 = conq_v.conq_k2))",
        ]
    );
    assert!(
        ctes[8].starts_with(
            "conq_qg_filter AS (SELECT conq_cand.conq_k1 AS conq_k1, conq_cand.conq_k2 AS conq_k2 \
             FROM conq_suspects conq_cand JOIN li l ON"
        ) && ctes[8].ends_with(
            "UNION ALL SELECT conq_k1, conq_k2 FROM conq_suspects \
             GROUP BY conq_k1, conq_k2 HAVING count(*) > 1)"
        ),
        "{}",
        ctes[8]
    );
}

#[test]
fn no_suspects_where_nothing_reads_them() {
    // Annotated: the `conscand` guard is the test, `conq_base` stays as
    // narrow as Section 5 has it.
    let annotated = RewriteOptions {
        annotated: true,
        ..RewriteOptions::default()
    };
    let sql = rewrite_sql(CHAIN_QUERY, &chain_sigma(), &annotated).unwrap();
    for absent in ["conq_conflicts", "conq_suspect", "conq_r1k1", "conq_r2k1"] {
        assert!(!sql.contains(absent), "{absent} in:\n{sql}");
    }
    assert!(
        sql.contains("FROM conq_qg_candidates conq_cand JOIN li l"),
        "{sql}"
    );
    let sql = rewrite_sql(
        "select o.clerk from customer c, orders o where o.custfk = c.custkey",
        &figure2_sigma(),
        &annotated,
    )
    .unwrap();
    assert!(
        sql.starts_with("WITH conq_candidates AS (SELECT o.orderkey"),
        "{sql}"
    );
    assert!(!sql.contains("conq_base"), "{sql}");

    // A key-to-key join projecting the key, no selection: no Filter is
    // emitted, so no relation's key rides along and Figure 5's Candidates
    // stand alone.
    let sigma = ConstraintSet::new()
        .with_key("a", ["k"])
        .with_key("b", ["k"]);
    for q in [
        "select a.k from a, b where a.k = b.k",
        "select count(*) as n from a, b where a.k = b.k",
    ] {
        let sql = rewrite_sql(q, &sigma, &RewriteOptions::default()).unwrap();
        for absent in ["conq_conflicts", "conq_suspect", "conq_r", "_filter"] {
            assert!(!sql.contains(absent), "{absent} in:\n{sql}");
        }
    }
}

// --- three-relation chains and composite keys ----------------------------------

#[test]
fn three_relation_chain_rewrites_and_runs() {
    let db = Database::new();
    db.run_script(
        "create table li (ok integer, ln integer, qty integer);
         insert into li values (1, 1, 10), (1, 2, 20), (1, 2, 25), (2, 1, 5);
         create table ord (ok integer, ck integer);
         insert into ord values (1, 100), (2, 200), (2, 300);
         create table cust (ck integer, seg text);
         insert into cust values (100, 'building'), (200, 'auto'), (300, 'auto');",
    )
    .unwrap();
    let sigma = ConstraintSet::new()
        .with_key("li", ["ok", "ln"])
        .with_key("ord", ["ok"])
        .with_key("cust", ["ck"]);
    // lineitem -> orders (partial-key to key) -> customer (non-key to key).
    let q = "select l.qty from li l, ord o, cust c
             where l.ok = o.ok and o.ck = c.ck and c.seg = 'building' and l.qty > 1";
    let tq = analyze(&parse_query(q).unwrap(), &sigma).unwrap();
    assert_eq!(tq.relations[tq.root].table, "li");
    assert_eq!(tq.loj_joins.len(), 2);

    let rows = consistent_answers(&db, q, &sigma).unwrap();
    // (1,1) -> qty 10 consistently (order 1 -> cust 100 building).
    // (1,2) has two qty values -> filtered by multiplicity.
    // (2,1) -> order 2 is inconsistent (cust 200/300 both 'auto') -> fails
    //         the segment selection in every repair; never a candidate.
    assert_eq!(strings(&rows, 0), vec!["10"]);
}

#[test]
fn key_to_key_join_is_supported() {
    let db = Database::new();
    db.run_script(
        "create table a (k integer, x integer);
         insert into a values (1, 10), (1, 20), (2, 30);
         create table b (k integer, y integer);
         insert into b values (1, 7), (2, 8), (2, 9);",
    )
    .unwrap();
    let sigma = ConstraintSet::new()
        .with_key("a", ["k"])
        .with_key("b", ["k"]);
    let q = "select a.k from a, b where a.k = b.k and a.x > 5 and b.y > 6";
    let tq = analyze(&parse_query(q).unwrap(), &sigma).unwrap();
    assert_eq!(tq.kj_joins.len(), 1);
    assert!(tq.loj_joins.is_empty());
    let rows = consistent_answers(&db, q, &sigma).unwrap();
    // Both keys satisfy both selections in every repair.
    assert_eq!(strings(&rows, 0), vec!["1", "2"]);

    // Now make b's key-2 group fail the selection in one repair.
    db.run_script("insert into b values (2, 0)").unwrap();
    let rows = consistent_answers(&db, q, &sigma).unwrap();
    assert_eq!(strings(&rows, 0), vec!["1"]);
}

// --- NULL handling in selections ------------------------------------------------

#[test]
fn null_selection_values_are_filtered_by_default() {
    // A tuple whose selection condition is UNKNOWN fails the query in the
    // repairs that choose it; the default NULL-safe negation filters its key.
    let db = Database::new();
    db.run_script(
        "create table t (k integer, v integer);
         insert into t values (1, 10), (1, null), (2, 10);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    let rows = consistent_answers(&db, "select k from t where v > 5", &sigma).unwrap();
    assert_eq!(strings(&rows, 0), vec!["2"]);
}

// --- classification errors --------------------------------------------------------

fn expect_err(q: &str, sigma: &ConstraintSet) -> RewriteError {
    conquer_core::rewrite(&parse_query(q).unwrap(), sigma, &RewriteOptions::default()).unwrap_err()
}

#[test]
fn rejects_non_key_joins() {
    let sigma = ConstraintSet::new()
        .with_key("a", ["k"])
        .with_key("b", ["k"]);
    let err = expect_err("select a.k from a, b where a.x = b.y", &sigma);
    assert!(matches!(err, RewriteError::NotATreeQuery(_)), "{err}");
}

#[test]
fn rejects_inequality_joins() {
    let sigma = ConstraintSet::new()
        .with_key("a", ["k"])
        .with_key("b", ["k"]);
    let err = expect_err("select a.k from a, b where a.k < b.k", &sigma);
    assert!(matches!(err, RewriteError::NotATreeQuery(_)), "{err}");
}

#[test]
fn rejects_relation_used_twice() {
    let sigma = ConstraintSet::new().with_key("a", ["k"]);
    let err = expect_err("select a1.k from a a1, a a2 where a1.k = a2.k", &sigma);
    assert!(matches!(err, RewriteError::NotATreeQuery(_)), "{err}");
}

#[test]
fn rejects_missing_key_constraint() {
    let sigma = ConstraintSet::new().with_key("a", ["k"]);
    let err = expect_err("select a.k from a, b where a.x = b.k", &sigma);
    assert!(matches!(err, RewriteError::MissingKey(_)), "{err}");
}

#[test]
fn rejects_two_parents() {
    // Both a and b join on c's key: c would have two parents.
    let sigma = ConstraintSet::new()
        .with_key("a", ["k"])
        .with_key("b", ["k"])
        .with_key("c", ["k"]);
    let err = expect_err(
        "select a.k from a, b, c where a.fk = c.k and b.fk = c.k",
        &sigma,
    );
    assert!(matches!(err, RewriteError::NotATreeQuery(_)), "{err}");
}

#[test]
fn rejects_disconnected_join_graph() {
    let sigma = ConstraintSet::new()
        .with_key("a", ["k"])
        .with_key("b", ["k"]);
    let err = expect_err("select a.k from a, b", &sigma);
    assert!(matches!(err, RewriteError::NotATreeQuery(_)), "{err}");
}

#[test]
fn rejects_disjunction_and_outer_join_inputs() {
    let sigma = ConstraintSet::new()
        .with_key("a", ["k"])
        .with_key("b", ["k"]);
    let err = expect_err("select k from a union all select k from b", &sigma);
    assert!(matches!(err, RewriteError::Unsupported(_)), "{err}");
    let err = expect_err("select a.k from a left outer join b on a.k = b.k", &sigma);
    assert!(matches!(err, RewriteError::Unsupported(_)), "{err}");
}

#[test]
fn rejects_nested_subqueries_with_hint() {
    let sigma = ConstraintSet::new().with_key("a", ["k"]);
    let err = expect_err("select a.k from a where exists (select * from a)", &sigma);
    assert!(err.to_string().contains("decorrelate"), "{err}");
}

#[test]
fn rejects_expressions_over_aggregates() {
    let sigma = ConstraintSet::new().with_key("a", ["k"]);
    let err = expect_err("select sum(x) + 1 from a", &sigma);
    assert!(matches!(err, RewriteError::Unsupported(_)), "{err}");
}

#[test]
fn rejects_group_by_not_in_select() {
    let sigma = ConstraintSet::new().with_key("a", ["k"]);
    let err = expect_err("select sum(x) from a group by g", &sigma);
    assert!(err.to_string().contains("SELECT list"), "{err}");
}

// --- ORDER BY / LIMIT pass-through ------------------------------------------------

#[test]
fn order_by_passes_through_join_rewriting() {
    let db = figure2_db();
    let rows = consistent_answers(
        &db,
        "select o.orderkey from customer c, orders o
         where c.acctbal > 1000 and o.custfk = c.custkey
         order by o.orderkey desc limit 2",
        &figure2_sigma(),
    )
    .unwrap();
    let vals: Vec<String> = rows.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(vals, vec!["o5", "o4"]);
}

#[test]
fn order_by_aggregate_alias_maps_to_min_column() {
    let db = figure7_db();
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
    let rows = consistent_answers(
        &db,
        "select nationkey, sum(acctbal) as bal from customer
         group by nationkey order by bal desc",
        &sigma,
    )
    .unwrap();
    // n1 (min 1500) sorts above n2 (min 100).
    assert_eq!(rows.rows[0][0], Value::str("n1"));
    assert_eq!(rows.schema.columns[1].name, "min_bal");
    assert_eq!(rows.schema.columns[2].name, "max_bal");
}

// --- MIN/MAX/COUNT/AVG ranges -------------------------------------------------------

#[test]
fn count_star_range() {
    let db = figure7_db();
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
    let rows = consistent_answers(
        &db,
        "select nationkey, count(*) as n from customer
         where mktsegment = 'building' group by nationkey",
        &sigma,
    )
    .unwrap();
    // n1: c1 always counts (1..1), c2 counts in half the repairs (0..1).
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.rows[0][1], Value::Int(1));
    assert_eq!(rows.rows[0][2], Value::Int(2));
}

#[test]
fn min_max_ranges() {
    let db = figure7_db();
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
    let rows = consistent_answers(
        &db,
        "select nationkey, min(acctbal) as lo, max(acctbal) as hi from customer
         where mktsegment = 'building' group by nationkey",
        &sigma,
    )
    .unwrap();
    assert_eq!(rows.len(), 1);
    // MIN range: lower = min(1000, 500) = 500; upper = min over unfiltered
    // keys of max(e) = 2000 (c1 only).
    assert_eq!(rows.rows[0][1], Value::Float(500.0));
    assert_eq!(rows.rows[0][2], Value::Float(2000.0));
    // MAX range: lower = max over unfiltered of min(e) = 1000;
    // upper = max over all of max(e) = 2000.
    assert_eq!(rows.rows[0][3], Value::Float(1000.0));
    assert_eq!(rows.rows[0][4], Value::Float(2000.0));
}

#[test]
fn group_by_without_aggregates_behaves_as_distinct() {
    let db = figure7_db();
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
    let rows = consistent_answers(
        &db,
        "select nationkey from customer group by nationkey",
        &sigma,
    )
    .unwrap();
    // n1 is consistent via c1; n2 is consistent via c3.
    assert_eq!(strings(&rows, 0), vec!["n1", "n2"]);
}
