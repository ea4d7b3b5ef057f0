//! The rewriting against the repair-enumeration oracle on crafted corner
//! cases: dangling foreign keys, negative aggregates, co-root key-to-key
//! joins, empty candidate sets, MIN/MAX/COUNT bounds, AVG soundness.

use conquer::{
    annotate_database, consistent_answers, consistent_answers_annotated, consistent_answers_oracle,
    range_consistent_oracle, rewrite_sql, ConstraintSet, Database, RewriteError, RewriteOptions,
    Value,
};

fn sorted(rows: &conquer::Rows) -> Vec<Vec<String>> {
    let mut v: Vec<Vec<String>> = rows
        .rows
        .iter()
        .map(|r| r.iter().map(ToString::to_string).collect())
        .collect();
    v.sort();
    v
}

fn assert_matches_oracle(db: &Database, q: &str, sigma: &ConstraintSet) {
    let rewritten = consistent_answers(db, q, sigma).unwrap();
    let oracle = consistent_answers_oracle(db, q, sigma).unwrap();
    assert_eq!(sorted(&rewritten), sorted(&oracle), "query: {q}");
}

/// The plain rewriting, the annotated rewriting (on `annotated_db`, the same
/// data annotated) and the rewriting's own SQL text evaluated by the
/// reference evaluator — no planner, no key index, no kernel — give one
/// answer.
fn assert_strategies_agree(db: &Database, annotated_db: &Database, q: &str, sigma: &ConstraintSet) {
    let plain = consistent_answers(db, q, sigma).unwrap();
    let annotated = consistent_answers_annotated(annotated_db, q, sigma).unwrap();
    assert_eq!(sorted(&plain), sorted(&annotated), "annotated, query: {q}");
    let rewritten = rewrite_sql(q, sigma, &RewriteOptions::default()).unwrap();
    let reference = conquer_reference::evaluate_sql(db, &rewritten).unwrap();
    assert_eq!(sorted(&plain), sorted(&reference), "reference, query: {q}");
}

/// Both strategies refuse `q` over `t`, whose key holds a NULL, by name.
fn assert_null_key_refused(db: &Database, annotated_db: &Database, q: &str, sigma: &ConstraintSet) {
    let refused = RewriteError::NullKey("t".into());
    let plain = consistent_answers(db, q, sigma).unwrap_err();
    assert_eq!(plain, refused, "query: {q}");
    let annotated = consistent_answers_annotated(annotated_db, q, sigma).unwrap_err();
    assert_eq!(annotated, refused, "annotated, query: {q}");
}

/// A query grouped by its first column with one aggregate: the rewriting's
/// `(group, min, max)` rows are the range oracle's.
fn assert_matches_range_oracle(db: &Database, q: &str, sigma: &ConstraintSet) {
    let rewritten = consistent_answers(db, q, sigma).unwrap();
    let oracle = range_consistent_oracle(db, q, sigma, 1).unwrap();
    let mut ranges: Vec<Vec<String>> = oracle
        .iter()
        .map(|a| {
            vec![
                a.group[0].to_string(),
                a.ranges[0].0.to_string(),
                a.ranges[0].1.to_string(),
            ]
        })
        .collect();
    ranges.sort();
    assert_eq!(sorted(&rewritten), ranges, "query: {q}");
}

#[test]
fn dangling_foreign_keys() {
    let db = Database::new();
    db.run_script(
        "create table o (ok integer, fk integer);
         insert into o values (1, 10), (2, 99), (3, 10), (3, 11);
         create table c (ck integer, good integer);
         insert into c values (10, 1), (11, 0), (11, 1);",
    )
    .unwrap();
    let sigma = ConstraintSet::new()
        .with_key("o", ["ok"])
        .with_key("c", ["ck"]);
    // Order 2 dangles (ck 99 missing) in every repair; order 3 joins c=10
    // (good) in one tuple and c=11 (sometimes bad) in the other.
    assert_matches_oracle(
        &db,
        "select o.ok from o, c where o.fk = c.ck and c.good = 1",
        &sigma,
    );
}

#[test]
fn all_candidates_filtered_leaves_empty_answer() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, v integer);
         insert into t values (1, 5), (1, 50);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    assert_matches_oracle(&db, "select t.k from t where t.v > 10", &sigma);
    let rows = consistent_answers(&db, "select t.k from t where t.v > 10", &sigma).unwrap();
    assert!(rows.is_empty());
}

#[test]
fn empty_table_and_no_selection() {
    let db = Database::new();
    db.run_script("create table t (k integer, v integer)")
        .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    assert_matches_oracle(&db, "select t.v from t", &sigma);
}

/// The single-relation Filter reads only candidates whose key is violated
/// (`conq_suspects`, or the split's `conq_rest`). Groups of one, two and
/// three tuples and selection values that are NULL: each query shape agrees
/// with repair enumeration, the annotated rewriting agrees with the plain
/// one, and the answer does not depend on whether `conq_conflicts` was read
/// off the key index or — as the reference evaluator always does — grouped.
/// With one more tuple whose key is NULL, both strategies refuse every shape.
#[test]
fn single_relation_filter_over_violated_keys_only() {
    const DATA: &str = "create table t (k integer, g text, v integer);
         insert into t values
           (1, 'a', 50), (2, 'a', 20), (2, 'a', 30), (3, 'b', 50), (3, 'b', 1),
           (3, 'c', 60), (4, 'b', null), (4, 'b', 40), (5, 'c', null), (6, 'c', 70);";
    const NULL_KEY: &str = "insert into t (g, v) values ('d', 90);";
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    let load = |script: &str| {
        let db = Database::new();
        db.run_script(script).unwrap();
        db
    };
    let queries = [
        "select t.k from t",                // no Filter at all
        "select t.k from t where t.v > 10", // key join branch
        "select t.g from t",                // multiplicity branch
        "select t.g from t where t.v > 10", // both
        "select t.k, t.g from t where t.v > 10",
        "select distinct t.g from t where t.v > 25",
    ];
    let range = "select t.g, sum(t.v) as s from t where t.v > 10 group by t.g";
    let db = load(DATA);
    let annotated_db = load(DATA);
    annotate_database(&annotated_db, &sigma).unwrap();
    for q in queries {
        assert_matches_oracle(&db, q, &sigma);
        assert_strategies_agree(&db, &annotated_db, q, &sigma);
    }
    assert_strategies_agree(&db, &annotated_db, range, &sigma);
    assert_matches_range_oracle(&db, range, &sigma);

    let data = format!("{DATA}{NULL_KEY}");
    let db = load(&data);
    let annotated_db = load(&data);
    annotate_database(&annotated_db, &sigma).unwrap();
    for q in queries.into_iter().chain([range]) {
        assert_null_key_refused(&db, &annotated_db, q, &sigma);
    }
}

/// A single-relation aggregate sends the rows of unviolated keys straight
/// to the final aggregation (`conq_pass`), bounds only the violated keys per
/// key (`conq_rest`). Each extreme of that split — no key violated, every
/// key violated — and a group mixing passed and per-key rows agrees with
/// repair enumeration, and plain, annotated and the reference evaluator
/// over the rewritten SQL agree with each other; one NULL-key row is
/// refused. The mixed group's floats
/// sum to `1e16 + 2` exactly but to `1e16` if the passed rows were summed
/// per group first and rounded: the passed rows must reach the final SUM
/// one by one.
#[test]
fn single_relation_split_matches_every_oracle() {
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    let load = |script: &str| {
        let db = Database::new();
        db.run_script(script).unwrap();
        db
    };
    const INT: &str = "create table t (k integer, g text, v integer);";
    let cases = [
        (
            "no violated key",
            format!("{INT} insert into t values (1, 'a', 10), (2, 'a', 20), (3, 'b', 30), (4, 'b', -5);"),
        ),
        (
            "every key violated",
            format!(
                "{INT} insert into t values (1, 'a', 10), (1, 'a', 15), (2, 'b', 20), (2, 'a', 5),
                   (3, 'b', 30), (3, 'b', -1);"
            ),
        ),
        (
            "a group of passed and per-key rows",
            "create table t (k integer, g text, v float);
             insert into t values (1, 'a', 10000000000000000.0), (2, 'a', 1.0), (3, 'a', 1.0),
               (3, 'a', 1.0), (4, 'b', 2.5);"
                .to_string(),
        ),
    ];
    let queries = [
        "select t.g, sum(t.v) as s from t group by t.g",
        "select t.g, sum(t.v) as s from t where t.v > 6 group by t.g",
        "select t.g, count(*) as n from t where t.v > 6 group by t.g",
        "select t.g, min(t.v) as m from t where t.v > 6 group by t.g",
    ];
    for (case, data) in &cases {
        let db = load(data);
        let annotated_db = load(data);
        annotate_database(&annotated_db, &sigma).unwrap();
        for q in queries {
            let what = format!("{q} ({case})");
            assert_strategies_agree(&db, &annotated_db, q, &sigma);
            assert_matches_range_oracle(&db, q, &sigma);
            let sql = rewrite_sql(q, &sigma, &RewriteOptions::default()).unwrap();
            assert!(sql.contains("conq_pass AS ("), "{what}: {sql}");
        }
    }
    let null_key = format!(
        "{INT} insert into t values (1, 'a', 10), (2, 'a', 20), (2, 'b', 5), (3, 'b', 8);
         insert into t (g, v) values ('a', 7);"
    );
    let (db, annotated_db) = (load(&null_key), load(&null_key));
    annotate_database(&annotated_db, &sigma).unwrap();
    for q in queries {
        assert_null_key_refused(&db, &annotated_db, q, &sigma);
    }
    let db = load(&cases[2].1);
    let q = "select t.g, sum(t.v) as s from t group by t.g";
    assert_eq!(
        sorted(&consistent_answers(&db, q, &sigma).unwrap())[0],
        ["a", "10000000000000002", "10000000000000002"]
    );
}

/// With more relations the Filter reads the candidates some witness of
/// which holds a tuple with a violated key, whichever relation it is in.
/// Conflicts in the root (`li`, a group of two and one of three), one hop
/// down (`ord`) and two hops down (`cust`, again two and three), a dangling
/// and a NULL foreign key: a `RewriteJoin` query with and without the
/// multiplicity branch and a three-relation aggregate agree with repair
/// enumeration, and plain, annotated and the reference evaluator over the
/// rewritten SQL agree with each other.
#[test]
fn multi_relation_filter_over_suspects_only() {
    const DATA: &str = "create table li (ok integer, ln integer, qty integer);
         insert into li values
           (1, 1, 10), (1, 2, 20), (1, 2, 25), (2, 1, 5), (3, 1, 7), (4, 1, 9), (5, 1, 11),
           (6, 1, 3), (6, 1, 4), (6, 1, 8), (7, 1, 6), (8, 1, 2), (9, 1, 12);
         create table ord (ok integer, ck integer);
         insert into ord values
           (1, 100), (2, 200), (2, 300), (3, 300), (4, 400), (5, null), (6, 100), (8, 500),
           (9, 600);
         create table cust (ck integer, seg text);
         insert into cust values
           (100, 'a'), (200, 'b'), (300, 'b'), (400, 'a'), (400, 'c'),
           (500, 'c'), (500, 'c'), (500, 'a'), (600, 'c');";
    let sigma = ConstraintSet::new()
        .with_key("li", ["ok", "ln"])
        .with_key("ord", ["ok"])
        .with_key("cust", ["ck"]);
    let load = || {
        let db = Database::new();
        db.run_script(DATA).unwrap();
        db
    };
    let db = load();
    let annotated_db = load();
    annotate_database(&annotated_db, &sigma).unwrap();
    const FROM: &str = "from li l, ord o, cust c where l.ok = o.ok and o.ck = c.ck";
    for q in [
        format!("select l.ok, l.ln {FROM}"),
        format!("select l.ok, l.ln {FROM} and l.qty > 4"),
        format!("select l.qty {FROM} and c.seg = 'b'"),
        format!("select l.ok, c.seg {FROM} and l.qty > 2"),
        format!("select distinct c.seg {FROM}"),
    ] {
        assert_matches_oracle(&db, &q, &sigma);
        assert_strategies_agree(&db, &annotated_db, &q, &sigma);
    }
    let q = format!("select c.seg, sum(l.qty) as total {FROM} and l.qty > 2 group by c.seg");
    assert_strategies_agree(&db, &annotated_db, &q, &sigma);
    assert_matches_range_oracle(&db, &q, &sigma);
    // Every segment is a consistent group; `a` and `c` hold filtered keys.
    assert_eq!(
        sorted(&consistent_answers(&db, &q, &sigma).unwrap()),
        [["a", "33", "52"], ["b", "12", "12"], ["c", "12", "21"]]
    );
}

#[test]
fn projection_of_consistent_nonkey_attributes() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, a integer, b integer);
         insert into t values (1, 7, 100), (1, 7, 200), (2, 8, 300);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    // Key 1 is inconsistent but agrees on `a` — a must be a consistent
    // answer even though b is not.
    assert_matches_oracle(&db, "select t.a from t", &sigma);
    assert_matches_oracle(&db, "select t.b from t", &sigma);
    let a = consistent_answers(&db, "select t.a from t", &sigma).unwrap();
    assert_eq!(sorted(&a), vec![vec!["7"], vec!["8"]]);
}

#[test]
fn key_to_key_co_roots_against_oracle() {
    let db = Database::new();
    db.run_script(
        "create table a (k integer, x integer);
         insert into a values (1, 10), (1, 0), (2, 30);
         create table b (k integer, y integer);
         insert into b values (1, 7), (2, 8), (2, 0);",
    )
    .unwrap();
    let sigma = ConstraintSet::new()
        .with_key("a", ["k"])
        .with_key("b", ["k"]);
    assert_matches_oracle(
        &db,
        "select a.k from a, b where a.k = b.k and a.x > 5 and b.y > 5",
        &sigma,
    );
    assert_matches_oracle(
        &db,
        "select a.x from a, b where a.k = b.k and b.y > 5",
        &sigma,
    );
}

#[test]
fn sum_ranges_with_negative_values_match_oracle() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, g text, v integer);
         insert into t values
           (1, 'a', -5), (1, 'a', 3), (2, 'a', 10), (3, 'a', -2), (3, 'b', 4),
           (4, 'b', 6), (5, 'b', -1), (5, 'b', -7);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    let q = "select t.g, sum(t.v) as s from t group by t.g";
    assert_matches_range_oracle(&db, q, &sigma);
}

#[test]
fn count_ranges_match_oracle() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, g text, flag integer);
         insert into t values
           (1, 'a', 1), (1, 'a', 0), (2, 'a', 1), (3, 'b', 1), (3, 'b', 1), (4, 'b', 0);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    let q = "select t.g, count(*) as n from t where t.flag = 1 group by t.g";
    assert_matches_range_oracle(&db, q, &sigma);
}

#[test]
fn min_max_ranges_match_oracle() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, g text, v integer);
         insert into t values
           (1, 'a', 5), (1, 'a', 9), (2, 'a', 7), (3, 'a', 1), (3, 'a', 100),
           (4, 'b', 2), (5, 'b', 3), (5, 'b', 8);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    for q in [
        "select t.g, min(t.v) as m from t group by t.g",
        "select t.g, max(t.v) as m from t group by t.g",
    ] {
        assert_matches_range_oracle(&db, q, &sigma);
    }
}

#[test]
fn min_with_selection_filtering_matches_oracle() {
    // MIN where some keys are filtered by the selection — exercises the
    // NULL-contribution encoding of the filtered upper bound.
    let db = Database::new();
    db.run_script(
        "create table t (k integer, g text, v integer, w integer);
         insert into t values
           (1, 'a', 5, 1), (2, 'a', 9, 1), (2, 'a', 3, 0), (3, 'a', 2, 1), (3, 'a', 2, 0);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    let q = "select t.g, min(t.v) as m from t where t.w = 1 group by t.g";
    assert_matches_range_oracle(&db, q, &sigma);
}

#[test]
fn global_sum_matches_oracle_when_groups_never_empty() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, v integer);
         insert into t values (1, 10), (1, 20), (2, 5), (3, -4), (3, 6);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    let q = "select sum(t.v) as s from t";
    let rewritten = consistent_answers(&db, q, &sigma).unwrap();
    let oracle = range_consistent_oracle(&db, q, &sigma, 0).unwrap();
    assert_eq!(rewritten.rows[0][0], oracle[0].ranges[0].0);
    assert_eq!(rewritten.rows[0][1], oracle[0].ranges[0].1);
}

#[test]
fn avg_bounds_are_sound_containments_of_the_oracle() {
    // AVG is a documented extension with sound (not necessarily tight)
    // bounds for non-negative data: the oracle range must lie inside ours.
    let db = Database::new();
    db.run_script(
        "create table t (k integer, g text, v integer, w integer);
         insert into t values
           (1, 'a', 10, 1), (2, 'a', 20, 1), (2, 'a', 100, 0), (3, 'a', 60, 1);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    let q = "select t.g, avg(t.v) as m from t where t.w = 1 group by t.g";
    let rewritten = consistent_answers(&db, q, &sigma).unwrap();
    let oracle = range_consistent_oracle(&db, q, &sigma, 1).unwrap();
    assert_eq!(rewritten.len(), 1);
    assert_eq!(oracle.len(), 1);
    let Value::Float(lo) = rewritten.rows[0][1] else {
        panic!()
    };
    let Value::Float(hi) = rewritten.rows[0][2] else {
        panic!()
    };
    let (olo, ohi) = &oracle[0].ranges[0];
    let olo = olo.to_string().parse::<f64>().unwrap();
    let ohi = ohi.to_string().parse::<f64>().unwrap();
    assert!(
        lo <= olo + 1e-9,
        "lower bound {lo} must not exceed oracle {olo}"
    );
    assert!(hi >= ohi - 1e-9, "upper bound {hi} must cover oracle {ohi}");
}

#[test]
fn three_way_chain_with_aggregation_matches_oracle() {
    let db = Database::new();
    db.run_script(
        "create table l (lk integer, ofk integer, qty integer);
         insert into l values (1, 10, 3), (1, 10, 7), (2, 11, 5), (3, 12, 9);
         create table o (ok integer, pri text);
         insert into o values (10, 'HI'), (11, 'HI'), (11, 'LO'), (12, 'LO');",
    )
    .unwrap();
    let sigma = ConstraintSet::new()
        .with_key("l", ["lk"])
        .with_key("o", ["ok"]);
    let q = "select o.pri, sum(l.qty) as total from l, o where l.ofk = o.ok group by o.pri";
    // Consistent groups and their ranges must coincide, in any order.
    assert_matches_range_oracle(&db, q, &sigma);
}
