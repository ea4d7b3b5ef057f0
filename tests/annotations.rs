//! Annotation-layer integration tests: the offline pass, its interaction
//! with the injector, and the annotation-aware rewriting on TPC-H data.

use conquer::tpch::{build_workload, inject_table, WorkloadConfig};
use conquer::{
    annotate_database, consistent_answers, consistent_answers_annotated, is_annotated, rewrite_sql,
    ConstraintSet, Database, RewriteError, RewriteOptions, Rows,
};

#[test]
fn annotation_counts_agree_with_injector_on_tpch() {
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.001,
        p: 0.20,
        n: 2,
        seed: 3,
        threads: 2,
        annotate: true,
    });
    let annotations = w.annotation.as_ref().unwrap();
    for inj in &w.injection {
        let ann = annotations
            .iter()
            .find(|a| a.relation == inj.relation)
            .unwrap_or_else(|| panic!("no annotation stats for {}", inj.relation));
        assert_eq!(
            inj.inconsistent_tuples, ann.inconsistent_tuples,
            "{} inconsistent tuples",
            inj.relation
        );
        assert_eq!(
            inj.conflicting_keys, ann.violated_keys,
            "{} keys",
            inj.relation
        );
    }
    assert!(is_annotated(&w.db, &w.sigma));
    // The key index counts the same groups on its own (TPC-H keys hold no
    // NULL, the one case where the two definitions part).
    for ann in annotations {
        let conflicts =
            w.db.conflict_summary(&ann.relation)
                .unwrap_or_else(|| panic!("no key index on {}", ann.relation));
        assert_eq!(conflicts.violated_keys, ann.violated_keys as u64);
        assert_eq!(
            conflicts.tuples_in_violated_groups,
            ann.inconsistent_tuples as u64
        );
        assert_eq!(conflicts.null_key_rows, 0);
        let groups_of_two = vec![(2, ann.violated_keys as u64)];
        assert_eq!(
            conflicts.group_sizes,
            if ann.violated_keys > 0 {
                groups_of_two
            } else {
                vec![]
            },
            "{} group sizes",
            ann.relation
        );
    }
}

#[test]
fn annotation_flags_exact_share_of_tuples() {
    let db = Database::new();
    let mut script = String::from("create table t (k integer, v integer);\ninsert into t values ");
    let vals: Vec<String> = (0..400).map(|i| format!("({i}, {i})")).collect();
    script.push_str(&vals.join(", "));
    db.run_script(&script).unwrap();
    inject_table(&db, "t", &["k".to_string()], 0.25, 5, 9);

    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    let stats = annotate_database(&db, &sigma).unwrap();
    assert_eq!(stats[0].inconsistent_tuples, 100); // 25% of 400
    assert_eq!(stats[0].violated_keys, 20); // groups of n = 5

    let flagged = db.query("select count(*) from t where cons = 'n'").unwrap();
    assert_eq!(flagged.rows[0][0], conquer::Value::Int(100));
}

#[test]
fn annotated_rewriting_only_differs_syntactically() {
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.001,
        p: 0.05,
        n: 2,
        seed: 17,
        threads: 2,
        annotate: true,
    });
    for q in conquer::tpch::all_queries() {
        let plain = rewrite_sql(q.sql, &w.sigma, &RewriteOptions::default()).unwrap();
        let annotated = rewrite_sql(
            q.sql,
            &w.sigma,
            &RewriteOptions {
                annotated: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(
            plain,
            annotated,
            "{}: annotation should change the SQL",
            q.name()
        );
        assert!(annotated.contains("conq_conscand"), "{}", q.name());
        assert!(!plain.contains("conq_conscand"), "{}", q.name());
    }
}

#[test]
fn annotations_on_fully_consistent_database_short_circuit_the_filter() {
    // With p = 0 every tuple is 'y', so the conscand counter is always 0
    // and the filter's join branch selects nothing.
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.001,
        p: 0.0,
        n: 2,
        seed: 23,
        threads: 2,
        annotate: true,
    });
    let q = conquer::tpch::Q6;
    let plain = consistent_answers(&w.db, q.sql, &w.sigma).unwrap();
    let fast = consistent_answers_annotated(&w.db, q.sql, &w.sigma).unwrap();
    assert_eq!(plain.rows, fast.rows);
    // On consistent data the range degenerates to the exact answer.
    assert_eq!(plain.rows[0][0], plain.rows[0][1]);
}

#[test]
fn stale_annotations_are_callers_responsibility_but_detectable() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, v integer);
         insert into t values (1, 10), (2, 20);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    annotate_database(&db, &sigma).unwrap();
    assert!(is_annotated(&db, &sigma));
    // Re-annotating is rejected rather than silently double-flagging.
    assert!(annotate_database(&db, &sigma).is_err());
}

/// Rows as sorted strings: the two strategies may emit them in any order.
fn sorted(rows: &Rows) -> Vec<String> {
    let mut out: Vec<String> = rows.rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// The reproduction README's correctness story used to document as a wrong
/// answer: after a write that puts `a3` in conflict under its old `'y'`
/// flag, the annotated strategy refuses, naming the table, where it used
/// to keep `a3`.
#[test]
fn a_write_that_breaks_the_annotation_is_refused() {
    let db = Database::new();
    db.run_script(
        "create table account (k text, bal float);
         insert into account values ('a1', 100), ('a1', 900), ('a2', 250), ('a3', 400);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("account", ["k"]);
    annotate_database(&db, &sigma).unwrap();
    let q = "select k from account where bal > 300";
    let plain = consistent_answers(&db, q, &sigma).unwrap();
    assert_eq!(
        sorted(&plain),
        sorted(&consistent_answers_annotated(&db, q, &sigma).unwrap())
    );
    assert_eq!(plain.rows.len(), 1);

    // A new key with its correct flag keeps the annotation current.
    db.run_script("insert into account values ('a4', 500, 'y')")
        .unwrap();
    let plain = consistent_answers(&db, q, &sigma).unwrap();
    assert_eq!(plain.rows.len(), 2);
    assert_eq!(
        sorted(&plain),
        sorted(&consistent_answers_annotated(&db, q, &sigma).unwrap())
    );

    db.run_script("insert into account values ('a3', 10, 'n')")
        .unwrap();
    assert_eq!(consistent_answers(&db, q, &sigma).unwrap().rows.len(), 1);
    assert_eq!(
        consistent_answers_annotated(&db, q, &sigma).unwrap_err(),
        RewriteError::StaleAnnotation("account".into())
    );
    // Re-annotating is still refused: the relation has a `cons` column.
    assert!(annotate_database(&db, &sigma).is_err());
}

/// A row with a NULL key is in no key-index group, but the annotation
/// groups NULL keys with each other (GROUP BY's equality): two NULL-key
/// rows flagged `'n'` are current, a third flagged `'y'` is not.
#[test]
fn null_keys_are_grouped_as_the_annotation_groups_them() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, v integer);
         insert into t values (1, 10), (null, 20), (null, 30), (2, 40);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("t", ["k"]);
    annotate_database(&db, &sigma).unwrap();
    let q = "select k from t where v > 5";
    consistent_answers_annotated(&db, q, &sigma).expect("fresh annotation");
    db.run_script("insert into t values (3, 50, 'y')").unwrap();
    consistent_answers_annotated(&db, q, &sigma).expect("a new key, flagged right");
    db.run_script("insert into t values (null, 60, 'y')")
        .unwrap();
    assert_eq!(
        consistent_answers_annotated(&db, q, &sigma).unwrap_err(),
        RewriteError::StaleAnnotation("t".into())
    );
}

/// Over random insert sequences into an annotated relation, each flagged
/// right or wrong at random, the annotated strategy gives the plain
/// rewriting's answers or refuses the relation by name — never a third
/// answer.
#[test]
fn annotated_equals_plain_or_refuses_after_random_inserts() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let queries = [
        "select k from t where v > {c}",
        "select k, v from t where v < {c}",
        "select sum(v) from t where v > {c}",
        "select k, max(v) from t where v > {c} group by k",
    ];
    let (mut answered, mut refused) = (0, 0);
    for _case in 0..12 {
        let db = Database::new();
        db.run_script(
            "create table t (k integer, v integer);
             insert into t values (0, 5), (1, 15), (1, 25), (2, 35), (3, 45);",
        )
        .unwrap();
        let sigma = ConstraintSet::new().with_key("t", ["k"]);
        annotate_database(&db, &sigma).unwrap();
        for _insert in 0..8 {
            let k = next(6);
            let flag = if next(2) == 0 { 'y' } else { 'n' };
            db.run_script(&format!(
                "insert into t values ({k}, {}, '{flag}')",
                next(50)
            ))
            .unwrap();
            let q =
                queries[next(queries.len() as u64) as usize].replace("{c}", &next(50).to_string());
            let plain = consistent_answers(&db, &q, &sigma).unwrap();
            match consistent_answers_annotated(&db, &q, &sigma) {
                Ok(annotated) => {
                    assert_eq!(sorted(&annotated), sorted(&plain), "{q}");
                    answered += 1;
                }
                Err(e) => {
                    assert_eq!(e, RewriteError::StaleAnnotation("t".into()), "{q}");
                    refused += 1;
                }
            }
        }
    }
    assert!(
        answered > 0 && refused > 0,
        "{answered} answered, {refused} refused"
    );
}
