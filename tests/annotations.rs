//! Annotation-layer integration tests: the offline pass, its interaction
//! with the injector, and the annotation-aware rewriting on TPC-H data.

use conquer::tpch::{build_workload, inject_table, WorkloadConfig};
use conquer::{
    annotate_database, consistent_answers, consistent_answers_annotated, is_annotated, rewrite_sql,
    ConstraintSet, Database, RewriteOptions,
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
