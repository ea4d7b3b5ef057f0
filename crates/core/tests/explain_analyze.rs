//! EXPLAIN ANALYZE over ConQuer rewritings: the per-operator stats the
//! executor reports must agree with the cardinalities the query actually
//! produces, on the plans the rewriting generates (CTEs, anti joins,
//! aggregation).

use conquer_core::{
    annotate_database, consistent_answers, consistent_answers_annotated, prepare_rewrite, rewrite,
    rewrite_sql, ConstraintSet, RewriteOptions,
};
use conquer_engine::stats::NodeStats;
use conquer_engine::{explain_analyze, stats_json, Database, ExecOptions, Value};
use conquer_sql::parse_query;

fn inconsistent_db() -> Database {
    let db = Database::new();
    db.run_script(
        "create table emp (id integer, dept text, salary integer);
         insert into emp values
             (1, 'eng', 100), (1, 'eng', 200),
             (2, 'eng', 150),
             (3, 'ops', 90), (3, 'sales', 95);",
    )
    .unwrap();
    db
}

fn sigma() -> ConstraintSet {
    ConstraintSet::new().with_key("emp", ["id"])
}

/// The representative query: a selection over the inconsistent relation.
/// Its rewriting builds candidate/filter CTEs and an anti join.
const QUERY: &str = "select emp.id, emp.dept from emp where emp.salary > 80";

#[test]
fn explain_analyze_root_cardinality_matches_result() {
    let db = inconsistent_db();
    let rewritten = rewrite(
        &parse_query(QUERY).unwrap(),
        &sigma(),
        &RewriteOptions::default(),
    )
    .unwrap();
    let (rows, plan, stats) = db
        .execute_query_traced(&rewritten, &ExecOptions::default())
        .unwrap();

    // The traced run and the plain rewriting agree.
    let plain = consistent_answers(&db, QUERY, &sigma()).unwrap();
    assert_eq!(rows.rows, plain.rows);

    // Root operator's reported output cardinality is the result size.
    assert_eq!(stats.rows_out as usize, rows.rows.len());

    // Keys 1 and 2 are certain ('eng' in every repair); key 3's dept
    // depends on which tuple survives.
    assert_eq!(
        rows.rows,
        vec![
            vec![Value::Int(1), Value::str("eng")],
            vec![Value::Int(2), Value::str("eng")],
        ]
    );

    // Every rendered line carries its measured row count.
    let text = conquer_engine::explain::explain_analyze(&plan, &stats);
    for line in text.lines() {
        assert!(line.contains("rows="), "unannotated line: {line}");
    }
}

#[test]
fn explain_analyze_inner_cardinalities_are_consistent() {
    let db = inconsistent_db();
    let rewritten = rewrite(
        &parse_query(QUERY).unwrap(),
        &sigma(),
        &RewriteOptions::default(),
    )
    .unwrap();
    let (rows, plan, stats) = db
        .execute_query_traced(&rewritten, &ExecOptions::default())
        .unwrap();

    // Walk the stats tree: every operator ran exactly once (no correlated
    // re-execution in this plan), and each node's input equals the sum of
    // its children's outputs by construction.
    fn walk(s: &NodeStats, checks: &mut u64) {
        assert_eq!(s.invocations, 1);
        let child_out: u64 = s.children.iter().map(|c| c.rows_out).sum();
        assert_eq!(s.rows_in(), child_out);
        *checks += 1;
        for c in &s.children {
            walk(c, checks);
        }
    }
    let mut checks = 0;
    walk(&stats, &mut checks);
    assert!(
        checks > 3,
        "rewritten plan should have several operators, saw {checks}"
    );

    // The human and JSON renderings describe the same tree.
    let text = explain_analyze(&plan, &stats);
    let json = stats_json(&plan, &stats);
    assert_eq!(text.lines().count() as u64, checks);
    assert_eq!(
        json.get("rows_out"),
        Some(&conquer_obs::Json::UInt(rows.rows.len() as u64))
    );
}

/// CTEs run at plan time, so the body's tree holds only scans of their
/// results; `EXPLAIN ANALYZE` lists each materialized CTE above it, in the
/// order it ran, with its rows and wall time — and the traced entry point
/// hands the same blocks out as data.
#[test]
fn explain_analyze_lists_the_materialized_ctes() {
    let db = inconsistent_db();
    consistent_answers(&db, QUERY, &sigma()).unwrap(); // declares the key index
    let rewritten = rewrite(
        &parse_query(QUERY).unwrap(),
        &sigma(),
        &RewriteOptions::default(),
    )
    .unwrap();
    let options = ExecOptions::default();
    let (rows, text) = db
        .explain_analyze_with(&rewritten.to_string(), &options)
        .unwrap();
    let headers: Vec<&str> = text.lines().filter(|l| l.starts_with("CTE ")).collect();
    // `conq_conflicts` is answered by the key index and never materialized:
    // it shows as the build side of `conq_suspects`' semi join.
    let names: Vec<&str> = headers
        .iter()
        .map(|l| l.split_whitespace().nth(1).unwrap())
        .collect();
    assert_eq!(names, ["conq_candidates", "conq_suspects", "conq_filter"]);
    for header in &headers {
        assert!(
            header.contains("(rows=") && header.contains("wall=") && header.contains("est_cost="),
            "{header}"
        );
    }
    assert!(headers[0].contains("(rows=4 "), "{text}"); // (1,eng) (2,eng) (3,ops) (3,sales)
    assert!(headers[1].contains("(rows=3 "), "{text}"); // keys 1 and 3 are violated
    assert!(text.contains("access=index(id conflicts)"), "{text}");
    // CTE blocks are indented under their header; the body follows, its
    // root flush left.
    let flush_left: Vec<&str> = text.lines().filter(|l| !l.starts_with(' ')).collect();
    assert_eq!(flush_left.len(), headers.len() + 1, "{text}");
    assert!(!flush_left[headers.len()].starts_with("CTE "), "{text}");
    for line in text.lines() {
        assert!(line.contains("rows="), "unannotated line: {line}");
    }

    let (traced_rows, plan, stats, ctes) = db
        .execute_query_traced_with_ctes(&rewritten, &options)
        .unwrap();
    assert_eq!(traced_rows.rows, rows.rows);
    assert_eq!(
        ctes.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
        names
    );
    let json = conquer_engine::ctes_json(&ctes);
    let conquer_obs::Json::Arr(entries) = &json else {
        panic!("not an array: {}", json.render())
    };
    assert_eq!(
        entries[0].get("rows_out"),
        Some(&conquer_obs::Json::UInt(4))
    );
    assert!(entries[0].get("plan").is_some() && entries[0].get("est_cost").is_some());
    // Asked for nothing, the planner records nothing — and the body is the
    // same plan either way.
    let (_, plain_plan, plain_stats) = db.execute_query_traced(&rewritten, &options).unwrap();
    assert_eq!(
        explain_analyze(&plain_plan, &plain_stats).lines().count(),
        explain_analyze(&plan, &stats).lines().count()
    );
}

#[test]
fn explain_lists_the_rewritten_plan_without_running_it() {
    let db = inconsistent_db();
    let rewritten = rewrite(
        &parse_query(QUERY).unwrap(),
        &sigma(),
        &RewriteOptions::default(),
    )
    .unwrap();
    let text = db
        .explain_with(&rewritten.to_string(), &ExecOptions::default())
        .unwrap();
    // The rewriting planner turns the NOT EXISTS filter into an anti join.
    assert!(
        text.contains("Anti") || text.contains("Filter"),
        "expected filtering machinery in:\n{text}"
    );
    // Plain EXPLAIN carries planner estimates but no measurements.
    assert!(
        text.contains("est_rows="),
        "explain should print cardinality estimates:\n{text}"
    );
    assert!(
        !text.contains("wall=") && !text.contains("(rows="),
        "plain explain must not claim measurements:\n{text}"
    );
}

/// The entry points declare the key indexes of the relations their query
/// reads (DESIGN.md §14), so a caller who never heard of
/// `declare_key_indexes` still gets the indexed plans: on a fresh database
/// `EXPLAIN` of the rewriting shows the sequential plan before the first
/// call and both index access paths — the conflict scan and the key
/// self-join — after it, through each of the three doors.
#[test]
fn entry_points_declare_the_keys_their_query_reads() {
    type Call = fn(&Database);
    let calls: [(&str, Call); 3] = [
        ("consistent_answers", |db| {
            consistent_answers(db, QUERY, &sigma()).unwrap();
        }),
        ("consistent_answers_annotated", |db| {
            annotate_database(db, &sigma()).unwrap();
            consistent_answers_annotated(db, QUERY, &sigma()).unwrap();
        }),
        ("PreparedRewrite::execute_on", |db| {
            prepare_rewrite(QUERY, &sigma(), &RewriteOptions::default())
                .unwrap()
                .execute_on(db, &ExecOptions::default())
                .unwrap();
        }),
    ];
    let rewritten = rewrite_sql(QUERY, &sigma(), &RewriteOptions::default()).unwrap();
    // EXPLAIN of a CTE query shows the body only; inline the CTEs to see
    // the base-table access paths.
    let inline = ExecOptions {
        materialize_ctes: false,
        ..ExecOptions::default()
    };
    for (door, call) in calls {
        let db = inconsistent_db();
        let before = db.explain_with(&rewritten, &inline).unwrap();
        assert!(!before.contains("access=index"), "{door}:\n{before}");
        call(&db);
        assert_eq!(db.declared_indexes("emp"), vec![vec!["id".to_string()]]);
        let after = db.explain_with(&rewritten, &inline).unwrap();
        assert!(
            after.contains("access=index(id conflicts)"),
            "{door}:\n{after}"
        );
        assert!(
            after.contains("+residual] access=index(id)"),
            "{door}:\n{after}"
        );
        // Declared once: the second call changes nothing.
        let version = db.table_version("emp");
        consistent_answers(&db, QUERY, &sigma()).unwrap();
        assert_eq!(db.table_version("emp"), version, "{door}");
    }
}
