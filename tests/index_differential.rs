//! Indexed plans against the row-at-a-time reference evaluator
//! (`conquer-reference`) over the benchmark and rewriting surface: every
//! TPC-H workload query under every execution strategy (original,
//! consistent rewriting, annotation-aware rewriting) must give the
//! reference's answer with the declared key indexes planned in (index
//! scans, index-backed hash-join builds, the index-only conflict scan, the
//! SeqScan fallback) at `threads ∈ {1, 2, 8}`, and so must the index-blind
//! plans of a twin database that holds the same tables and declares no
//! index. Point, range and NULL-key fixtures and DROP/INSERT invalidation
//! are held to the same.
//!
//! The one index-only path — `GROUP BY K HAVING count(*) > c` read off the
//! key index's conflict list — is held to more: the same rows in the same
//! *order* as the reference's first-seen groups and as the group-key kernel
//! the twin runs (`conflict_scan_is_the_group_kernel_rows_and_order`).
//!
//! Elsewhere rows compare as bags: an index-backed join keeps its declared
//! build side (the runtime inner-swap is skipped), so unordered results may
//! stream back in a different — still deterministic — order than the
//! index-blind plan produces. Queries with ORDER BY compare in their
//! delivered order. Floats compare by `to_bits`, so index gathers must not
//! perturb even the last ulp.

use conquer::tpch::{all_queries, build_workload, WorkloadConfig};
use conquer::{
    rewrite_sql, ConstraintSet, EngineError, ExecOptions, ResourceLimits, RewriteOptions, Rows,
    Value,
};
use conquer_engine::Database;

const THREADS: [usize; 3] = [1, 2, 8];

fn indexed_opts(threads: usize) -> ExecOptions {
    ExecOptions::default().with_threads(threads)
}

/// A database over `db`'s tables that declares no index: its plans are
/// the ones the planner makes with no index to consider.
fn blind_twin(db: &Database) -> Database {
    let twin = Database::new();
    for name in db.table_names() {
        twin.register((*db.table(&name).unwrap()).clone()).unwrap();
    }
    twin
}

fn assert_matches(reference: &Rows, got: &Rows, ordered: bool, context: &str) {
    if let Some(diff) = conquer_reference::diff(reference, got, ordered) {
        panic!("{context}: {diff}");
    }
}

/// `sql` on `db` (indexed) and on its index-blind twin, at every thread
/// count, against the reference's answer.
fn check(db: &Database, sql: &str, ordered: bool, label: &str) {
    let reference = conquer_reference::evaluate_sql(db, sql)
        .unwrap_or_else(|e| panic!("{label}: reference: {e}: {sql}"));
    let twin = blind_twin(db);
    for threads in THREADS {
        let context = |plans: &str| format!("{label} [{plans}] threads={threads}: {sql}");
        let indexed = db.query_with(sql, &indexed_opts(threads)).unwrap();
        assert_matches(&reference, &indexed, ordered, &context("indexed"));
        let blind = twin.query_with(sql, &indexed_opts(threads)).unwrap();
        assert_matches(&reference, &blind, ordered, &context("index-blind"));
    }
}

#[test]
fn tpch_queries_match_indexed_vs_blind_under_all_strategies() {
    // `build_workload` declares an index on every relation's key columns;
    // the lazy builds fire on the first indexed planning pass below. The
    // rewritings run as SQL text, so nothing declares an index on the twin.
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.001,
        annotate: true,
        ..WorkloadConfig::default()
    });
    let annotated = RewriteOptions { annotated: true };
    for q in all_queries() {
        let rewritten = rewrite_sql(q.sql, &w.sigma, &RewriteOptions::default()).unwrap();
        let annotated = rewrite_sql(q.sql, &w.sigma, &annotated).unwrap();
        for (strategy, sql) in [
            ("original", q.sql),
            ("rewritten", &rewritten),
            ("annotated", &annotated),
        ] {
            // Every figure query ends in ORDER BY (LIMIT), or is one row.
            check(&w.db, sql, true, &format!("{} {strategy}", q.name()));
        }
    }
}

#[test]
fn point_range_and_null_key_fixtures_match_indexed_vs_blind() {
    let db = Database::new();
    db.run_script(
        "create table t (k integer, v float, s text);
         insert into t values
           (1, 10.5, 'a'), (2, 20.5, 'b'), (2, 21.5, 'c'), (3, -0.0, 'd'),
           (4, 0.0, 'e'), (5, 50.5, 'f'), (5, 51.5, 'g'), (6, 60.5, 'h');
         insert into t (v, s) values (7.5, 'n1'), (8.5, 'n2');
         create table u (k integer, w integer);
         insert into u values (1, 100), (2, 200), (5, 500), (9, 900);
         insert into u (w) values (999);",
    )
    .unwrap();
    db.create_index("t", &["k"]).unwrap();
    db.create_index("u", &["k"]).unwrap();
    let shapes = [
        // Point lookups, hit and miss, plus a NULL literal (empty).
        "select s from t where k = 5",
        "select s from t where k = 42",
        "select s from t where k = null",
        // Ranges: open, closed, half-open, empty, and with residuals.
        "select s from t where k > 2",
        "select s from t where k >= 2 and k <= 5",
        "select s from t where k > 2 and k < 3",
        "select s from t where k > 100",
        "select s from t where k > 1 and v > 20.0",
        // NULL keys: never matched by eq, range, or join probes.
        "select s from t where k > 0 or s = 'n1'",
        "select a.s, b.s from t a, t b where a.k = b.k and a.v < b.v",
        "select t.s, u.w from t, u where t.k = u.k",
        "select t.s from t where exists (select u.k from u where u.k = t.k)",
        "select t.s from t where not exists (select u.k from u where u.k = t.k)",
        // Aggregates over index-scanned inputs (float sums bit-compare).
        "select k, sum(v), count(*) from t where k >= 2 group by k",
    ];
    for sql in shapes {
        check(&db, sql, false, "fixture");
    }
}

#[test]
fn rewriting_self_join_plans_an_index_under_use_stats() {
    // The acceptance shape: ConQuer's Candidates/Filter rewriting
    // self-joins each relation on its key columns, and the planner must
    // probe the auto-declared key index for it.
    let db = Database::new();
    db.run_script(
        "create table customer (custkey text, acctbal float);
         insert into customer values
           ('c1', 2000), ('c1', 100), ('c2', 2500), ('c3', 2200), ('c3', 2500),
           ('c4', 900), ('c5', 1200), ('c5', 1300), ('c6', 400), ('c7', 3100);",
    )
    .unwrap();
    let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
    conquer::core::declare_key_indexes(&db, &sigma);
    let rewritten = rewrite_sql(
        "select custkey from customer where acctbal > 1000",
        &sigma,
        &RewriteOptions::default(),
    )
    .unwrap();
    // With CTE materialization on (the default), the key self-join runs
    // inside the materialization pass and the top-level plan only scans
    // the materialized batches; inline the CTEs so EXPLAIN shows the
    // base-table joins and their access paths.
    let mut inline = indexed_opts(1);
    inline.materialize_ctes = false;
    let plan = db.explain_with(&rewritten, &inline).unwrap();
    assert!(
        plan.contains("access=index(custkey"),
        "rewriting self-join must probe the key index:\n{plan}"
    );
    let reference = conquer_reference::evaluate_sql(&db, &rewritten).unwrap();
    for opts in [indexed_opts(1), inline] {
        let indexed = db.query_with(&rewritten, &opts).unwrap();
        assert_matches(&reference, &indexed, false, "rewriting self-join");
    }
}

#[test]
fn governor_trips_are_index_invariant() {
    // A row-budget trip far below either plan's row volume must fire with
    // and without indexes to plan with — an index access path changes
    // which operators account rows, never whether a blown budget is
    // noticed.
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.02,
        annotate: false,
        ..WorkloadConfig::default()
    });
    let twin = blind_twin(&w.db);
    let sql = "select l.l_orderkey, count(*) from lineitem l, orders o \
               where l.l_orderkey = o.o_orderkey group by l.l_orderkey";
    for (plans, db) in [("indexed", &w.db), ("index-blind", &twin)] {
        for threads in THREADS {
            let options = ExecOptions::default()
                .with_limits(ResourceLimits::unlimited().with_max_rows(200))
                .with_threads(threads);
            let err = db.query_with(sql, &options).unwrap_err();
            assert!(
                matches!(err, EngineError::RowLimitExceeded(_)),
                "{plans} threads={threads}: expected row-limit trip, got {err:?}"
            );
        }
    }
    // First trip wins, nothing wedges: the workload answers immediately
    // afterwards with indexes on at full fan-out.
    let rows = w.db.query_with(sql, &indexed_opts(8)).unwrap();
    assert!(!rows.rows.is_empty());
}

#[test]
fn drop_and_insert_invalidation_matches_blind_plans() {
    // DDL/DML churn around a built index: every mutation must invalidate
    // or extend the postings so the very next indexed query matches the
    // reference — and the index-blind plans of a twin taken then.
    let db = Database::new();
    db.run_script(
        "create table t (k integer, s text);
         insert into t values (1, 'a'), (2, 'b'), (2, 'c'), (3, 'd');",
    )
    .unwrap();
    db.create_index("t", &["k"]).unwrap();
    let check_all = |label: &str| {
        for sql in [
            "select s from t where k = 2",
            "select s from t where k > 1",
            "select a.s, b.s from t a, t b where a.k = b.k",
        ] {
            check(&db, sql, false, label);
        }
    };
    check_all("initial build");
    db.run_script("insert into t values (2, 'e'), (9, 'f')")
        .unwrap();
    check_all("after insert");
    db.drop_table("t").unwrap();
    assert!(db.index_status().is_empty(), "drop removes the declaration");
    db.run_script(
        "create table t (k integer, s text);
         insert into t values (2, 'x'), (4, 'y');",
    )
    .unwrap();
    // The old declaration died with the table; re-declare and re-check.
    db.create_index("t", &["k"]).unwrap();
    check_all("after drop and recreate");
}

/// `create table t (…); insert …` for `rows` of already-rendered SQL
/// literals, in batches small enough for one statement each.
fn load(db: &Database, ddl: &str, rows: &[String]) {
    db.run_script(ddl).unwrap();
    for chunk in rows.chunks(500) {
        db.run_script(&format!("insert into t values {}", chunk.join(", ")))
            .unwrap();
    }
}

/// The `HAVING` shapes the conflict scan answers, on `key`.
fn conflict_queries(key: &str) -> Vec<String> {
    ["count(*) > 1", "count(*) >= 2", "count(*) > 2"]
        .iter()
        .map(|having| format!("select {key} from t group by {key} having {having}"))
        .collect()
}

/// Indexed answers equal the reference's and the index-blind group
/// kernel's, row for row in delivered order, at every thread count;
/// `index_only` says whether the plan must (or must not) read the conflict
/// list.
fn assert_conflicts_match(db: &Database, key: &str, index_only: bool, label: &str) {
    for sql in conflict_queries(key) {
        let plan = db.explain_with(&sql, &indexed_opts(1)).unwrap();
        assert_eq!(
            plan.contains("conflicts)"),
            index_only,
            "{label}: {sql}\n{plan}"
        );
        check(db, &sql, true, label);
    }
    // The rewritings' use of it: rows of `t` whose key is (not) in the
    // conflict set — a semi/anti join whose build input is the scan
    // (`conflict_list_is_the_build_input_never_the_probe_target`). The
    // narrowest set keeps the reference's per-row subquery short.
    let on: Vec<String> = key.split(", ").map(|k| format!("v.{k} = t.{k}")).collect();
    for quantifier in ["exists", "not exists"] {
        let probe = format!(
            "with v as ({}) select * from t where {quantifier} (select * from v where {})",
            conflict_queries(key)[2],
            on.join(" and ")
        );
        check(db, &probe, true, label);
    }
}

#[test]
fn conflict_scan_is_the_group_kernel_rows_and_order() {
    // 6 000 rows (past the 4 096-row parallel threshold; every key of the
    // first morsel is new, so the blind kernel folds them on one worker at
    // threads > 1) whose key repeats with period
    // 2 500: keys 0..1000 come up three times, 1000..2500 twice — and the
    // tail below adds singletons. First-row order is not key order: the
    // keys are scrambled by a multiplier coprime to the period.
    let key_of = |i: usize| (i % 2500) * 7 % 2500;
    let int_rows: Vec<String> = (0..6000)
        .map(|i| format!("({}, {i})", key_of(i)))
        .chain((0..50).map(|i| format!("({}, 0)", 10_000 + i)))
        .collect();
    let db = Database::new();
    load(&db, "create table t (k integer, v integer)", &int_rows);
    db.create_index("t", &["k"]).unwrap();
    assert_conflicts_match(&db, "k", true, "integer key, groups of 1/2/3");
    // Other shapes over the same table stay on the kernel: a count in the
    // projection, a threshold every group passes, extra group columns.
    for sql in [
        "select k, count(*) from t group by k having count(*) > 1",
        "select k from t group by k having count(*) > 0",
        "select k, v from t group by k, v having count(*) > 1",
    ] {
        let plan = db.explain_with(sql, &indexed_opts(1)).unwrap();
        assert!(!plan.contains("conflicts)"), "{sql}\n{plan}");
        check(&db, sql, true, "kernel shapes");
    }

    // Text key, and a two-column (integer, text) key declared in the
    // opposite order to the GROUP BY.
    let text_rows: Vec<String> = (0..6000)
        .map(|i| {
            format!(
                "('k{}', {}, 'p{}')",
                key_of(i),
                key_of(i) % 50,
                key_of(i) / 50
            )
        })
        .collect();
    let db = Database::new();
    load(
        &db,
        "create table t (s text, a integer, b text)",
        &text_rows,
    );
    db.create_index("t", &["s"]).unwrap();
    assert_conflicts_match(&db, "s", true, "text key");
    let db = Database::new();
    load(
        &db,
        "create table t (s text, a integer, b text)",
        &text_rows,
    );
    db.create_index("t", &["b", "a"]).unwrap();
    assert_conflicts_match(&db, "a, b", true, "two-column key");

    // All-consistent and all-duplicate tables.
    let db = Database::new();
    let unique: Vec<String> = (0..100).map(|i| format!("({i}, 0)")).collect();
    load(&db, "create table t (k integer, v integer)", &unique);
    db.create_index("t", &["k"]).unwrap();
    assert_conflicts_match(&db, "k", true, "all consistent");
    let db = Database::new();
    let doubled: Vec<String> = (0..100).map(|i| format!("({}, {i})", i % 50)).collect();
    load(&db, "create table t (k integer, v integer)", &doubled);
    db.create_index("t", &["k"]).unwrap();
    assert_conflicts_match(&db, "k", true, "all duplicate");

    // NULL-key rows: GROUP BY gives them a group, the postings do not hold
    // them, so the rule steps aside — and the NULL group is in the answer.
    db.run_script("insert into t (v) values (1000), (1001)")
        .unwrap();
    assert_conflicts_match(&db, "k", false, "null keys");
    let nulls = db
        .query_with(&conflict_queries("k")[0], &indexed_opts(1))
        .unwrap();
    assert!(nulls.rows.iter().any(|r| r[0] == Value::Null));
}

#[test]
fn conflict_list_is_the_build_input_never_the_probe_target() {
    // 1 000 of 10 000 keys are doubled. A semi/anti join against the
    // conflict scan reads the listed keys as its build *input* — the typed
    // existence kernel hashes those 1 000 — and never probes the index's
    // postings of all 10 000 in their stead, whatever the probe side's
    // size. (It once did, cost-gated, for small probe sides; a typed build
    // of the few listed keys beat it at every size measured.)
    let rows: Vec<String> = (0..11_000)
        .map(|i| format!("({}, {i})", i % 10_000))
        .collect();
    let db = Database::new();
    load(&db, "create table t (k integer, v integer)", &rows);
    db.create_index("t", &["k"]).unwrap();
    let with_v = "with v as (select k from t group by k having count(*) > 1) select v from t";
    for filter in ["v < 300 and", ""] {
        for quantifier in ["exists", "not exists"] {
            let sql =
                format!("{with_v} where {filter} {quantifier} (select * from v where v.k = t.k)");
            let plan = db.explain_with(&sql, &indexed_opts(1)).unwrap();
            let join = plan
                .lines()
                .find(|l| l.contains("HashJoin"))
                .unwrap_or_else(|| panic!("no join:\n{plan}"));
            assert!(!join.contains("access=index"), "{sql}\n{plan}");
            assert!(plan.contains("cols] access=index(k conflicts)"), "{plan}");
            check(&db, &sql, true, "conflict list");
        }
    }
    // The same holds against a bare indexed table: an existence test reads
    // no postings, a join that emits the build rows does.
    for (sql, on_index) in [
        (
            "select v from t where exists (select * from t u where u.k = t.k)",
            false,
        ),
        ("select t.v, u.v from t, t u where u.k = t.k", true),
    ] {
        let plan = db.explain_with(sql, &indexed_opts(1)).unwrap();
        assert_eq!(plan.contains("access=index(k)"), on_index, "{sql}\n{plan}");
    }
}

#[test]
fn conflict_scan_follows_inserts_and_drops() {
    // The conflict list is extended by INSERT, not rebuilt: a key going
    // 1 -> 2 enters it (at its first row's place, ahead of later groups), a
    // key going 2 -> 3 crosses `> 2`, a fresh key changes nothing — and
    // each state answers exactly like a database loaded in one go.
    let db = Database::new();
    db.run_script(
        "create table t (k integer, s text);
         insert into t values (1, 'a'), (2, 'b'), (3, 'c'), (3, 'd'), (4, 'e');",
    )
    .unwrap();
    db.create_index("t", &["k"]).unwrap();
    let mut all = vec!["(1, 'a')", "(2, 'b')", "(3, 'c')", "(3, 'd')", "(4, 'e')"];
    assert_conflicts_match(&db, "k", true, "initial build");
    for (label, rows) in [
        ("1 -> 2 ahead of an older group", vec!["(1, 'f')"]),
        ("2 -> 3", vec!["(3, 'g')"]),
        (
            "fresh key, then 1 -> 2 -> 3 in one statement",
            vec!["(9, 'h')", "(4, 'i')", "(4, 'j')"],
        ),
    ] {
        db.run_script(&format!("insert into t values {}", rows.join(", ")))
            .unwrap();
        all.extend(rows);
        assert_conflicts_match(&db, "k", true, label);
        let rebuilt = Database::new();
        rebuilt
            .run_script(&format!(
                "create table t (k integer, s text); insert into t values {}",
                all.join(", ")
            ))
            .unwrap();
        rebuilt.create_index("t", &["k"]).unwrap();
        for sql in conflict_queries("k") {
            let fresh = rebuilt.query_with(&sql, &indexed_opts(1)).unwrap();
            let extended = db.query_with(&sql, &indexed_opts(1)).unwrap();
            let context = format!("{label}, incremental vs rebuild: {sql}");
            assert_matches(&fresh, &extended, true, &context);
        }
        assert_eq!(
            db.conflict_summary("t"),
            rebuilt.conflict_summary("t"),
            "{label}"
        );
    }
    let summary = db.conflict_summary("t").unwrap();
    assert_eq!(
        (summary.violated_keys, summary.tuples_in_violated_groups),
        (3, 8)
    );
    assert_eq!(summary.group_sizes, vec![(2, 1), (3, 2)]);

    db.drop_table("t").unwrap();
    assert_eq!(db.conflict_summary("t"), None);
    db.run_script(
        "create table t (k integer, s text);
         insert into t values (7, 'x'), (7, 'y'), (8, 'z');",
    )
    .unwrap();
    // The declaration died with the table: the kernel answers until it is
    // re-declared.
    assert_conflicts_match(&db, "k", false, "recreated, undeclared");
    db.create_index("t", &["k"]).unwrap();
    assert_conflicts_match(&db, "k", true, "recreated, re-declared");
}
