//! The columnar engine against the row-at-a-time reference evaluator
//! (`conquer-reference`, a naive nested-loop interpreter of the SQL text
//! that shares no code with the engine's binder, planner, optimizer or
//! operators) over the benchmark and rewriting surface: every TPC-H
//! workload query as written, as ConQuer's rewriting and as the
//! annotation-aware rewriting — the reference evaluating the rewritten SQL
//! text itself — plus an operator-by-operator set of engine shapes, at
//! `threads ∈ {1, 2, 8}`.
//!
//! Answers compare value for value, variant for variant and float bit for
//! bit: SUM/AVG are correctly rounded on both sides (`fsum::ExactSum`).
//! They compare in order wherever the engine promises one — ORDER BY, and
//! the first-seen order of filters, GROUP BY, DISTINCT and `UNION ALL` over
//! one input — and as bags over joins, whose output order is the engine's
//! own. Value-level errors must be the reference's, message for message.
//!
//! The reference is quadratic by design, so the TPC-H instances are small:
//! the workload queries run at SF 0.001 at p = 5 %, n = 2, where `lineitem`
//! still crosses the executor's 4 096-row parallel threshold, and the
//! operator shapes at SF 0.005, where `orders` does. Thread-count
//! invariance at a scale where every table splits into morsels is
//! `parallel_differential`'s.

use conquer::tpch::{all_queries, build_workload, WorkloadConfig};
use conquer::{
    consistent_answers_annotated_with, consistent_answers_with, rewrite_sql, ExecOptions,
    RewriteOptions, Rows,
};
use conquer_engine::Database;

const THREADS: [usize; 3] = [1, 2, 8];

fn opts(threads: usize) -> ExecOptions {
    ExecOptions::default().with_threads(threads)
}

fn assert_matches(reference: &Rows, got: &Rows, ordered: bool, context: &str) {
    if let Some(diff) = conquer_reference::diff(reference, got, ordered) {
        panic!("{context}: {diff}");
    }
}

/// `sql`'s answer from the reference, then from the engine at every thread
/// count, compared in order when `ordered`.
fn check(db: &Database, sql: &str, ordered: bool) {
    let reference = conquer_reference::evaluate_sql(db, sql)
        .unwrap_or_else(|e| panic!("reference: {e}: {sql}"));
    for threads in THREADS {
        let got = db.query_with(sql, &opts(threads)).unwrap();
        assert_matches(
            &reference,
            &got,
            ordered,
            &format!("threads={threads}: {sql}"),
        );
    }
}

/// The row-at-a-time reference against the columnar engine on every
/// workload query as written, rewritten and annotated.
#[test]
fn tpch_queries_match_row_vs_columnar_under_all_strategies() {
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.001,
        annotate: true,
        ..WorkloadConfig::default()
    });
    let annotated = RewriteOptions { annotated: true };
    for q in all_queries() {
        // The rewritings as the SQL text ConQuer hands a host database.
        let rewritten = rewrite_sql(q.sql, &w.sigma, &RewriteOptions::default()).unwrap();
        let annotated = rewrite_sql(q.sql, &w.sigma, &annotated).unwrap();
        let reference = |sql: &str| conquer_reference::evaluate_sql(&w.db, sql).unwrap();
        let (orig_ref, rew_ref, ann_ref) = (
            reference(q.sql),
            reference(&rewritten),
            reference(&annotated),
        );
        // Every figure query ends in ORDER BY (LIMIT), or is one global row.
        for threads in THREADS {
            let ctx = |s: &str| format!("{} [{s}] threads={threads}", q.name());
            let orig = w.db.query_with(q.sql, &opts(threads)).unwrap();
            assert_matches(&orig_ref, &orig, true, &ctx("original"));
            let rew = consistent_answers_with(&w.db, q.sql, &w.sigma, &opts(threads)).unwrap();
            assert_matches(&rew_ref, &rew, true, &ctx("rewritten"));
            let ann =
                consistent_answers_annotated_with(&w.db, q.sql, &w.sigma, &opts(threads)).unwrap();
            assert_matches(&ann_ref, &ann, true, &ctx("annotated"));
        }
    }
}

/// The row-at-a-time reference against the columnar engine, one shape
/// per operator.
#[test]
fn engine_op_shapes_match_row_vs_columnar() {
    // SF 0.005: `orders` (7 500 rows) crosses the parallel threshold, so
    // every shape over it runs split into morsels at threads 2 and 8.
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.005,
        annotate: false,
        ..WorkloadConfig::default()
    });
    // One shape per executor operator/kernel over one input, compared in
    // order: selection-bitmap filters (conjunction, disjunction, negation,
    // text equality over the dictionary), fused column projection vs
    // computed projection, typed global aggregates with and without
    // DISTINCT, grouped aggregation, the semi/anti gather kernel, DISTINCT,
    // UNION ALL (alone and feeding GROUP BY), CTE materialization (plain
    // and computed), ORDER BY with LIMIT, and a scalar subquery.
    let in_order = [
        "select o_orderkey from orders o where o_totalprice > 1000 and o_shippriority = 0",
        "select o_orderkey from orders o where o_totalprice > 100000 or o_orderkey < 50",
        "select o_orderkey from orders o where not (o_totalprice > 1000)",
        "select c_custkey from customer c where c_mktsegment = 'BUILDING'",
        "select o_orderkey, o_custkey, o_totalprice from orders o where o_orderkey > 0",
        "select o_orderkey + o_custkey, o_totalprice * 2.0 from orders o",
        "select count(*), sum(o_totalprice), avg(o_totalprice), min(o_orderdate), \
         max(o_orderdate) from orders o",
        "select count(distinct o_custkey), sum(distinct o_shippriority) from orders o",
        "select o_custkey, count(*), sum(o_totalprice) from orders o group by o_custkey",
        "select c.c_custkey from customer c where exists \
         (select o.o_orderkey from orders o where o.o_custkey = c.c_custkey)",
        "select c.c_custkey from customer c where not exists \
         (select o.o_orderkey from orders o where o.o_custkey = c.c_custkey)",
        "select distinct o_custkey from orders o",
        "select o_orderkey from orders o union all select c_custkey from customer c",
        "with big as (select o_custkey, o_totalprice from orders o where o_totalprice > 500) \
         select o_custkey, sum(o_totalprice) from big group by o_custkey",
        "select o_orderkey, o_totalprice from orders o order by o_totalprice desc, o_orderkey \
         limit 25",
        "select c.c_custkey from customer c where c.c_acctbal > \
         (select avg(c2.c_acctbal) from customer c2)",
        // UNION ALL of two tables (two text dictionaries, differently
        // typed key columns) feeding GROUP BY: chunks concatenate and the
        // group-key kernel compares text by string.
        "select u.seg, count(*), min(u.k), max(u.bal) from \
         (select c_mktsegment as seg, c_custkey as k, c_acctbal as bal from customer c \
          union all \
          select o_orderpriority as seg, o_orderkey as k, o_totalprice as bal from orders o) u \
         group by u.seg",
        // A computed-projection CTE in the shape of the rewritings'
        // `conq_base` (COALESCE, `+ - *`, CASE WHEN .. IS NULL), then
        // per-key MIN/MAX, then an outer SUM — RewriteAgg end to end.
        "with base as (select o.o_custkey as k, o.o_orderstatus as st, \
                  coalesce(o.o_totalprice, 0) as e1, \
                  coalesce(o.o_totalprice * (1 - 0.05) * (1 + o.o_shippriority), 0) as e2, \
                  case when o.o_totalprice is null then 0 else 1 end as c1, \
                  1 as one from orders o where o.o_orderdate <= date '1998-09-02'), \
              per_key as (select b.k as k, b.st as st, min(b.e1) as lo, max(b.e2) as hi, \
                  min(b.c1) as cmin, max(b.one) as n from base b group by b.k, b.st) \
         select p.st, sum(p.lo), sum(p.hi), sum(p.cmin), sum(p.n) from per_key p group by p.st",
    ];
    // Hash joins into key and non-key columns, an outer join with a
    // residual, a nested-loop join, and grouping over a join: bags.
    let as_bags = [
        "select c.c_mktsegment, avg(o.o_totalprice) from customer c, orders o \
         where o.o_custkey = c.c_custkey group by c.c_mktsegment",
        "select o.o_orderkey from orders o, customer c where o.o_custkey = c.c_custkey",
        "select o.o_orderkey from orders o left join customer c \
         on o.o_custkey = c.c_custkey and c.c_acctbal > 0",
        "select a.o_orderkey from orders a join orders b on a.o_orderkey > b.o_orderkey \
         where a.o_orderkey < 20",
    ];
    for sql in in_order {
        check(&w.db, sql, true);
    }
    for sql in as_bags {
        check(&w.db, sql, false);
    }
}

/// The row-at-a-time reference against the columnar engine over NULLs.
#[test]
fn null_heavy_kernels_match_row_vs_columnar() {
    // Validity-bitmap edge cases: NULLs in filter columns (3VL), in
    // aggregate arguments (skipped, COUNT(*) vs COUNT(col)), in join keys
    // (never match), and in group keys (NULL is its own group).
    let db = Database::new();
    db.run_script(
        "create table t (k integer, v float, s text);
         insert into t values (1, 1.5, 'a'), (null, 2.5, 'b'), (2, null, null),
                              (1, -0.0, 'a'), (null, null, 'c'), (3, 0.0, 'b');
         create table u (k integer);
         insert into u values (1), (null), (3), (4);",
    )
    .unwrap();
    for sql in [
        "select k, v from t where k > 1",
        "select k from t where v > 0 or s = 'a'",
        "select count(*), count(k), count(v), sum(v), avg(v), min(v), max(v) from t",
        "select k, count(*), sum(v) from t group by k",
        "select s, count(distinct k) from t group by s",
        "select t.k from t where exists (select u.k from u where u.k = t.k)",
        "select t.k from t where not exists (select u.k from u where u.k = t.k)",
        "select k, v from t order by v, k",
    ] {
        check(&db, sql, true);
    }
    check(&db, "select t.k, u.k from t join u on t.k = u.k", false);
}

/// The row-at-a-time reference against the columnar engine on errors.
#[test]
fn value_errors_match_row_vs_columnar() {
    // The columnar aggregate visits values column-major; on a value-level
    // error it replays on the row path, so the *reported* error is the one
    // a row-major evaluation hits first — the reference's.
    let db = Database::new();
    db.run_script(
        "create table t (a integer, b text);
         insert into t values (1, 'x'), (2, 'y'), (3, 'z');",
    )
    .unwrap();
    for sql in [
        "select sum(b) from t",
        "select a + b from t",
        "select a, sum(b) from t group by a",
        "select a from t where a + b > 0",
    ] {
        let reference = conquer_reference::evaluate_sql(&db, sql).unwrap_err();
        for threads in THREADS {
            let got = db.query_with(sql, &opts(threads)).unwrap_err();
            assert_eq!(
                reference.to_string(),
                got.to_string(),
                "error diverged at threads={threads}: {sql}"
            );
        }
    }
}
