//! Batch-vs-row differential over the full benchmark and rewriting
//! surface: every TPC-H workload query under every execution strategy
//! (original, consistent rewriting, annotation-aware rewriting), plus an
//! operator-by-operator set of engine shapes, must produce the
//! **bit-identical** answer with the vectorized columnar kernels on and
//! off, at `threads ∈ {1, 2, 8}` — identical ordered rows where the query
//! fixes an order, and identical rows in the executor's deterministic
//! morsel order everywhere else. Floats compare by `to_bits`: SUM/AVG
//! accumulate in an exact superaccumulator (`conquer_engine::fsum`) on
//! both paths, so kernel batching must not perturb even the last ulp.
//!
//! The row path (`ExecOptions::with_columnar(false)`) is the oracle: it
//! is the original row-at-a-time reference executor, kept alive exactly
//! so this suite can hold the kernels to it. Also covered: value-level
//! errors (the columnar aggregate replays on the row path so the reported
//! error is the row-major one) and governor trips are mode-invariant.

use conquer::tpch::{all_queries, build_workload, WorkloadConfig};
use conquer::{
    consistent_answers_annotated_with, consistent_answers_with, EngineError, ExecOptions,
    ResourceLimits, Rows, Value,
};
use conquer_engine::Database;

const THREADS: [usize; 3] = [1, 2, 8];

fn row_opts(threads: usize) -> ExecOptions {
    ExecOptions::default()
        .with_threads(threads)
        .with_columnar(false)
}

fn col_opts(threads: usize) -> ExecOptions {
    ExecOptions::default()
        .with_threads(threads)
        .with_columnar(true)
}

/// Compare two result sets exactly — floats bit-for-bit (`to_bits`, so
/// that a NaN equals a bit-identical NaN and `0.0` differs from `-0.0`).
fn assert_rows_match(row: &Rows, col: &Rows, context: &str) {
    assert_eq!(
        row.rows.len(),
        col.rows.len(),
        "row count diverged: {context}"
    );
    for (a, b) in row.rows.iter().zip(&col.rows) {
        assert_eq!(a.len(), b.len(), "row width diverged: {context}");
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (Value::Float(x), Value::Float(y)) => {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "float diverged ({x:?} vs {y:?}): {context}"
                    );
                }
                _ => assert_eq!(x, y, "value diverged: {context}"),
            }
        }
    }
}

#[test]
fn tpch_queries_match_row_vs_columnar_under_all_strategies() {
    // sf 0.02 keeps the suite fast while leaving lineitem/orders large
    // enough to cross the executor's parallel threshold, so the morsel
    // kernels (parallel selection, partial-aggregate merge) are exercised.
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.02,
        annotate: true,
        ..WorkloadConfig::default()
    });
    for q in all_queries() {
        // Oracle: the row-at-a-time reference path, serial.
        let row_orig = w.db.query_with(q.sql, &row_opts(1)).unwrap();
        let row_rew = consistent_answers_with(&w.db, q.sql, &w.sigma, &row_opts(1)).unwrap();
        let row_ann =
            consistent_answers_annotated_with(&w.db, q.sql, &w.sigma, &row_opts(1)).unwrap();
        for threads in THREADS {
            let ctx = |s: &str| format!("{} [{s}] threads={threads}", q.name());
            let orig = w.db.query_with(q.sql, &col_opts(threads)).unwrap();
            assert_rows_match(&row_orig, &orig, &ctx("original"));
            let rew = consistent_answers_with(&w.db, q.sql, &w.sigma, &col_opts(threads)).unwrap();
            assert_rows_match(&row_rew, &rew, &ctx("rewritten"));
            let ann = consistent_answers_annotated_with(&w.db, q.sql, &w.sigma, &col_opts(threads))
                .unwrap();
            assert_rows_match(&row_ann, &ann, &ctx("annotated"));
        }
    }
}

#[test]
fn engine_op_shapes_match_row_vs_columnar() {
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.02,
        annotate: false,
        ..WorkloadConfig::default()
    });
    // One shape per executor operator/kernel: selection-bitmap filters
    // (conjunction, disjunction, negation, NULL semantics, text equality
    // over the dictionary), fused column projection vs computed
    // projection, typed global aggregates with and without DISTINCT,
    // grouped aggregation, hash joins into key and non-key columns, the
    // semi/anti gather kernel, nested-loop residuals, UNION ALL (alone and
    // feeding GROUP BY), CTE materialization (plain and computed), ORDER
    // BY with LIMIT, and correlated subqueries (which inherit the enclosing
    // query's mode).
    let shapes = [
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
        "select c.c_mktsegment, avg(o.o_totalprice) from customer c, orders o \
         where o.o_custkey = c.c_custkey group by c.c_mktsegment",
        "select o.o_orderkey from orders o, customer c where o.o_custkey = c.c_custkey",
        "select o.o_orderkey from orders o left join customer c \
         on o.o_custkey = c.c_custkey and c.c_acctbal > 0",
        "select c.c_custkey from customer c where exists \
         (select o.o_orderkey from orders o where o.o_custkey = c.c_custkey)",
        "select c.c_custkey from customer c where not exists \
         (select o.o_orderkey from orders o where o.o_custkey = c.c_custkey)",
        "select a.o_orderkey from orders a join orders b on a.o_orderkey > b.o_orderkey \
         where a.o_orderkey < 20",
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
    for sql in shapes {
        let oracle = w.db.query_with(sql, &row_opts(1)).unwrap();
        for threads in THREADS {
            let got = w.db.query_with(sql, &col_opts(threads)).unwrap();
            assert_rows_match(&oracle, &got, &format!("threads={threads}: {sql}"));
        }
    }
}

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
    let shapes = [
        "select k, v from t where k > 1",
        "select k from t where v > 0 or s = 'a'",
        "select count(*), count(k), count(v), sum(v), avg(v), min(v), max(v) from t",
        "select k, count(*), sum(v) from t group by k",
        "select s, count(distinct k) from t group by s",
        "select t.k, u.k from t join u on t.k = u.k",
        "select t.k from t where exists (select u.k from u where u.k = t.k)",
        "select t.k from t where not exists (select u.k from u where u.k = t.k)",
        "select k, v from t order by v, k",
    ];
    for sql in shapes {
        let oracle = db.query_with(sql, &row_opts(1)).unwrap();
        for threads in THREADS {
            let got = db.query_with(sql, &col_opts(threads)).unwrap();
            assert_rows_match(&oracle, &got, &format!("threads={threads}: {sql}"));
        }
    }
}

#[test]
fn value_errors_match_row_vs_columnar() {
    // The columnar aggregate visits values column-major; on a value-level
    // error it must replay on the row path so the *reported* error is the
    // one the row-major scan hits first.
    let db = Database::new();
    db.run_script(
        "create table t (a integer, b text);
         insert into t values (1, 'x'), (2, 'y'), (3, 'z');",
    )
    .unwrap();
    let cases = [
        "select sum(b) from t",
        "select a + b from t",
        "select a, sum(b) from t group by a",
        "select a from t where a + b > 0",
    ];
    for sql in cases {
        for threads in THREADS {
            let row_err = db.query_with(sql, &row_opts(threads)).unwrap_err();
            let col_err = db.query_with(sql, &col_opts(threads)).unwrap_err();
            assert_eq!(
                row_err.to_string(),
                col_err.to_string(),
                "error diverged at threads={threads}: {sql}"
            );
        }
    }
}

#[test]
fn resource_trips_are_mode_invariant() {
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.02,
        annotate: false,
        ..WorkloadConfig::default()
    });
    let sql = "select l.l_orderkey, count(*) from lineitem l, orders o \
               where l.l_orderkey = o.o_orderkey group by l.l_orderkey";
    for columnar in [false, true] {
        for threads in THREADS {
            let options = ExecOptions::default()
                .with_limits(ResourceLimits::unlimited().with_max_rows(200))
                .with_threads(threads)
                .with_columnar(columnar);
            let err = w.db.query_with(sql, &options).unwrap_err();
            assert!(
                matches!(err, EngineError::RowLimitExceeded(_)),
                "columnar={columnar} threads={threads}: expected row-limit trip, got {err:?}"
            );
        }
    }
    // First trip wins, nothing wedges: the workload answers immediately
    // afterwards on the kernel path at full fan-out.
    let rows = w.db.query_with(sql, &col_opts(8)).unwrap();
    assert!(!rows.rows.is_empty());
}
