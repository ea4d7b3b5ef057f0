//! End-to-end tests over the TPC-H workload: every benchmark query
//! rewrites, executes, and agrees across the plain and annotated
//! rewritings, the engine's ablation configurations and the reference
//! evaluator.

use conquer::tpch::{all_queries, build_workload, WorkloadConfig};
use conquer::{
    consistent_answers, consistent_answers_annotated, parse_query, rewrite, ExecOptions,
    RewriteOptions,
};

fn small_workload(annotate: bool) -> conquer::tpch::Workload {
    build_workload(&WorkloadConfig {
        scale_factor: 0.001,
        p: 0.10,
        n: 2,
        seed: 1234,
        threads: 2,
        annotate,
    })
}

/// Compare two result sets as multisets, value by value, with floats at
/// 1e-9 relative tolerance: two different plans for the same answer may
/// associate float SUM/AVG differently (morsel-parallel execution makes
/// this routine — DESIGN.md §8), so last-ulp differences are expected.
fn assert_agree(left: &conquer::Rows, right: &conquer::Rows, label: &str) {
    let key = |rows: &conquer::Rows| -> Vec<(Vec<String>, Vec<conquer::Value>)> {
        let mut v: Vec<_> = rows
            .rows
            .iter()
            .map(|r| {
                (
                    r.iter().map(ToString::to_string).collect::<Vec<_>>(),
                    r.clone(),
                )
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    };
    let (ls, rs) = (key(left), key(right));
    assert_eq!(ls.len(), rs.len(), "{label}: row counts differ");
    for ((_, a), (_, b)) in ls.iter().zip(&rs) {
        assert_eq!(a.len(), b.len(), "{label}: row widths differ");
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (conquer::Value::Float(x), conquer::Value::Float(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    assert!((x - y).abs() <= 1e-9 * scale, "{label}: {x} vs {y}");
                }
                _ => assert_eq!(x, y, "{label}: values differ"),
            }
        }
    }
}

#[test]
fn all_queries_run_on_original_database() {
    let w = small_workload(false);
    for q in all_queries() {
        let rows =
            w.db.query(q.sql)
                .unwrap_or_else(|e| panic!("{}: {e}", q.name()));
        // Q1/Q12 always group to a handful of rows; Q3/Q10 are limited.
        assert!(
            rows.len() <= 10_000,
            "{} returned {} rows",
            q.name(),
            rows.len()
        );
    }
}

#[test]
fn all_queries_have_consistent_answers() {
    let w = small_workload(false);
    for q in all_queries() {
        let rows = consistent_answers(&w.db, q.sql, &w.sigma)
            .unwrap_or_else(|e| panic!("{}: {e}", q.name()));
        // Each aggregate expands to a [min, max] pair.
        let parsed = parse_query(q.sql).unwrap();
        let tq = conquer::analyze(&parsed, &w.sigma).unwrap();
        let expected_cols = tq.projection.len() + tq.aggregate_count();
        assert_eq!(
            rows.schema.len(),
            expected_cols,
            "{} output arity",
            q.name()
        );
    }
}

#[test]
fn annotated_and_plain_rewritings_agree_on_every_query() {
    let w = small_workload(true);
    for q in all_queries() {
        let plain = consistent_answers(&w.db, q.sql, &w.sigma)
            .unwrap_or_else(|e| panic!("{} plain: {e}", q.name()));
        let annotated = consistent_answers_annotated(&w.db, q.sql, &w.sigma)
            .unwrap_or_else(|e| panic!("{} annotated: {e}", q.name()));
        assert_agree(&plain, &annotated, &format!("{} disagrees", q.name()));
    }
}

#[test]
fn engine_ablations_do_not_change_answers() {
    let w = small_workload(false);
    let configs = [
        ExecOptions::default(),
        ExecOptions {
            materialize_ctes: false,
            ..ExecOptions::default()
        },
    ];
    // The reference evaluator runs every `EXISTS` per row; a couple of
    // queries suffice.
    for q in [conquer::tpch::Q6, conquer::tpch::Q12] {
        let rewritten = rewrite(
            &parse_query(q.sql).unwrap(),
            &w.sigma,
            &RewriteOptions::default(),
        )
        .unwrap();
        let reference = conquer_reference::evaluate(&w.db, &rewritten).unwrap();
        for options in &configs {
            let got = w.db.execute_query_with(&rewritten, options).unwrap();
            assert_agree(
                &reference,
                &got,
                &format!("{} differs under {options:?}", q.name()),
            );
        }
    }
}

#[test]
fn consistent_answers_on_p0_match_original_query_up_to_ranges() {
    // On a fully consistent database the range collapses: min == max and
    // they equal the original aggregate.
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.001,
        p: 0.0,
        n: 2,
        seed: 5,
        threads: 2,
        annotate: false,
    });
    let q = conquer::tpch::Q6;
    let original = w.db.query(q.sql).unwrap();
    let consistent = consistent_answers(&w.db, q.sql, &w.sigma).unwrap();
    assert_eq!(consistent.len(), 1);
    assert_eq!(original.rows[0][0], consistent.rows[0][0], "lower bound");
    assert_eq!(original.rows[0][0], consistent.rows[0][1], "upper bound");
}

#[test]
fn q6_bounds_bracket_the_original_answer() {
    let w = small_workload(false);
    let q = conquer::tpch::Q6;
    let original = w.db.query(q.sql).unwrap();
    let consistent = consistent_answers(&w.db, q.sql, &w.sigma).unwrap();
    let conquer::Value::Float(orig) = original.rows[0][0] else {
        panic!()
    };
    let conquer::Value::Float(lo) = consistent.rows[0][0] else {
        panic!()
    };
    let conquer::Value::Float(hi) = consistent.rows[0][1] else {
        panic!()
    };
    assert!(lo <= hi);
    // The original answer is one possible world, so it lies in the range —
    // up to float rounding: the bounds and the original are sums over the
    // same lineitems in different orders.
    let tol = 1e-9 * orig.abs().max(1.0);
    assert!(
        lo - tol <= orig && orig <= hi + tol,
        "{lo} <= {orig} <= {hi}"
    );
}

#[test]
fn rewritten_sql_round_trips_for_all_queries() {
    let sigma = conquer::tpch::benchmark_constraints();
    for q in all_queries() {
        for opts in [
            RewriteOptions::default(),
            RewriteOptions { annotated: true },
        ] {
            let rewritten = rewrite(&parse_query(q.sql).unwrap(), &sigma, &opts)
                .unwrap_or_else(|e| panic!("{}: {e}", q.name()));
            let text = rewritten.to_string();
            let reparsed = parse_query(&text)
                .unwrap_or_else(|e| panic!("{} SQL does not re-parse: {e}\n{text}", q.name()));
            assert_eq!(reparsed, rewritten, "{} round trip", q.name());
        }
    }
}
