//! Pins the plans the planner and optimizer produce for the paper's
//! workload, exactly.
//!
//! `EXPLAIN` of the six TPC-H originals, their rewritings and their
//! annotation-aware rewritings — at a fixed seed, SF 0.005, key indexes
//! declared — must equal the checked-in `golden/plan_shapes.txt` line for
//! line: operator tree, join kinds and key counts, access paths, and the
//! estimator's `est_rows` on every node. The rewritings are planned with
//! their CTEs inlined, so the whole rewriting is one tree and base-table
//! access paths show instead of scans of materialized results.
//!
//! `harness plancost` thresholds the same plans' *cost ratios*; this suite
//! is the exact version. A refactor of the plan or optimizer layers must
//! pass it with the golden untouched. A change that means to move a plan
//! re-records it: the failing run writes what it saw next to the test
//! binaries (the panic message names the file); copy that over the golden
//! and review the diff.

use conquer::tpch::{all_queries, build_workload, WorkloadConfig};
use conquer::{rewrite_sql, ExecOptions, RewriteOptions};

const GOLDEN: &str = include_str!("golden/plan_shapes.txt");

#[test]
fn tpch_plans_match_the_golden() {
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.005,
        annotate: true,
        ..WorkloadConfig::default()
    });
    let as_written = ExecOptions::default().with_threads(1);
    let inlined = ExecOptions {
        materialize_ctes: false,
        ..as_written.clone()
    };
    let mut actual = String::new();
    for q in all_queries() {
        let rewriting = |annotated| {
            let opts = RewriteOptions {
                annotated,
                ..RewriteOptions::default()
            };
            rewrite_sql(q.sql, &w.sigma, &opts).expect("benchmark queries are tree queries")
        };
        let cases = [
            ("original", q.sql.to_string(), &as_written),
            ("rewritten", rewriting(false), &inlined),
            ("annotated", rewriting(true), &inlined),
        ];
        for (strategy, sql, options) in cases {
            let plan = w.db.explain_with(&sql, options).expect("query plans");
            actual.push_str(&format!("== {} {strategy}\n{plan}\n", q.name()));
        }
    }
    if actual != GOLDEN {
        let seen = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("plan_shapes.actual.txt");
        std::fs::write(&seen, &actual).expect("write the observed plans");
        let line = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "plans differ from tests/golden/plan_shapes.txt, first at line {}:\n  golden: {:?}\n  actual: {:?}\nobserved plans written to {}",
            line + 1,
            GOLDEN.lines().nth(line),
            actual.lines().nth(line),
            seen.display(),
        );
    }
}
