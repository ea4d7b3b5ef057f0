//! Ablations of the design choices DESIGN.md calls out:
//!
//! * CTE materialization on/off — the paper found materializing the
//!   `Candidates`/`Filter` subexpressions essential (Section 6.1);
//! * decorrelated hash anti-join vs per-row nested-loop `NOT EXISTS` —
//!   the optimization a production engine applies to the rewriting;
//! * optimizer on/off — Section 5 relies on the optimizer evaluating the
//!   `conscand > 0` guard before the Filter's joins; for Q6 and Q12 the
//!   rewritings have no join order to choose, so the plan as written
//!   differs from the optimized one by exactly the pushdown, build-side
//!   and access-path passes;
//! * plain vs annotation-aware rewriting — the Section 5 comparison.

use conquer::tpch::{Q12, Q6};
use conquer::ExecOptions;
use conquer_bench::{bench_case, rewritten_query, workload};

fn main() {
    let w = workload(0.01, 0.05, 2);

    let configs: [(&str, ExecOptions); 4] = [
        ("all-optimizations", ExecOptions::default()),
        (
            "inline-ctes",
            ExecOptions {
                materialize_ctes: false,
                ..ExecOptions::default()
            },
        ),
        (
            "nested-loop-exists",
            ExecOptions {
                decorrelate_exists: false,
                ..ExecOptions::default()
            },
        ),
        (
            "no-optimizer",
            ExecOptions {
                optimize: false,
                ..ExecOptions::default()
            },
        ),
    ];

    // Q6 is the paper's representative query; Q12 adds a join.
    for q in [&Q6, &Q12] {
        for annotated in [false, true] {
            let rewritten = rewritten_query(q, &w.sigma, annotated);
            let variant = if annotated { "annotated" } else { "plain" };
            for (label, options) in &configs {
                // The nested-loop fallback on the larger Q12 rewriting is
                // quadratic; skip the pathological combination to keep the
                // bench finishing in reasonable time.
                if *label == "nested-loop-exists" && q.number == 12 {
                    continue;
                }
                bench_case(
                    "ablation",
                    &format!("{}-{variant}/{label}", q.name()),
                    10,
                    || w.db.execute_query_with(&rewritten, options).unwrap(),
                );
            }
        }
    }
}
