//! Ablations of the design choices DESIGN.md calls out:
//!
//! * CTE materialization on/off — the paper found materializing the
//!   `Candidates`/`Filter` subexpressions essential (Section 6.1);
//! * decorrelated hash anti-join vs per-row nested-loop `NOT EXISTS` —
//!   the optimization a production engine applies to the rewriting;
//! * optimizer on/off — join order, filter pushdown and access paths (key
//!   index scans and conflict reads); both strategies' Filters read only
//!   the suspects whichever way, so this measures the plan, not which
//!   candidates are filtered. For Q6 and Q12 the rewritings have no join
//!   order to choose, so the plan as written differs from the optimized
//!   one by exactly the pushdown and access-path passes;
//! * plain vs annotation-aware rewriting — the Section 5 comparison.
//!
//! Each cell is the median of ten traced samples (`conquer_bench::sample`)
//! after one warm-up; `cargo bench` runs this as a plain binary.

use conquer::tpch::{Q12, Q6};
use conquer::ExecOptions;
use conquer_bench::{median_sample, sample, workload, Strategy};

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
        for strategy in [Strategy::Rewritten, Strategy::Annotated] {
            let variant = match strategy {
                Strategy::Annotated => "annotated",
                _ => "plain",
            };
            for (label, options) in &configs {
                // The nested-loop fallback on the larger Q12 rewriting is
                // quadratic; skip the pathological combination to keep the
                // bench finishing in reasonable time.
                if *label == "nested-loop-exists" && q.number == 12 {
                    continue;
                }
                let run = || sample(&w, q, strategy, options);
                run().expect("warm-up");
                let (median, ()) = median_sample(10, run, |_| ()).expect("ablation sample");
                println!(
                    "ablation/{}-{variant}/{label}: median {:.2} ms",
                    q.name(),
                    median.as_secs_f64() * 1e3
                );
            }
        }
    }
}
