//! Decision-support analytics over an inconsistent warehouse: the paper's
//! TPC-H evaluation in miniature. Generates a small TPC-H database, injects
//! key violations (p = 5 %, n = 2), and contrasts the original answers of
//! Q6 and Q12 with their range-consistent answers.
//!
//! Run with `cargo run -p conquer --release --example tpch_analytics`.

use std::time::Instant;

use conquer::tpch::{build_workload, WorkloadConfig, Q12, Q6};
use conquer::{consistent_answers_annotated, rewrite_sql, RewriteOptions};

fn main() {
    let config = WorkloadConfig {
        scale_factor: 0.002,
        p: 0.05,
        n: 2,
        seed: 42,
        threads: 4,
        annotate: true,
    };
    println!(
        "Generating TPC-H SF {} with p = {:.0}%, n = {} ...",
        config.scale_factor,
        config.p * 100.0,
        config.n
    );
    let workload = build_workload(&config);
    for s in &workload.injection {
        println!(
            "  {:<9} {:>7} tuples, {:>5} inconsistent ({} conflicting keys)",
            s.relation, s.total_tuples, s.inconsistent_tuples, s.conflicting_keys
        );
    }

    for q in [Q6, Q12] {
        println!("\n=== TPC-H {} ===", q.name());
        let t0 = Instant::now();
        let original = workload.db.query(q.sql).expect("original query");
        let t_orig = t0.elapsed();
        println!("Original answer (possible-world semantics):");
        print!("{}", original.to_text());

        let t0 = Instant::now();
        let consistent = consistent_answers_annotated(&workload.db, q.sql, &workload.sigma)
            .expect("consistent answers");
        let t_cons = t0.elapsed();
        println!("Range-consistent answer ([min, max] across repairs):");
        print!("{}", consistent.to_text());

        println!(
            "original: {:?}   rewritten (annotation-aware): {:?}   overhead: {:.2}x",
            t_orig,
            t_cons,
            t_cons.as_secs_f64() / t_orig.as_secs_f64().max(1e-9)
        );
    }

    // Show what the engine actually executes for Q6.
    let rewritten =
        rewrite_sql(Q6.sql, &workload.sigma, &RewriteOptions { annotated: true }).expect("rewrite");
    println!("\nThe annotation-aware rewriting of Q6 handed to the engine:\n{rewritten}");
}
