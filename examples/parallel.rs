//! Morsel-parallel execution tour: the `threads` knob on [`ExecOptions`],
//! serial-vs-parallel timing of an aggregate-heavy consistent rewriting,
//! and the per-operator thread fan-out in EXPLAIN ANALYZE.
//!
//! Run with `cargo run -p conquer --release --example parallel`.
//! `CONQUER_THREADS=N` overrides the default fan-out (the host's available
//! parallelism); `threads = 1` is the unchanged serial executor.

use std::time::Instant;

use conquer::tpch::{build_workload, WorkloadConfig, Q6};
use conquer::{consistent_answers_with, ExecOptions};

fn main() {
    // A TPC-H-style workload with 5% inconsistent tuples.
    let w = build_workload(&WorkloadConfig {
        scale_factor: 0.05,
        ..WorkloadConfig::default()
    });
    let default_threads = ExecOptions::default().threads;
    println!("engine default fan-out: {default_threads} thread(s)\n");

    // Warm up once so the lazy key-index builds land here and the timings
    // below compare execution, not first-touch materialization.
    consistent_answers_with(&w.db, Q6.sql, &w.sigma, &ExecOptions::default()).expect("warm-up");

    // The same consistent-answer query, serial and parallel. Results are
    // identical — the parallel executor reproduces serial row order — so
    // only the wall time changes.
    let mut serial_time = None;
    for threads in [1, default_threads.max(2)] {
        let options = ExecOptions::default().with_threads(threads);
        let t0 = Instant::now();
        let rows = consistent_answers_with(&w.db, Q6.sql, &w.sigma, &options).expect("query");
        let dt = t0.elapsed();
        match serial_time {
            None => {
                serial_time = Some(dt);
                println!("threads=1 (serial): {} rows in {dt:?}", rows.len());
            }
            Some(serial) => println!(
                "threads={threads}:          {} rows in {dt:?} (speedup {:.2}x)",
                rows.len(),
                serial.as_secs_f64() / dt.as_secs_f64().max(1e-12)
            ),
        }
    }

    // EXPLAIN ANALYZE marks every operator that fanned out with its
    // `threads=` count; serial operators (small inputs, pipeline breakers
    // below the morsel threshold) carry no marker.
    let sql = "select o.o_custkey, count(*), sum(o.o_totalprice) from orders o \
               group by o.o_custkey order by o.o_custkey";
    let (_, report) =
        w.db.explain_analyze_with(sql, &ExecOptions::default().with_threads(4))
            .expect("analyze");
    println!("\nEXPLAIN ANALYZE at threads=4:\n{report}");
}
