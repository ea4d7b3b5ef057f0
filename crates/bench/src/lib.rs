//! Shared infrastructure for the benchmark harness and the standalone
//! benches: workload construction, the three execution strategies of the
//! paper's evaluation, and timing helpers.
//!
//! The paper's hardware (a 2.8 GHz Pentium 4 running DB2 on 1 GB–2 GB
//! databases) is replaced by this repository's in-memory engine at reduced
//! scale factors with identical *ratios* between configurations, so that
//! the comparisons of Section 6 — original vs rewritten vs
//! annotation-aware, sweeps over `p`, `n`, and database size — retain their
//! shape. See EXPERIMENTS.md for the paper-vs-measured record.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use conquer::tpch::{build_workload, BenchmarkQuery, Workload, WorkloadConfig};
use conquer::{
    consistent_answers, consistent_answers_annotated, consistent_answers_annotated_with,
    consistent_answers_with, parse_query, rewrite, ConstraintSet, Database, EngineError,
    ExecOptions, RewriteError, RewriteOptions, Rows,
};

/// The scale factor that stands in for the paper's 1 GB database. The
/// paper's 100 MB / 500 MB / 1 GB / 2 GB series keeps the same ×0.1 / ×0.5
/// / ×1 / ×2 ratios against this value.
pub const BASE_SF: f64 = 0.05;

/// How each query is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The original (non-rewritten) query: possible-answer semantics.
    Original,
    /// ConQuer's rewriting on the unannotated database.
    Rewritten,
    /// The annotation-aware rewriting of Section 5.
    Annotated,
}

impl Strategy {
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Original => "original",
            Strategy::Rewritten => "rewritten",
            Strategy::Annotated => "annotated",
        }
    }
}

/// Build the standard workload for one benchmark configuration.
pub fn workload(scale_factor: f64, p: f64, n: usize) -> Workload {
    build_workload(&WorkloadConfig {
        scale_factor,
        p,
        n,
        seed: 0xC09E_5EED,
        threads: num_threads(),
        annotate: true,
    })
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// Execute one query under one strategy, returning the result rows.
pub fn run_query(w: &Workload, q: &BenchmarkQuery, strategy: Strategy) -> Rows {
    match strategy {
        Strategy::Original => w.db.query(q.sql).expect("original query"),
        Strategy::Rewritten => consistent_answers(&w.db, q.sql, &w.sigma).expect("rewritten query"),
        Strategy::Annotated => {
            consistent_answers_annotated(&w.db, q.sql, &w.sigma).expect("annotated query")
        }
    }
}

/// Execute one query under one strategy with explicit engine options,
/// surfacing failures (including resource-limit trips) instead of
/// panicking.
pub fn try_run_query(
    w: &Workload,
    q: &BenchmarkQuery,
    strategy: Strategy,
    options: &ExecOptions,
) -> Result<Rows, RewriteError> {
    match strategy {
        Strategy::Original => w.db.query_with(q.sql, options).map_err(RewriteError::from),
        Strategy::Rewritten => consistent_answers_with(&w.db, q.sql, &w.sigma, options),
        Strategy::Annotated => consistent_answers_annotated_with(&w.db, q.sql, &w.sigma, options),
    }
}

/// Classify a query outcome for bench reports: `ok`, `timeout`,
/// `mem_exceeded`, `row_limit`, `cancelled`, or `error`.
pub fn run_status<T>(result: &Result<T, RewriteError>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(RewriteError::Engine(e)) => match e {
            EngineError::Timeout(_) => "timeout",
            EngineError::MemoryExceeded(_) => "mem_exceeded",
            EngineError::RowLimitExceeded(_) => "row_limit",
            EngineError::Cancelled(_) => "cancelled",
            _ => "error",
        },
        Err(_) => "error",
    }
}

/// Median-of-`runs` wall-clock time for one query/strategy pair.
pub fn time_query(w: &Workload, q: &BenchmarkQuery, strategy: Strategy, runs: usize) -> Duration {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        let rows = run_query(w, q, strategy);
        let dt = t0.elapsed();
        std::hint::black_box(rows.len());
        samples.push(dt);
    }
    samples.sort();
    samples[samples.len() / 2]
}

/// [`time_query`] under explicit engine options. Returns the error of the
/// first failing run (the caller records the status and moves on).
pub fn time_query_with(
    w: &Workload,
    q: &BenchmarkQuery,
    strategy: Strategy,
    runs: usize,
    options: &ExecOptions,
) -> Result<Duration, RewriteError> {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        let rows = try_run_query(w, q, strategy, options)?;
        let dt = t0.elapsed();
        std::hint::black_box(rows.len());
        samples.push(dt);
    }
    samples.sort();
    Ok(samples[samples.len() / 2])
}

/// Warm up once, run `samples` times, print and return the median wall
/// time — the workspace's stand-in for an external bench harness (the
/// `benches/` binaries are plain `fn main()`s over this).
pub fn bench_case<T>(group: &str, id: &str, samples: usize, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f()); // warm-up
    let mut times = Vec::with_capacity(samples.max(1));
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed());
    }
    times.sort();
    let median = times[times.len() / 2];
    println!(
        "{group}/{id}: median {} ms ({} samples)",
        ms(median),
        times.len()
    );
    median
}

/// One run of a query/strategy pair with pipeline spans captured:
/// `{"rows": N, "phases_us": {"parse": ..., "rewrite": ..., "execute": ...}}`.
pub fn phase_breakdown(w: &Workload, q: &BenchmarkQuery, strategy: Strategy) -> conquer_obs::Json {
    use conquer_obs::Json;
    let (rows, spans) = conquer_obs::capture(|| run_query(w, q, strategy));
    let phases: Vec<(String, Json)> = conquer_obs::phase_totals(&spans)
        .into_iter()
        .map(|(name, wall)| (name.to_string(), Json::UInt(wall.as_micros() as u64)))
        .collect();
    Json::obj([
        ("rows", Json::UInt(rows.len() as u64)),
        ("phases_us", Json::Obj(phases)),
    ])
}

/// `EXPLAIN ANALYZE` as JSON for the plan a strategy actually executes,
/// under the given engine options (so a parallel run's tree carries the
/// per-operator `threads` fan-out): the body's per-operator stats tree,
/// and one entry per materialized CTE — where a rewriting's time goes —
/// in the order they ran (`[]` for the originals, which have none).
pub fn operator_breakdown(
    w: &Workload,
    q: &BenchmarkQuery,
    strategy: Strategy,
    options: &ExecOptions,
) -> (conquer_obs::Json, conquer_obs::Json) {
    let query = match strategy {
        Strategy::Original => parse_query(q.sql).expect("benchmark query parses"),
        Strategy::Rewritten => rewritten_query(q, &w.sigma, false),
        Strategy::Annotated => rewritten_query(q, &w.sigma, true),
    };
    let (_, plan, stats, ctes) =
        w.db.execute_query_traced_with_ctes(&query, options)
            .expect("benchmark query executes");
    (
        conquer::engine::stats_json(&plan, &stats),
        conquer::engine::ctes_json(&ctes),
    )
}

/// Overhead of a rewriting relative to the original query, as the paper
/// computes it: `(t_r - t_o) / t_o`.
pub fn overhead(original: Duration, rewritten: Duration) -> f64 {
    (rewritten.as_secs_f64() - original.as_secs_f64()) / original.as_secs_f64().max(1e-12)
}

/// Parallel speedup: `t_serial / t_parallel`. Values below 1.0 mean the
/// parallel run was slower (expected on single-core hosts, where extra
/// threads only add coordination cost).
pub fn speedup(serial: Duration, parallel: Duration) -> f64 {
    serial.as_secs_f64() / parallel.as_secs_f64().max(1e-12)
}

/// Pre-rewrite a benchmark query (for benches that want to time execution
/// without the rewriting step; rewriting itself is microseconds).
pub fn rewritten_query(
    q: &BenchmarkQuery,
    sigma: &ConstraintSet,
    annotated: bool,
) -> conquer::sql::Query {
    let parsed = parse_query(q.sql).expect("benchmark query parses");
    rewrite(
        &parsed,
        sigma,
        &RewriteOptions {
            annotated,
            ..Default::default()
        },
    )
    .expect("benchmark query rewrites")
}

/// A database over `db`'s tables — each table's columns shared, not
/// copied — that declares no index: the index-blind baseline. Its plans
/// are the ones the planner makes with no index to consider.
pub fn index_blind_twin(db: &Database) -> Database {
    let twin = Database::new();
    for name in db.table_names() {
        let table = db.table(&name).expect("a listed table exists");
        twin.register((*table).clone())
            .expect("registering in memory cannot fail");
    }
    twin
}

/// Total tuples across the benchmark relations of a database.
pub fn total_tuples(db: &Database) -> usize {
    ["customer", "orders", "lineitem", "nation"]
        .iter()
        .map(|t| db.table(t).map(|t| t.len()).unwrap_or(0))
        .sum()
}

/// Format a duration in milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Quantile over a **sorted** latency sample, with linear interpolation
/// between the two ranks a fractional index falls between (the "type 7"
/// estimator used by numpy and R). Rounding the fractional rank instead
/// would bias small samples badly — the p50 of two samples would be their
/// max. Returns 0 for an empty sample.
pub fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted_us.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted_us[lo];
    }
    let frac = rank - lo as f64;
    let interpolated = sorted_us[lo] as f64 + (sorted_us[hi] - sorted_us[lo]) as f64 * frac;
    interpolated.round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_run_on_a_tiny_workload() {
        let w = workload(0.001, 0.05, 2);
        let q = conquer::tpch::Q6;
        let orig = run_query(&w, &q, Strategy::Original);
        let rew = run_query(&w, &q, Strategy::Rewritten);
        let ann = run_query(&w, &q, Strategy::Annotated);
        assert_eq!(orig.len(), 1);
        assert_eq!(rew.rows, ann.rows);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        assert_eq!(percentile(&[], 0.5), 0);
        // One sample: every quantile is that sample.
        assert_eq!(percentile(&[7], 0.0), 7);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[7], 0.99), 7);
        // Two samples: the median is their midpoint, not the max (the old
        // nearest-rank rounding returned 300 here).
        assert_eq!(percentile(&[100, 300], 0.5), 200);
        assert_eq!(percentile(&[100, 300], 0.25), 150);
        assert_eq!(percentile(&[100, 300], 1.0), 300);
        // Ten samples: exact ranks hit sample values, fractional ranks
        // interpolate.
        let sample: Vec<u64> = (1..=10).map(|i| i * 10).collect();
        assert_eq!(percentile(&sample, 0.0), 10);
        assert_eq!(percentile(&sample, 1.0), 100);
        assert_eq!(percentile(&sample, 0.5), 55); // rank 4.5 → (50+60)/2
        assert_eq!(percentile(&sample, 0.75), 78); // rank 6.75 → 70 + 0.75*10
        let big: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&big, 0.5), 51); // rank 49.5 → 50.5, rounds up
    }

    #[test]
    fn overhead_formula() {
        let o = Duration::from_millis(100);
        let r = Duration::from_millis(150);
        assert!((overhead(o, r) - 0.5).abs() < 1e-9);
    }
}
