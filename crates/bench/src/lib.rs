//! Shared infrastructure for the benchmark harness and the ablation bench:
//! workload construction, running a query under each of the paper's three
//! strategies ([`conquer_serve::Strategy`]), and the one unit of
//! measurement — a traced [`Sample`].
//!
//! The paper's hardware (a 2.8 GHz Pentium 4 running DB2 on 1 GB–2 GB
//! databases) is replaced by this repository's in-memory engine at reduced
//! scale factors with identical *ratios* between configurations, so that
//! the comparisons of Section 6 — original vs rewritten vs
//! annotation-aware, sweeps over `p`, `n`, and database size — retain their
//! shape. See EXPERIMENTS.md for the paper-vs-measured record.
//!
//! Every time the harness reports is a span's wall time, read off the same
//! telemetry (`conquer-obs`) a live server exposes: no step keeps a clock of
//! its own, so the instrumentation is itself what is measured.

#![forbid(unsafe_code)]

use std::time::Duration;

use conquer::engine::{CteTrace, NodeStats, Plan};
use conquer::tpch::{build_workload, BenchmarkQuery, Workload, WorkloadConfig};
use conquer::{
    consistent_answers_annotated_with, consistent_answers_with, parse_sql, prepare_rewrite_on,
    ConstraintSet, Database, EngineError, ExecOptions, RewriteError, RewriteOptions, Rows,
};
use conquer_obs::{Json, SpanRecord};
use conquer_serve::Strategy;

pub mod report;

/// The scale factor that stands in for the paper's 1 GB database. The
/// paper's 100 MB / 500 MB / 1 GB / 2 GB series keeps the same ×0.1 / ×0.5
/// / ×1 / ×2 ratios against this value.
pub const BASE_SF: f64 = 0.05;

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

/// Execute one query under one strategy through the library's entry
/// points, with explicit engine options, surfacing failures (including
/// resource-limit trips) instead of panicking.
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

/// The name of the span every traced run sits under.
pub const ROOT_SPAN: &str = "sample";

/// Run `f` under one [`ROOT_SPAN`], collecting every span closed under it
/// (morsel workers included). Returns `f`'s value, the root's wall time
/// and the spans, in close order — the root last.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Duration, Vec<SpanRecord>) {
    let (value, spans) = conquer_obs::capture(|| {
        let _root = conquer_obs::span(ROOT_SPAN);
        f()
    });
    let wall = spans.last().map_or(Duration::ZERO, |root| root.wall);
    (value, wall, spans)
}

/// Wall time of the spans named `name`, nested re-entries counted once
/// ([`conquer_obs::phase_totals`]).
pub fn span_wall(spans: &[SpanRecord], name: &str) -> Duration {
    let totals = conquer_obs::phase_totals(spans);
    totals
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or(Duration::ZERO, |(_, wall)| wall)
}

/// One traced run of a query under a strategy — the harness's only unit of
/// measurement. Parse, analyze and rewrite run through the core API's
/// spans, execution through `Database::execute_query_traced_with_ctes`,
/// all under one root span; so the wall time, the layer times, the
/// operator tree and the CTE traces describe the same run.
pub struct Sample {
    pub rows: Rows,
    /// The root span's wall time, less the post-answer `estimate` layer:
    /// parse through execute.
    pub wall: Duration,
    /// Wall time per layer directly under the root, in the order the
    /// layers first closed.
    pub phases: Vec<(&'static str, Duration)>,
    /// The share of `wall` no layer accounts for.
    pub unaccounted_frac: f64,
    /// The executed body's plan and its measured per-operator stats.
    pub plan: Plan,
    pub stats: NodeStats,
    /// One trace per materialized CTE, in the order they ran.
    pub ctes: Vec<CteTrace>,
    /// Every span the run closed, the root last.
    pub spans: Vec<SpanRecord>,
}

impl Sample {
    /// The report cell: rows, root wall, layer times, the unaccounted
    /// share, the body's operator tree and the CTE traces.
    pub fn to_json(&self) -> Json {
        let phases = self.phases.iter().map(|(name, wall)| {
            let us = Json::UInt(wall.as_micros() as u64);
            (name.to_string(), us)
        });
        Json::obj([
            ("status", Json::from("ok")),
            ("rows", Json::UInt(self.rows.len() as u64)),
            ("median_us", Json::UInt(self.wall.as_micros() as u64)),
            ("phases_us", Json::Obj(phases.collect())),
            ("unaccounted_frac", Json::Float(self.unaccounted_frac)),
            (
                "operators",
                conquer::engine::stats_json(&self.plan, &self.stats),
            ),
            ("ctes", conquer::engine::ctes_json(&self.ctes)),
        ])
    }
}

/// [`sample_sql`] for a benchmark query over its workload.
pub fn sample(
    w: &Workload,
    q: &BenchmarkQuery,
    strategy: Strategy,
    options: &ExecOptions,
) -> Result<Sample, RewriteError> {
    sample_sql(&w.db, &w.sigma, q.sql, strategy, options)
}

/// One traced run of `sql` on `db` under `strategy` ([`Sample`]). A
/// rewriting is prepared through `prepare_rewrite_on`, the library's own
/// guard, so the annotated strategy refuses what
/// `consistent_answers_annotated_with` refuses. The cost model's
/// `estimate` pass, which runs after the answer to fill the operator
/// tree's estimates, is left out of `wall` and of the layers.
pub fn sample_sql(
    db: &Database,
    sigma: &ConstraintSet,
    sql: &str,
    strategy: Strategy,
    options: &ExecOptions,
) -> Result<Sample, RewriteError> {
    let (result, wall, spans) = traced(|| {
        let (parsed, prepared);
        let query = match strategy {
            Strategy::Original => {
                parsed = parse_sql(sql)?;
                &parsed
            }
            Strategy::Rewritten | Strategy::Annotated => {
                let opts = RewriteOptions {
                    annotated: strategy == Strategy::Annotated,
                };
                prepared = prepare_rewrite_on(db, sql, sigma, &opts)?;
                &*prepared.rewritten
            }
        };
        Ok::<_, RewriteError>(db.execute_query_traced_with_ctes(query, options)?)
    });
    let (rows, plan, stats, ctes) = result?;
    let mut phases = layers(&spans);
    let estimate = phases.iter().position(|(name, _)| *name == "estimate");
    let wall = wall.saturating_sub(estimate.map_or(Duration::ZERO, |i| phases.remove(i).1));
    let accounted: Duration = phases.iter().map(|(_, wall)| *wall).sum();
    let unaccounted_frac = 1.0 - accounted.as_secs_f64() / wall.as_secs_f64().max(1e-12);
    Ok(Sample {
        rows,
        wall,
        phases,
        unaccounted_frac: unaccounted_frac.max(0.0),
        plan,
        stats,
        ctes,
        spans,
    })
}

/// Wall time per span name of the spans directly under the root (the last
/// span of `spans`), on the root's thread.
fn layers(spans: &[SpanRecord]) -> Vec<(&'static str, Duration)> {
    let Some(root) = spans.last() else {
        return Vec::new();
    };
    let mut out: Vec<(&'static str, Duration)> = Vec::new();
    let children = spans[..spans.len() - 1]
        .iter()
        .filter(|s| s.thread == root.thread && s.depth == root.depth + 1);
    for s in children {
        match out.iter_mut().find(|(name, _)| *name == s.name) {
            Some((_, wall)) => *wall += s.wall,
            None => out.push((s.name, s.wall)),
        }
    }
    out
}

/// Run `runs` (at least one) samples and keep the one with the median
/// wall time, with what `describe` made of it; the first error ends the
/// series. `describe` sees each sample once, so a caller keeps what it
/// reports and lets the sample's plan and CTE results go.
pub fn median_sample<T>(
    runs: usize,
    mut run: impl FnMut() -> Result<Sample, RewriteError>,
    mut describe: impl FnMut(&Sample) -> T,
) -> Result<(Duration, T), RewriteError> {
    let mut kept = Vec::with_capacity(runs.max(1));
    for _ in 0..runs.max(1) {
        let s = run()?;
        kept.push((s.wall, describe(&s)));
    }
    kept.sort_by_key(|(wall, _)| *wall);
    Ok(kept.swap_remove(kept.len() / 2))
}

/// Overhead of a rewriting relative to the original query, as the paper
/// computes it: `(t_r - t_o) / t_o`.
pub fn overhead(original: Duration, rewritten: Duration) -> f64 {
    (rewritten.as_secs_f64() - original.as_secs_f64()) / original.as_secs_f64().max(1e-12)
}

/// `t_before / t_after`: above 1.0 the second configuration was faster.
pub fn speedup(before: Duration, after: Duration) -> f64 {
    before.as_secs_f64() / after.as_secs_f64().max(1e-12)
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
        let run = |strategy| sample(&w, &q, strategy, &ExecOptions::default()).unwrap();
        let orig = run(Strategy::Original);
        let rew = run(Strategy::Rewritten);
        let ann = run(Strategy::Annotated);
        assert_eq!(orig.rows.len(), 1);
        assert_eq!(rew.rows.rows, ann.rows.rows);
    }

    #[test]
    fn a_sample_accounts_for_its_root_and_its_rows() {
        let w = workload(0.001, 0.05, 2);
        for q in [conquer::tpch::Q6, conquer::tpch::Q3] {
            for strategy in [Strategy::Original, Strategy::Rewritten, Strategy::Annotated] {
                let s = sample(&w, &q, strategy, &ExecOptions::default()).unwrap();
                let label = format!("{} [{}]", q.name(), strategy.label());
                let layers: Duration = s.phases.iter().map(|(_, wall)| *wall).sum();
                assert!(layers <= s.wall, "{label}: {layers:?} > {:?}", s.wall);
                assert!((0.0..=1.0).contains(&s.unaccounted_frac), "{label}");
                let names: Vec<&str> = s.phases.iter().map(|(name, _)| *name).collect();
                for layer in ["parse", "plan", "optimize", "execute"] {
                    assert!(names.contains(&layer), "{label}: no {layer} in {names:?}");
                }
                if strategy != Strategy::Original {
                    assert!(names.contains(&"analyze") && names.contains(&"rewrite"));
                }
                assert_eq!(s.stats.rows_out, s.rows.len() as u64, "{label}");
                assert_eq!(s.spans.last().map(|r| r.name), Some(ROOT_SPAN));
            }
        }
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
