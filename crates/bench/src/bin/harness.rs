//! The figure-regeneration harness: measures every table and figure of the
//! paper's evaluation (Section 6), writes each as a `BENCH_<report>.json`
//! and prints its markdown table, rendered from that report
//! (`conquer_bench::report`).
//!
//! ```sh
//! cargo run -p conquer-bench --release --bin harness -- all
//! cargo run -p conquer-bench --release --bin harness -- fig12 --sf 0.02
//! cargo run -p conquer-bench --release --bin harness -- fig11 --json out.json --quiet
//! ```
//!
//! Every time a report holds is read off the engine's telemetry: one traced
//! run (`conquer_bench::sample`) is the unit of measurement, and a figure
//! cell's `median_us`, `phases_us`, `unaccounted_frac`, `operators` and
//! `ctes` all describe the median sample of `--runs`.
//!
//! Subcommands:
//! - `fig10` .. `fig14`: the paper's figures; `baseline`: repair
//!   enumeration vs the rewriting (Section 7).
//! - `plancost`: the planner's estimated rewritten/original cost per figure
//!   query; with `--cost-threshold-file <path>` (lines of `<query>
//!   <max_ratio>`) a ratio past its threshold fails the run.
//! - `opbench`: one query per executor kernel, its time and rows/sec over
//!   the driving table.
//! - `idxbench`: point lookups, the key self-join, the conflict scan and an
//!   indexed insert, on the workload and on its index-blind twin, at
//!   `--sf` and 4×`--sf`.
//! - `load`: §6.1's generate, inject, annotate and the first pass, step by
//!   step at `--sf` and 4×`--sf`, with bytes per tuple and peak RSS;
//!   `--before <report>` adds the speed-up against an earlier report.
//! - `recover`: load into a WAL-backed database, restart from the WAL,
//!   checkpoint, restart from segments.
//! - `serve`: a closed loop of `--concurrency` connections over every
//!   query × strategy, `--rounds` times, at each `--connections` point
//!   (the extra connections idle), optionally beside a writer inserting
//!   into an unrelated table every `--churn-ms`, against an in-process
//!   server over the standard annotated workload.
//! - `trace "<sql>"`: one traced run (`--strategy`), printed as a span tree
//!   and written as a Chrome trace-viewer document.
//! - `all`: records every tracked report at the parameters each is
//!   recorded with ([`RECORDED`]), each in a process of its own; flags
//!   given to `all` override them.
//! - `report` (no flags): renders each block of EXPERIMENTS.md in the
//!   working directory from the `BENCH_*.json` files beside it.
//!
//! `--sf`, `--runs` (median of n, default 3), `--threads`, `--json <path>`
//! (a single command's report) and `--quiet` (no table on stdout) apply
//! throughout;
//! `--timeout-ms N` and `--mem-limit BYTES` run every query under those
//! limits, record a tripped query's `status` instead of aborting, and make
//! the harness exit nonzero after writing every report. Every report is
//! stamped with the `commit` it was built from and the `machine` it ran on.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use conquer::engine::{NodeStats, Plan};
use conquer::tpch::{all_queries, BenchmarkQuery, Workload, Q12, Q4, Q6};
use conquer::{analyze, parse_query, Database, ExecOptions, ResourceLimits};
use conquer_bench::report::RECORDED;
use conquer_bench::{
    index_blind_twin, median_sample, run_status, sample, sample_sql, span_wall, speedup, traced,
    workload, BASE_SF,
};
use conquer_obs::Json;
use conquer_serve::Strategy;

/// Set when any query fails or trips a limit; the harness still completes
/// the sweep and writes every report before exiting nonzero.
static FAILED: AtomicBool = AtomicBool::new(false);

const COMMANDS: [&str; 15] = [
    "fig10", "fig11", "fig12", "fig13", "fig14", "baseline", "serve", "plancost", "opbench",
    "idxbench", "trace", "recover", "load", "all", "report",
];

struct Args {
    command: String,
    sf: f64,
    runs: usize,
    json: Option<String>,
    quiet: bool,
    timeout_ms: Option<u64>,
    mem_limit: Option<u64>,
    threads: usize,
    /// `serve` mode: number of closed-loop worker connections.
    concurrency: usize,
    /// `serve` mode: total-open-connection points for the trajectory sweep
    /// (comma list). Each point holds this many connections open —
    /// `min(concurrency, point)` of them driving the closed loop, the rest
    /// idle — so the report shows latency/throughput as a function of
    /// connection count. Empty means a single point at `concurrency`.
    connections: Vec<usize>,
    /// `serve` mode: rounds over the full query × strategy grid per worker.
    rounds: usize,
    /// `serve` mode: also run each point beside a writer connection that
    /// inserts into a scratch table every this many milliseconds.
    churn_ms: Option<u64>,
    /// `plancost` mode: path to a checked-in threshold file (`<query>
    /// <max_ratio>` lines); a rewritten/original cost ratio above its
    /// threshold fails the run.
    cost_threshold_file: Option<String>,
    /// `load` mode: an earlier `BENCH_load.json` to report against.
    before: Option<String>,
    /// `trace` mode: the SQL to trace (the positional after the command).
    sql: Option<String>,
    /// `trace` mode: which answering strategy to run the SQL under.
    strategy: Strategy,
}

impl Args {
    /// Engine options for every timed query, carrying any `--timeout-ms` /
    /// `--mem-limit` resource limits and the `--threads` fan-out.
    fn options(&self) -> ExecOptions {
        let mut limits = ResourceLimits::unlimited();
        if let Some(t) = self.timeout_ms {
            limits = limits.with_timeout(Duration::from_millis(t));
        }
        if let Some(bytes) = self.mem_limit {
            limits = limits.with_max_memory_bytes(bytes);
        }
        ExecOptions::default()
            .with_limits(limits)
            .with_threads(self.threads)
    }
}

fn parse_args(tokens: impl IntoIterator<Item = String>) -> Args {
    let mut args = Args {
        command: "all".to_string(),
        sf: BASE_SF,
        runs: 3,
        json: None,
        quiet: false,
        timeout_ms: None,
        mem_limit: None,
        threads: ExecOptions::default().threads,
        concurrency: 16,
        connections: Vec::new(),
        rounds: 3,
        churn_ms: None,
        cost_threshold_file: None,
        before: None,
        sql: None,
        strategy: Strategy::Rewritten,
    };
    let mut command_seen = false;
    let mut it = tokens.into_iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--sf" => args.sf = value(it.next(), flag, "a number"),
            "--runs" => args.runs = value(it.next(), flag, "an integer"),
            "--json" => args.json = Some(value(it.next(), flag, "a path")),
            "--timeout-ms" => args.timeout_ms = Some(value(it.next(), flag, "an integer")),
            "--mem-limit" => args.mem_limit = Some(value(it.next(), flag, "a byte count")),
            "--threads" => args.threads = positive(it.next(), flag),
            "--concurrency" => args.concurrency = positive(it.next(), flag),
            "--connections" => {
                let spec: String = value(it.next(), flag, "a comma list of counts");
                let points = spec.split(',').filter(|part| !part.is_empty());
                args.connections = points.map(|n| positive(Some(n.into()), flag)).collect();
                if args.connections.is_empty() {
                    die("--connections requires a comma list of counts");
                }
            }
            "--rounds" => args.rounds = positive(it.next(), flag),
            "--churn-ms" => args.churn_ms = Some(positive(it.next(), flag)),
            "--cost-threshold-file" => {
                args.cost_threshold_file = Some(value(it.next(), flag, "a path"));
            }
            "--before" => args.before = Some(value(it.next(), flag, "a path")),
            "--strategy" => {
                args.strategy = it
                    .next()
                    .and_then(|s| Strategy::parse(&s))
                    .unwrap_or_else(|| die("--strategy requires original|rewritten|annotated"));
            }
            "--quiet" => args.quiet = true,
            tok if !tok.starts_with('-') => {
                if !command_seen {
                    if !COMMANDS.contains(&tok) {
                        die(&format!("unknown command {tok}"));
                    }
                    args.command = tok.to_string();
                    command_seen = true;
                } else if args.command == "trace" && args.sql.is_none() {
                    args.sql = Some(tok.to_string());
                } else {
                    die(&format!("unexpected argument {tok}"));
                }
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    args
}

/// A flag's value, parsed; `what` names what it must be.
fn value<T: std::str::FromStr>(v: Option<String>, flag: &str, what: &str) -> T {
    let parsed = v.and_then(|v| v.parse().ok());
    parsed.unwrap_or_else(|| die(&format!("{flag} requires {what}")))
}

/// A flag's value that must be a positive integer.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(v: Option<String>, flag: &str) -> T {
    let parsed = v.and_then(|v| v.parse().ok()).filter(|n| *n >= T::from(1));
    parsed.unwrap_or_else(|| die(&format!("{flag} requires a positive integer")))
}

fn die(msg: &str) -> ! {
    eprintln!("harness: {msg}");
    eprintln!(
        "usage: harness [fig10|fig11|fig12|fig13|fig14|baseline|serve|plancost|opbench|idxbench|recover|load|all] \
         [--sf F] [--runs N] [--json PATH] [--quiet] \
         [--timeout-ms N] [--mem-limit BYTES] [--threads N] \
         [--concurrency N] [--connections N,M,...] [--rounds R] \
         [--churn-ms N] [--cost-threshold-file PATH] [--before PATH]\n       \
         harness trace \"<sql>\" [--strategy original|rewritten|annotated] \
         [--sf F] [--threads N] [--json PATH]\n       \
         harness report"
    );
    std::process::exit(2)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(raw.clone());
    let started = Instant::now();
    if args.command == "all" {
        record_all(&raw);
    } else if args.command == "report" {
        if raw.len() > 1 {
            die("report takes no flags");
        }
        if let Err(e) = conquer_bench::report::update(std::path::Path::new(".")) {
            eprintln!("harness: report: {e}");
            std::process::exit(1);
        }
    } else {
        let mut report = match args.command.as_str() {
            "fig10" => fig10(&args),
            "fig11" => fig11(&args),
            "fig12" => fig12(&args),
            "fig13" => fig13(&args),
            "fig14" => fig14(&args),
            "baseline" => baseline(&args),
            "serve" => serve_cmd(&args),
            "plancost" => plancost(&args),
            "opbench" => opbench(&args),
            "idxbench" => idxbench(&args),
            "trace" => trace_cmd(&args),
            "recover" => recover_cmd(&args),
            "load" => load_cmd(&args),
            _ => unreachable!("command validated in parse_args"),
        };
        report.push("commit", commit());
        report.push("machine", machine());
        report.push("metrics", conquer_obs::registry().snapshot_json());
        let path = (args.json.clone()).unwrap_or_else(|| format!("BENCH_{}.json", args.command));
        std::fs::write(&path, report.render_pretty())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
        if !args.quiet {
            let table = conquer_bench::report::render(&path, &report);
            print!("{}", table.expect("every command's report has a renderer"));
        }
    }
    let total = started.elapsed().as_secs_f64();
    eprintln!("\n(total harness time: {total:.1}s)");
    if FAILED.load(Ordering::Relaxed) {
        eprintln!("harness: some queries failed or tripped resource limits (see reports)");
        std::process::exit(1);
    }
}

/// `harness all`: every [`RECORDED`] report, each run by this binary in a
/// child process of its own — so what a report reads off the process (peak
/// RSS, the metrics registry) is that report's alone — with `all`'s flags
/// appended and its `--json` pointed at `BENCH_<report>.json`.
fn record_all(raw: &[String]) {
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("no executable: {e}")));
    let flags = raw.iter().filter(|a| *a != "all");
    for (report, line) in RECORDED {
        let status = std::process::Command::new(&exe)
            .args(line.split_whitespace())
            .args(flags.clone())
            .args(["--json", &format!("BENCH_{report}.json")])
            .status()
            .unwrap_or_else(|e| die(&format!("cannot run {report}: {e}")));
        match status.code() {
            Some(0) => {}
            Some(1) => FAILED.store(true, Ordering::Relaxed),
            _ => {
                eprintln!("harness: {report} ended with {status}");
                std::process::exit(2);
            }
        }
    }
}

/// The commit the harness was built from: `git describe --always --dirty`
/// in its source tree, or `unknown` where git cannot say.
fn commit() -> Json {
    let source = env!("CARGO_MANIFEST_DIR");
    let described = std::process::Command::new("git")
        .args(["-C", source, "describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok());
    Json::from(described.map_or("unknown".to_string(), |d| d.trim().to_string()))
}

/// The machine a report was recorded on: CPU model and the parallelism
/// the process may use.
fn machine() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("cpu", Json::from(model)),
        ("available_parallelism", Json::UInt(parallelism as u64)),
    ])
}

/// The record of one (query, strategy) cell: the median of `--runs`
/// samples, reported whole — its wall time, rows, layer times, unaccounted
/// share, operator tree and CTE traces all come from that one run.
///
/// A query that errors or trips a resource limit yields a `status` /
/// `error` entry (and flags the harness for a nonzero exit) instead of
/// aborting the sweep.
fn strategy_entry(w: &Workload, q: &BenchmarkQuery, strategy: Strategy, args: &Args) -> Json {
    let options = args.options();
    let result = median_sample(
        args.runs,
        || sample(w, q, strategy, &options),
        |s| s.to_json(),
    );
    let status = run_status(&result);
    result.map_or_else(
        |e| {
            FAILED.store(true, Ordering::Relaxed);
            eprintln!("harness: {} [{}] {status}: {e}", q.name(), strategy.label());
            Json::obj([
                ("status", Json::from(status)),
                ("error", Json::from(e.to_string())),
            ])
        },
        |(_, entry)| entry,
    )
}

/// `entry` with `q`'s cell under each strategy, keyed by its label.
fn each_strategy(w: &Workload, q: &BenchmarkQuery, args: &Args, mut entry: Json) -> Json {
    for strategy in Strategy::ALL {
        entry.push(strategy.label(), strategy_entry(w, q, strategy, args));
    }
    entry
}

/// A report: what it measured and with what parameters, then `fields`.
fn report_header<const N: usize>(figure: &str, args: &Args, fields: [(&str, Json); N]) -> Json {
    let mut report = Json::obj([
        ("figure", Json::from(figure)),
        ("sf", Json::Float(args.sf)),
        ("runs", Json::UInt(args.runs as u64)),
        ("threads", Json::UInt(args.threads as u64)),
    ]);
    for (key, value) in fields {
        report.push(key, value);
    }
    report
}

/// Figure 10: characteristics of the benchmark queries.
fn fig10(args: &Args) -> Json {
    let sigma = conquer::tpch::benchmark_constraints();
    let mut queries = Vec::new();
    for q in all_queries() {
        let tq = analyze(&parse_query(q.sql).unwrap(), &sigma).unwrap();
        queries.push(Json::obj([
            ("query", Json::from(q.name())),
            ("relations", Json::UInt(tq.relations.len() as u64)),
            ("selectivity", Json::from(q.selectivity.to_string())),
            ("proj_attrs", Json::UInt(tq.projection.len() as u64)),
            ("aggr_attrs", Json::UInt(tq.aggregate_count() as u64)),
        ]));
    }
    report_header("fig10", args, [("queries", Json::Arr(queries))])
}

/// Figure 11: running times of all queries, original vs rewritten vs
/// annotation-aware, at the base size with p = 5%, n = 2.
fn fig11(args: &Args) -> Json {
    let w = workload(args.sf, 0.05, 2);
    let mut queries = Vec::new();
    for q in all_queries() {
        let entry = Json::obj([("query", Json::from(q.name()))]);
        queries.push(each_strategy(&w, &q, args, entry));
    }
    let mut report = report_header("fig11", args, []);
    report.push("p", Json::Float(0.05));
    report.push("n", Json::UInt(2));
    report.push("queries", Json::Arr(queries));
    report
}

/// Figure 12: Q6 while varying the inconsistency percentage p (n = 2).
fn fig12(args: &Args) -> Json {
    let mut series = Vec::new();
    for p in [0.0, 0.01, 0.05, 0.10, 0.20, 0.50] {
        let w = workload(args.sf, p, 2);
        let entry = Json::obj([("p", Json::Float(p))]);
        series.push(each_strategy(&w, &Q6, args, entry));
    }
    let mut report = report_header("fig12", args, []);
    report.push("query", Json::from("Q6"));
    report.push("n", Json::UInt(2));
    report.push("series", Json::Arr(series));
    report
}

/// Figure 13: Q6 while varying n, the tuples per violated key (p = 10%).
fn fig13(args: &Args) -> Json {
    let mut series = Vec::new();
    for n in [2usize, 5, 10, 25, 50] {
        let w = workload(args.sf, 0.10, n);
        let entry = Json::obj([("n", Json::UInt(n as u64))]);
        series.push(each_strategy(&w, &Q6, args, entry));
    }
    let mut report = report_header("fig13", args, []);
    report.push("query", Json::from("Q6"));
    report.push("p", Json::Float(0.10));
    report.push("series", Json::Arr(series));
    report
}

/// Figure 14: scalability across database sizes with a constant number of
/// inconsistent tuples (the paper's 100 MB..2 GB at p = 50/10/5/2.5 %).
fn fig14(args: &Args) -> Json {
    let mut series = Vec::new();
    // Same ratios as the paper: 0.1x, 0.5x, 1x, 2x of the base size with
    // p chosen to hold p * size constant.
    for (ratio, p) in [(0.1, 0.50), (0.5, 0.10), (1.0, 0.05), (2.0, 0.025)] {
        let sf = args.sf * ratio;
        let w = workload(sf, p, 2);
        let tuples = conquer_bench::total_tuples(&w.db);
        let mut entry = Json::obj([
            ("ratio", Json::Float(ratio)),
            ("p", Json::Float(p)),
            ("tuples", Json::UInt(tuples as u64)),
        ]);
        for q in [Q4, Q6, Q12] {
            entry.push(q.name(), strategy_entry(&w, &q, Strategy::Annotated, args));
        }
        series.push(entry);
    }
    report_header("fig14", args, [("series", Json::Arr(series))])
}

/// Related-work scale contrast (Section 7): repair enumeration — the
/// approach rewriting replaces — explodes even at toy sizes, while the
/// rewriting runs on millions of tuples.
fn baseline(args: &Args) -> Json {
    use conquer::{consistent_answers_oracle, ConstraintSet, Database};
    let mut series = Vec::new();
    for keys in [4usize, 8, 12, 16] {
        let db = Database::new();
        let mut script =
            String::from("create table t (k integer, v integer);\ninsert into t values ");
        let mut vals = Vec::new();
        for k in 0..200 {
            vals.push(format!("({k}, {})", k % 7));
            if k < keys as i64 {
                vals.push(format!("({k}, {})", (k + 1) % 7));
            }
        }
        script.push_str(&vals.join(", "));
        db.run_script(&script).unwrap();
        let sigma = ConstraintSet::new().with_key("t", ["k"]);
        let q = "select t.k from t where t.v > 2";

        let (oracle, t_oracle, _) = traced(|| consistent_answers_oracle(&db, q, &sigma));
        let oracle = oracle.expect("the oracle answers the baseline query");
        // The rewriting: a warm-up run (the first plan collects statistics
        // and builds the key index), then the median of `--runs`.
        let options = args.options();
        let run = || sample_sql(&db, &sigma, q, Strategy::Rewritten, &options);
        let warm = run().expect("the baseline query rewrites");
        assert_eq!(oracle.len(), warm.rows.len());
        let (t_rew, ()) =
            median_sample(args.runs, run, |_| ()).expect("the baseline query rewrites");
        series.push(Json::obj([
            ("conflicting_keys", Json::UInt(keys as u64)),
            ("repairs", Json::UInt(1u64 << keys)),
            ("oracle_us", Json::UInt(t_oracle.as_micros() as u64)),
            ("rewrite_us", Json::UInt(t_rew.as_micros() as u64)),
        ]));
    }
    report_header("baseline", args, [("series", Json::Arr(series))])
}

/// `plancost` — plan-quality sweep: for every figure query, plan the
/// original and the ConQuer rewriting against the standard workload and
/// report the estimated plan-cost ratio (rewritten / original) under the
/// cost model the planner itself optimizes with. The ratio is the planner's
/// own view of the rewriting overhead the paper bounds at roughly 2×
/// measured wall time; a plan-quality regression (lost pushdown, bad build
/// side, worse join order) moves this ratio even when a fast machine hides
/// it from timings. With `--cost-threshold-file`, any query whose ratio
/// exceeds its checked-in threshold fails the run (the CI plan-quality
/// smoke job).
///
/// Inlining costs a CTE once per reference, which is not how a rewriting
/// runs; `ratio_materialized` (reported, not gated) is the same model
/// applied to what does run: each materialized CTE's plan costed once, over
/// the exact sizes of the CTE results it scans (the planner's CTE trace),
/// plus the body.
fn plancost(args: &Args) -> Json {
    use conquer::{prepare_rewrite, RewriteOptions};

    let thresholds = args.cost_threshold_file.as_deref().map(load_thresholds);
    let w = workload(args.sf, 0.05, 2);
    // Plan with CTEs inlined: a materialized CTE is built at plan time and
    // appears in the final plan only as a scan of its result, which would
    // hide the rewriting's real work from the cost model. Inlining keeps
    // every join and filter of the rewriting inside one costed tree.
    let mut options = args.options();
    options.materialize_ctes = false;
    let est = conquer::engine::Estimator::from_db(&w.db);
    // The options the planner's CTE trace costs under.
    let materialized = args.options();
    let mut queries = Vec::new();
    for q in all_queries() {
        let threshold = thresholds.as_ref().and_then(|t| t.get(&q.name()).copied());
        let costs = parse_query(q.sql)
            .map_err(|e| e.to_string())
            .and_then(|original| {
                let plan_o = w.db.plan(&original, &options).map_err(|e| e.to_string())?;
                let rewritten = prepare_rewrite(q.sql, &w.sigma, &RewriteOptions::default())
                    .map_err(|e| e.to_string())?;
                let plan_r =
                    w.db.plan(&rewritten.rewritten, &options)
                        .map_err(|e| e.to_string())?;
                let ran = sample(&w, &q, Strategy::Rewritten, &materialized)
                    .map_err(|e| e.to_string())?;
                let ctes = ran.ctes.iter().map(|c| c.est_cost).sum::<f64>();
                let cost_m = ctes + est.cost(&ran.plan);
                let ratio_m = cost_m / est.cost(&plan_o).max(1.0);
                Ok((est.cost(&plan_o), est.cost(&plan_r), cost_m, ratio_m))
            });
        let mut entry = Json::obj([("query", Json::from(q.name()))]);
        match costs {
            Ok((cost_o, cost_r, cost_m, ratio_m)) => {
                let ratio = cost_r / cost_o.max(1.0);
                let status = match threshold {
                    Some(t) if ratio > t => "cost_regression",
                    _ => "ok",
                };
                if status != "ok" {
                    FAILED.store(true, Ordering::Relaxed);
                    eprintln!(
                        "harness: {} plan-cost ratio {ratio:.2} exceeds threshold {:.2}",
                        q.name(),
                        threshold.unwrap_or(f64::INFINITY),
                    );
                }
                entry.push("status", Json::from(status));
                entry.push("cost_original", Json::Float(cost_o));
                entry.push("cost_rewritten", Json::Float(cost_r));
                entry.push("ratio", Json::Float(ratio));
                if let Some(t) = threshold {
                    entry.push("threshold", Json::Float(t));
                }
                entry.push("cost_materialized", Json::Float(cost_m));
                entry.push("ratio_materialized", Json::Float(ratio_m));
            }
            Err(e) => {
                FAILED.store(true, Ordering::Relaxed);
                eprintln!("harness: {} plancost error: {e}", q.name());
                entry.push("status", Json::from("error"));
                entry.push("error", Json::from(e));
            }
        }
        queries.push(entry);
    }
    let mut report = report_header("plancost", args, []);
    report.push("p", Json::Float(0.05));
    report.push("n", Json::UInt(2));
    if let Some(path) = &args.cost_threshold_file {
        report.push("threshold_file", Json::from(path.clone()));
    }
    report.push("queries", Json::Arr(queries));
    report
}

/// Parse a threshold file: `<query> <max_ratio>` per line, `#` comments
/// and blank lines ignored. A relative path missing from the working
/// directory is read from the workspace root, where [`RECORDED`] names it.
fn load_thresholds(path: &str) -> std::collections::HashMap<String, f64> {
    let workspace = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(path)
        .or_else(|e| match std::path::Path::new(path).is_relative() {
            true => std::fs::read_to_string(workspace.join(path)),
            false => Err(e),
        })
        .unwrap_or_else(|e| die(&format!("cannot read threshold file {path}: {e}")));
    let mut out = std::collections::HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next().and_then(|v| v.parse().ok())) {
            (Some(name), Some(ratio)) => {
                out.insert(name.to_string(), ratio);
            }
            _ => die(&format!(
                "{path}:{}: expected `<query> <max_ratio>`, got `{line}`",
                lineno + 1
            )),
        }
    }
    out
}

/// `opbench` — per-operator throughput microbenchmark. Each cell isolates
/// one executor kernel with a query shaped so that operator dominates, and
/// times it (`us`, median of `--runs`). Rows/sec is over the driving table —
/// the input the operator consumes — so cells and commits compare on one
/// denominator. Outer joins pin the build side (the engine only swaps inner
/// joins): `tiny LEFT JOIN big` isolates the build of `big`, `big LEFT JOIN
/// tiny` the probe over `big`.
fn opbench(args: &Args) -> Json {
    struct OpSpec {
        op: &'static str,
        /// The label the cell's operator starts with in `EXPLAIN`: the
        /// first such node, depth first, is the one `op_us` times.
        node: &'static str,
        driving: &'static str,
        sql: &'static str,
    }
    const OPS: &[OpSpec] = &[
        OpSpec {
            op: "filter",
            node: "Filter",
            driving: "lineitem",
            sql: "select l_orderkey from lineitem l \
                  where l_quantity > 25 and l_discount > 0.02",
        },
        OpSpec {
            op: "filter.text",
            node: "Filter",
            driving: "orders",
            sql: "select o_orderkey from orders o where o_orderstatus = 'F'",
        },
        OpSpec {
            op: "hash_build",
            node: "HashJoin",
            driving: "lineitem",
            sql: "select o.o_orderkey from orders o \
                  left join lineitem l on o.o_orderkey = l.l_orderkey",
        },
        OpSpec {
            op: "hash_probe",
            node: "HashJoin",
            driving: "lineitem",
            sql: "select l.l_orderkey from lineitem l \
                  left join orders o on l.l_orderkey = o.o_orderkey",
        },
        OpSpec {
            op: "semi_join",
            node: "HashJoin",
            driving: "orders",
            sql: "select o.o_orderkey from orders o where exists \
                  (select l.l_orderkey from lineitem l where l.l_orderkey = o.o_orderkey)",
        },
        // The rewritings' existence tests: a two-column key (the conflict
        // group key of `lineitem`; every probe row survives, so the output
        // is the probe batch), and a NOT EXISTS that keeps about half of a
        // wide probe side, which is then gathered.
        OpSpec {
            op: "semi_join.key2",
            node: "HashJoin",
            driving: "lineitem",
            sql: "select l.l_orderkey from lineitem l where exists \
                  (select l2.l_orderkey from lineitem l2 where l2.l_orderkey = l.l_orderkey \
                   and l2.l_linenumber = l.l_linenumber)",
        },
        OpSpec {
            op: "anti_join",
            node: "HashJoin",
            driving: "lineitem",
            sql: "select l.l_orderkey from lineitem l where not exists \
                  (select o.o_orderkey from orders o where o.o_orderkey = l.l_orderkey \
                   and o.o_orderstatus = 'F')",
        },
        OpSpec {
            op: "aggregate.global",
            node: "Aggregate",
            driving: "lineitem",
            sql: "select count(*), sum(l_extendedprice), avg(l_discount), \
                  min(l_quantity), max(l_quantity) from lineitem l",
        },
        OpSpec {
            op: "aggregate.group",
            node: "Aggregate",
            driving: "lineitem",
            sql: "select l_orderkey, count(*), sum(l_quantity) from lineitem l \
                  group by l_orderkey",
        },
        // Q1's grouping on the kernel path: four groups, so with more than
        // one thread the group-key kernel merges morsel-local partials.
        OpSpec {
            op: "aggregate.group.few",
            node: "Aggregate",
            driving: "lineitem",
            sql: "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), \
                  min(l_discount), max(l_tax), count(*) from lineitem l \
                  group by l_returnflag, l_linestatus",
        },
        // `conq_unfiltered`'s shape: the conflict-group key plus the
        // query's grouping columns, MIN/MAX pairs per aggregate.
        OpSpec {
            op: "aggregate.group.wide",
            node: "Aggregate",
            driving: "lineitem",
            sql: "select l_orderkey, l_linenumber, l_returnflag, l_linestatus, \
                  min(l_quantity), max(l_quantity), \
                  min(l_extendedprice), max(l_extendedprice), \
                  min(l_discount), max(l_discount), min(l_tax), max(l_tax) \
                  from lineitem l \
                  group by l_orderkey, l_linenumber, l_returnflag, l_linestatus",
        },
        OpSpec {
            op: "distinct",
            node: "Distinct",
            driving: "lineitem",
            sql: "select distinct l_orderkey, l_linenumber, l_returnflag, l_linestatus \
                  from lineitem l",
        },
        OpSpec {
            op: "union_all",
            node: "UnionAll",
            driving: "lineitem",
            sql: "select l_orderkey, l_quantity, l_returnflag from lineitem l \
                  union all \
                  select l_orderkey, l_quantity, l_returnflag from lineitem l2",
        },
        // Q1's final step in miniature: a GROUP BY over a union of FLOAT
        // bounds and the INTEGER zeros of Fig. 8's `CASE … THEN 0`.
        OpSpec {
            op: "aggregate.union",
            node: "Aggregate",
            driving: "lineitem",
            sql: "select u.f, u.s, sum(u.lo), sum(u.hi), sum(u.n), count(*) from \
                  (select l_returnflag as f, l_linestatus as s, l_extendedprice as lo, \
                   l_discount as hi, 1 as n from lineitem l \
                   union all \
                   select l_returnflag, l_linestatus, 0, 0, 0 from lineitem l2 \
                   where l_discount > 0.08) u \
                  group by u.f, u.s",
        },
        // The rewritings' final per-group float sums: one exact sum per
        // group, about four rows each.
        OpSpec {
            op: "aggregate.sum.groups",
            node: "Aggregate",
            driving: "lineitem",
            sql: "select l_orderkey, sum(l_extendedprice) from lineitem l group by l_orderkey",
        },
        // ORDER BY over a float key, whole and under a LIMIT (a top-N:
        // Q3's and Q10's final step).
        OpSpec {
            op: "sort",
            node: "Sort",
            driving: "lineitem",
            sql: "select l_orderkey, l_extendedprice from lineitem l \
                  order by l_extendedprice desc",
        },
        OpSpec {
            op: "sort.limit",
            node: "Sort",
            driving: "lineitem",
            sql: "select l_orderkey, l_extendedprice from lineitem l \
                  order by l_extendedprice desc limit 20",
        },
        // `conq_base`'s projection in rewritten Q1: arithmetic with a
        // scalar on either side, COALESCE and a CASE over IS NULL.
        OpSpec {
            op: "project.arith",
            node: "Project",
            driving: "lineitem",
            sql: "select l_extendedprice * (1 - l_discount), \
                  l_extendedprice * (1 - l_discount) * (1 + l_tax), \
                  coalesce(l_quantity, 0), \
                  case when l_quantity is null then 0 else 1 end \
                  from lineitem l",
        },
    ];

    let w = workload(args.sf, 0.05, 2);

    let options = args.options();
    // The median sample's wall, and the self time of its first `node`
    // operator: what the cell costs without the rows it returns.
    let time = |sql: &str, node: &str| -> Result<(Duration, Duration), String> {
        let run = || sample_sql(&w.db, &w.sigma, sql, Strategy::Original, &options);
        // Warm-up run: the lazy index builds and statistics land here, so
        // the timed runs measure execution, not first-touch setup.
        run().map_err(|e| e.to_string())?;
        let median = median_sample(args.runs, run, |s| {
            operator_self(&s.plan, &s.stats, node).unwrap_or_default()
        });
        median.map_err(|e| e.to_string())
    };

    let mut ops = Vec::new();
    for spec in OPS {
        let rows = w.db.table(spec.driving).map_or(0, |t| t.len());
        let mut entry = Json::obj([
            ("op", Json::from(spec.op)),
            ("driving_table", Json::from(spec.driving)),
            ("driving_rows", Json::UInt(rows as u64)),
            (
                "sql",
                Json::from(spec.sql.split_whitespace().collect::<Vec<_>>().join(" ")),
            ),
        ]);
        match time(spec.sql, spec.node) {
            Ok((t, op)) => {
                let rps = rows as f64 / t.as_secs_f64().max(1e-9);
                entry.push("status", Json::from("ok"));
                entry.push("us", Json::UInt(t.as_micros() as u64));
                entry.push("node", Json::from(spec.node));
                entry.push("op_us", Json::UInt(op.as_micros() as u64));
                entry.push("rows_per_sec", Json::Float(rps));
            }
            Err(e) => {
                FAILED.store(true, Ordering::Relaxed);
                eprintln!("harness: opbench {} error: {e}", spec.op);
                entry.push("status", Json::from("error"));
                entry.push("error", Json::from(e));
            }
        }
        ops.push(entry);
    }
    report_header("opbench", args, [("operators", Json::Arr(ops))])
}

/// Self time of the first operator, depth first, whose `EXPLAIN` label
/// starts with `node`.
fn operator_self(plan: &Plan, stats: &NodeStats, node: &str) -> Option<Duration> {
    if conquer::engine::explain::node_label(plan).starts_with(node) {
        return Some(stats.self_wall());
    }
    plan.children()
        .into_iter()
        .zip(&stats.children)
        .find_map(|(p, s)| operator_self(p, s, node))
}

/// `idxbench` — what secondary indexes buy. Three access-path-sensitive
/// shapes over the standard workload's `orders` table (whose conflict
/// group key `o_orderkey` gets an auto-declared index): a batch of keyed
/// point lookups, the key self-join the ConQuer rewriting is built from,
/// the violated keys (`conq_conflicts`: index-only off the conflict
/// list vs the group-key kernel), and a one-row `INSERT` into `orders`
/// followed by a point lookup of the inserted key (the indexed write keeps
/// the built index current through `Index::extended`; the lookup reads it
/// or scans). Each is timed on the workload's database, whose planner
/// sees the declared key indexes, and on its index-blind twin
/// ([`index_blind_twin`]: the same tables, no index declared),
/// at `--sf` and 4×`--sf` — the defaults land on SF 0.05 and 0.2, the
/// scales the index acceptance criteria are stated at. Point lookups are
/// timed in batches of 64 because a single indexed probe is microseconds
/// — too close to clock resolution to compare honestly.
fn idxbench(args: &Args) -> Json {
    const LOOKUPS_PER_RUN: usize = 64;
    const JOIN_SQL: &str = "select a.o_orderkey from orders a, orders b \
                            where a.o_orderkey = b.o_orderkey \
                            and a.o_totalprice < b.o_totalprice";
    const CONFLICTS_SQL: &str = "select o_orderkey from orders o \
                                 group by o_orderkey having count(*) > 1";

    let options = args.options();
    let mut scales = Vec::new();
    for sf in [args.sf, args.sf * 4.0] {
        let w = workload(sf, 0.05, 2);
        let blind = index_blind_twin(&w.db);
        let orders_rows = w.db.table("orders").map_or(0, |t| t.len());
        // Sample keys evenly across the whole key range so the lookup
        // batch touches many chunks, not one hot spot.
        let keys: Vec<i64> = match blind.query_with("select o_orderkey from orders o", &options) {
            Ok(rows) => {
                let all: Vec<i64> = rows
                    .rows
                    .iter()
                    .filter_map(|r| r[0].to_string().parse().ok())
                    .collect();
                (0..LOOKUPS_PER_RUN)
                    .filter_map(|i| all.get(i * all.len() / LOOKUPS_PER_RUN).copied())
                    .collect()
            }
            Err(e) => die(&format!("idxbench: cannot enumerate orders keys: {e}")),
        };
        let lookup = |k: i64| format!("select o_totalprice from orders o where o_orderkey = {k}");
        let lookup_sqls: Vec<String> = keys.iter().map(|&k| lookup(k)).collect();
        // Into an existing key: the write also grows a conflict group.
        let insert_key = keys.first().copied().unwrap_or(1);
        let insert_sqls = [
            format!("insert into orders (o_orderkey, o_totalprice) values ({insert_key}, 1.0)"),
            lookup(insert_key),
        ];

        // Statements run in order, each one traced run; an `INSERT` goes
        // through the script path under the root span, the rest are
        // samples.
        let run = |db: &Database, sql: &str| -> Result<Duration, String> {
            if sql.starts_with("insert") {
                let (done, wall, _) = traced(|| db.run_script(sql));
                done.map(|_| wall).map_err(|e| e.to_string())
            } else {
                let s = sample_sql(db, &w.sigma, sql, Strategy::Original, &options);
                s.map(|s| s.wall).map_err(|e| e.to_string())
            }
        };
        let batch = |db: &Database, sqls: &[String]| -> Result<Duration, String> {
            sqls.iter().map(|sql| run(db, sql)).sum()
        };
        let time_batch = |db: &Database, sqls: &[String]| -> Result<Duration, String> {
            // Warm-up pass: the lazy index build lands here, so the timed
            // runs measure probes.
            batch(db, sqls)?;
            let mut times = (0..args.runs.max(1))
                .map(|_| batch(db, sqls))
                .collect::<Result<Vec<_>, _>>()?;
            times.sort_unstable();
            Ok(times[times.len() / 2])
        };
        let uses_index = |sql: &str| {
            w.db.explain_with(sql, &options)
                .map(|plan| plan.contains("access=index"))
                .unwrap_or(false)
        };

        let mut ops = Vec::new();
        let join_sqls = [JOIN_SQL.to_string()];
        let conflict_sqls = [CONFLICTS_SQL.to_string()];
        let cells: [(&str, &[String], usize); 4] = [
            ("point_lookup", &lookup_sqls, keys.len()),
            ("key_self_join", &join_sqls, orders_rows),
            ("conflict_keys", &conflict_sqls, orders_rows),
            ("insert_indexed", &insert_sqls, 1),
        ];
        for (op, sqls, units) in cells {
            let mut entry = Json::obj([
                ("op", Json::from(op)),
                ("units_per_run", Json::UInt(units as u64)),
            ]);
            let planned = sqls.last().is_some_and(|sql| uses_index(sql));
            match (time_batch(&blind, sqls), time_batch(&w.db, sqls)) {
                (Ok(t_seq), Ok(t_idx)) => {
                    let ups = |t: Duration| units as f64 / t.as_secs_f64().max(1e-9);
                    entry.push("status", Json::from("ok"));
                    entry.push("seqscan_us", Json::UInt(t_seq.as_micros() as u64));
                    entry.push("indexed_us", Json::UInt(t_idx.as_micros() as u64));
                    entry.push("seqscan_units_per_sec", Json::Float(ups(t_seq)));
                    entry.push("indexed_units_per_sec", Json::Float(ups(t_idx)));
                    entry.push("speedup", Json::Float(speedup(t_seq, t_idx)));
                    entry.push("indexed_plan_uses_index", Json::Bool(planned));
                }
                (seq_r, idx_r) => {
                    let e = seq_r.err().or(idx_r.err()).unwrap_or_default();
                    FAILED.store(true, Ordering::Relaxed);
                    eprintln!("harness: idxbench {op} error: {e}");
                    entry.push("status", Json::from("error"));
                    entry.push("error", Json::from(e));
                }
            }
            ops.push(entry);
        }
        scales.push(Json::obj([
            ("sf", Json::Float(sf)),
            ("orders_rows", Json::UInt(orders_rows as u64)),
            ("lookups_per_run", Json::UInt(LOOKUPS_PER_RUN as u64)),
            ("ops", Json::Arr(ops)),
        ]));
    }
    report_header("idxbench", args, [("scales", Json::Arr(scales))])
}

/// `trace` — one traced run ([`sample_sql`]) of a SQL statement against
/// the standard workload, exported as a Chrome trace-viewer document.
///
/// The report written by `main` (`BENCH_trace.json`, or `--json`) IS the
/// Chrome document: `traceEvents` carries one complete (`ph: "X"`) event
/// per span, `ts`/`dur` in microseconds since the process trace epoch,
/// `tid` the span's process-unique thread tag — so morsel workers land on
/// their own rows in the viewer. The query is also recorded in the
/// process-wide flight recorder (session 0), same as a served query.
fn trace_cmd(args: &Args) -> Json {
    use conquer_obs::{flight_recorder, QueryId, QueryTrace};

    let sql = args
        .sql
        .clone()
        .unwrap_or_else(|| die("trace requires a SQL string: harness trace \"<sql>\""));
    let w = workload(args.sf, 0.05, 2);
    let options = args.options();
    let result = sample_sql(&w.db, &w.sigma, &sql, args.strategy, &options);
    let status = run_status(&result);
    let (spans, elapsed_us, rows_out, error) = match result {
        Ok(s) => {
            let wall = s.wall.as_micros() as u64;
            (s.spans, wall, s.rows.len() as u64, None)
        }
        Err(e) => {
            FAILED.store(true, Ordering::Relaxed);
            eprintln!("harness: trace [{}] {status}: {e}", args.strategy.label());
            (Vec::new(), 0, 0, Some(e.to_string()))
        }
    };
    let start_unix_ms = spans.last().map_or(0, |root| root.start_unix_ms());
    let worker_spans = spans.iter().filter(|s| s.name == "worker").count() as u64;

    let query_id = QueryId::next().value();
    flight_recorder().record(QueryTrace {
        query_id,
        session: 0,
        sql_hash: conquer_obs::sql_hash(&sql),
        sql: conquer_obs::sql_snippet(&sql),
        strategy: args.strategy.label(),
        status,
        error: error.clone(),
        cached: false,
        cache: "miss".into(),
        elapsed_us,
        rows_out,
        rows_in: 0,
        est_rows: None,
        threads: options.threads,
        worker_spans,
        start_unix_ms,
        trip: None,
        spans: spans.clone(),
    });

    let events = spans.iter().map(|s| {
        Json::obj([
            ("name", Json::from(s.name)),
            ("cat", Json::from("span")),
            ("ph", Json::from("X")),
            ("ts", Json::UInt(s.start.as_micros() as u64)),
            ("dur", Json::UInt(s.wall.as_micros() as u64)),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(s.thread)),
            ("args", s.to_json()),
        ])
    });
    let mut other = Json::obj([
        ("sql", Json::from(sql)),
        ("strategy", Json::from(args.strategy.label())),
        ("status", Json::from(status)),
        ("query_id", Json::UInt(query_id)),
        ("elapsed_us", Json::UInt(elapsed_us)),
        ("rows_out", Json::UInt(rows_out)),
        ("worker_spans", Json::UInt(worker_spans)),
        ("start_unix_ms", Json::UInt(start_unix_ms)),
        ("epoch_unix_ms", Json::UInt(conquer_obs::epoch_unix_ms())),
    ]);
    if let Some(e) = error {
        other.push("error", Json::from(e));
    }
    Json::obj([
        ("traceEvents", Json::arr(events)),
        ("displayTimeUnit", Json::from("ms")),
        ("otherData", other),
        ("sf", Json::Float(args.sf)),
        ("threads", Json::UInt(args.threads as u64)),
    ])
}

/// Read `stats.cache.{hits,misses}` from a server stats snapshot.
fn cache_counters(stats: &Json) -> (f64, f64) {
    let read = |name: &str| {
        stats
            .get("cache")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    (read("hits"), read("misses"))
}

/// `serve` — closed-loop load generation against an in-process
/// `conquer-serve` server over the standard annotated workload.
///
/// Each of `--concurrency` worker connections runs the full benchmark
/// query × strategy grid `--rounds` times, timing every round trip
/// client-side; `busy` rejections are retried (and counted), anything else
/// is an error. A single warmup pass populates the server's rewrite/plan
/// cache; a pair it cannot answer stops the run.
fn serve_cmd(args: &Args) -> Json {
    use conquer_serve::{serve, Client, ServerConfig};

    // Trajectory points: total open connections per sweep step. Each point
    // keeps that many connections open — `min(concurrency, point)` driving
    // the closed loop, the rest idle — so the report captures how latency
    // and throughput move with connection count, not just one operating
    // point.
    let points: Vec<usize> = if args.connections.is_empty() {
        vec![args.concurrency]
    } else {
        args.connections.clone()
    };
    let max_point = points.iter().copied().max().unwrap_or(args.concurrency);

    let w = workload(args.sf, 0.05, 2);
    let server = serve(
        std::sync::Arc::new(w.db),
        w.sigma,
        ServerConfig {
            max_sessions: max_point.max(args.concurrency) + 8,
            max_concurrent: args.concurrency,
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| die(&format!("cannot start in-process server: {e}")));
    let addr = server.addr();

    let queries = all_queries();
    let mut warm =
        Client::connect(addr).unwrap_or_else(|e| die(&format!("cannot connect to {addr}: {e}")));

    // Warmup: populate the cache.
    let mut pairs: Vec<(&BenchmarkQuery, Strategy)> = Vec::new();
    for strategy in Strategy::ALL {
        for q in &queries {
            if let Err(e) = warm.query_with(q.sql, Some(strategy)) {
                die(&format!("warm-up {} [{}]: {e}", q.name(), strategy.label()));
            }
            pairs.push((q, strategy));
        }
    }
    // One sweep step per connection point: open the idle connections, run
    // the closed loop (quiet, then beside the churn writer when asked),
    // report, tear the idle connections back down.
    let phases: Vec<Option<u64>> = std::iter::once(None)
        .chain(args.churn_ms.map(Some))
        .collect();
    let mut trajectory = Vec::new();
    for &point in &points {
        let active = point.min(args.concurrency);
        let idle_count = point - active;
        // The idle connections cost the server registration + readiness
        // sweeping — exactly the pressure this axis is meant to measure.
        let mut idle = Vec::new();
        for i in 0..idle_count {
            match Client::connect(addr) {
                Ok(c) => idle.push(c),
                Err(e) => die(&format!("idle connection {i} of {idle_count}: {e}")),
            }
        }
        for &churn_ms in &phases {
            let (hits0, misses0) = cache_counters(&warm.stats().unwrap_or(Json::Null));
            let stop = AtomicBool::new(false);
            let (floor, worker_results, wall, inserts) = std::thread::scope(|scope| {
                let stop = &stop;
                let writer = churn_ms.map(|ms| scope.spawn(move || churn_writer(addr, ms, stop)));
                let floor = wire_floor(&mut warm, &pairs);
                let (results, wall, _) = traced(|| serve_point(addr, &pairs, args.rounds, active));
                stop.store(true, Ordering::Release);
                let inserts = writer.map(|w| w.join().expect("churn writer"));
                (floor, results, wall, inserts)
            });
            let inserts = inserts.map(|outcome| {
                outcome.unwrap_or_else(|e| {
                    FAILED.store(true, Ordering::Relaxed);
                    eprintln!("harness: churn writer error: {e}");
                    0
                })
            });

            let mut busy_total = 0u64;
            let mut all_samples: Vec<ServeSample> = Vec::new();
            for (samples, busy, errors) in worker_results {
                busy_total += busy;
                all_samples.extend(samples);
                for e in errors {
                    FAILED.store(true, Ordering::Relaxed);
                    eprintln!("harness: serve worker error: {e}");
                }
            }

            // Per-phase cache delta: everything after warmup should be a
            // hit, writer or no writer — nothing reads its table.
            let (hits1, misses1) = cache_counters(&warm.stats().unwrap_or(Json::Null));
            let (dh, dm) = (hits1 - hits0, misses1 - misses0);
            let hit_rate = if dh + dm > 0.0 { dh / (dh + dm) } else { 0.0 };

            let mut strategy_reports = Vec::new();
            for strategy in Strategy::ALL {
                let of_strategy = all_samples.iter().filter(|s| s.strategy == strategy);
                let (mut lat, mut server): (Vec<u64>, Vec<u64>) =
                    of_strategy.map(|s| (s.round_trip_us, s.server_us)).unzip();
                if lat.is_empty() {
                    continue;
                }
                lat.sort_unstable();
                server.sort_unstable();
                let (p50, p95, p99) = (
                    conquer_bench::percentile(&lat, 0.50),
                    conquer_bench::percentile(&lat, 0.95),
                    conquer_bench::percentile(&lat, 0.99),
                );
                let mean = lat.iter().sum::<u64>() / lat.len() as u64;
                strategy_reports.push(Json::obj([
                    ("strategy", Json::from(strategy.label())),
                    ("count", Json::UInt(lat.len() as u64)),
                    ("p50_us", Json::UInt(p50)),
                    ("p95_us", Json::UInt(p95)),
                    ("p99_us", Json::UInt(p99)),
                    ("mean_us", Json::UInt(mean)),
                    (
                        "server_p50_us",
                        Json::UInt(conquer_bench::percentile(&server, 0.50)),
                    ),
                ]));
            }
            let throughput = all_samples.len() as f64 / wall.as_secs_f64().max(1e-9);

            let mut entry = Json::obj([
                ("connections", Json::UInt(point as u64)),
                ("active", Json::UInt(active as u64)),
                ("idle", Json::UInt(idle_count as u64)),
                ("wire_floor", floor),
                ("strategies", Json::Arr(strategy_reports)),
                (
                    "totals",
                    Json::obj([
                        ("queries", Json::UInt(all_samples.len() as u64)),
                        ("busy_retries", Json::UInt(busy_total)),
                        ("wall_ms", Json::Float(wall.as_secs_f64() * 1e3)),
                        ("throughput_qps", Json::Float(throughput)),
                    ]),
                ),
                (
                    "cache",
                    Json::obj([
                        ("post_warmup_hit_rate", Json::Float(hit_rate)),
                        ("hits", Json::Float(dh)),
                        ("misses", Json::Float(dm)),
                    ]),
                ),
            ]);
            if let (Some(ms), Some(n)) = (churn_ms, inserts) {
                entry.push(
                    "churn",
                    Json::obj([
                        ("interval_ms", Json::UInt(ms)),
                        ("table", Json::from(CHURN_TABLE)),
                        ("inserts", Json::UInt(n)),
                    ]),
                );
            }
            trajectory.push(entry);
        }
        for client in idle {
            let _ = client.quit();
        }
    }

    let _ = warm.quit();
    server.shutdown();

    let mut report = report_header("serve", args, []);
    report.push("addr", Json::from(addr.to_string()));
    report.push("concurrency", Json::UInt(args.concurrency as u64));
    report.push("rounds", Json::UInt(args.rounds as u64));
    if let Some(ms) = args.churn_ms {
        report.push("churn_ms", Json::UInt(ms));
    }
    report.push(
        "connections",
        Json::Arr(points.iter().map(|&n| Json::UInt(n as u64)).collect()),
    );
    report.push("trajectory", Json::Arr(trajectory));
    report
}

/// The wire floor at one trajectory point (ROADMAP 1(d)): what a round
/// trip costs when the server has next to nothing to do. `ping` is
/// answered inline by the connection's IO driver; the cheapest cached
/// statement adds the run queue, a worker, a cache hit and its
/// (small) execution. Both are timed on one otherwise idle connection
/// before the closed loop starts — beside the churn writer in its phase.
fn wire_floor(client: &mut conquer_serve::Client, pairs: &[(&BenchmarkQuery, Strategy)]) -> Json {
    const SAMPLES: usize = 200;
    let fail = |what: &str, e: &dyn std::fmt::Display| {
        FAILED.store(true, Ordering::Relaxed);
        eprintln!("harness: wire floor {what}: {e}");
    };
    // (p50, p95) in microseconds, from nanosecond samples.
    let quantiles = |mut ns: Vec<u64>| {
        ns.sort_unstable();
        let us = |q| conquer_bench::percentile(&ns, q) as f64 / 1e3;
        (us(0.50), us(0.95))
    };

    let mut pings = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        match round_trip(|| client.ping()) {
            (Ok(()), ns) => pings.push(ns),
            (Err(e), _) => fail("ping", &e),
        }
    }
    let (ping_p50, ping_p95) = quantiles(pings);

    // The cheapest statement by the server's own clock, one cached run each.
    let mut cheapest: Option<(u64, &BenchmarkQuery, Strategy)> = None;
    for &(q, strategy) in pairs {
        match client.query_with(q.sql, Some(strategy)) {
            Ok(outcome) => match cheapest {
                Some((us, ..)) if us <= outcome.elapsed_us => {}
                _ => cheapest = Some((outcome.elapsed_us, q, strategy)),
            },
            Err(e) => fail(&q.name(), &e),
        }
    }
    let mut floor = Json::obj([
        ("samples", Json::UInt(SAMPLES as u64)),
        ("ping_p50_us", Json::Float(ping_p50)),
        ("ping_p95_us", Json::Float(ping_p95)),
    ]);
    let Some((_, q, strategy)) = cheapest else {
        return floor;
    };
    let (mut rtt, mut server) = (Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES));
    for _ in 0..SAMPLES {
        match round_trip(|| client.query_with(q.sql, Some(strategy))) {
            (Ok(outcome), ns) => {
                rtt.push(ns);
                server.push(outcome.elapsed_us * 1_000);
            }
            (Err(e), _) => fail(&q.name(), &e),
        }
    }
    let ((rtt_p50, rtt_p95), (server_p50, _)) = (quantiles(rtt), quantiles(server));
    floor.push(
        "cheapest_statement",
        Json::obj([
            ("query", Json::from(q.name())),
            ("strategy", Json::from(strategy.label())),
            ("p50_us", Json::Float(rtt_p50)),
            ("p95_us", Json::Float(rtt_p95)),
            ("server_p50_us", Json::Float(server_p50)),
        ]),
    );
    floor
}

/// The table `--churn-ms` writes to; no benchmark query reads it.
const CHURN_TABLE: &str = "harness_churn";

/// The `--churn-ms` writer: one connection inserting a row into
/// [`CHURN_TABLE`] every `interval_ms` until `stop` is set. Returns how
/// many inserts the server acknowledged.
fn churn_writer(
    addr: std::net::SocketAddr,
    interval_ms: u64,
    stop: &AtomicBool,
) -> Result<u64, String> {
    let mut client = conquer_serve::Client::connect(addr).map_err(|e| e.to_string())?;
    // An external server may still hold the table from an earlier run.
    if let Err(e) = client.script(&format!("create table {CHURN_TABLE} (seq integer)")) {
        if !e.to_string().contains("already exists") {
            return Err(e.to_string());
        }
    }
    let mut inserts = 0u64;
    while !stop.load(Ordering::Acquire) {
        match client.script(&format!("insert into {CHURN_TABLE} values ({inserts})")) {
            Ok(()) => inserts += 1,
            Err(e) if e.is_busy() => {}
            Err(e) => return Err(e.to_string()),
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    let _ = client.quit();
    Ok(inserts)
}

/// Time one client round trip, in nanoseconds. This is the harness's one
/// clock besides the process's own: wire latency has no server-side
/// source, where the server's share of it is `QueryOutcome::elapsed_us`.
fn round_trip<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// One answered request of the closed loop: the round trip the client saw
/// and the server's own time for it.
struct ServeSample {
    strategy: Strategy,
    round_trip_us: u64,
    server_us: u64,
}

/// What one closed-loop worker brings home: its samples, busy-retry
/// count, and any hard errors.
type WorkerResult = (Vec<ServeSample>, u64, Vec<String>);

/// One trajectory point of the `serve` closed loop: `active` workers, each
/// owning one connection, walking the query × strategy grid `rounds` times
/// with staggered starts so the workers don't march in lockstep.
fn serve_point(
    addr: std::net::SocketAddr,
    pairs: &[(&BenchmarkQuery, Strategy)],
    rounds: usize,
    active: usize,
) -> Vec<WorkerResult> {
    use conquer_serve::Client;

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for wid in 0..active {
            handles.push(scope.spawn(move || {
                let mut samples: Vec<ServeSample> = Vec::new();
                let mut busy = 0u64;
                let mut errors: Vec<String> = Vec::new();
                // The session cap can also greet with busy; retry briefly.
                let mut client = None;
                for _ in 0..1000 {
                    match Client::connect(addr) {
                        Ok(c) => {
                            client = Some(c);
                            break;
                        }
                        Err(e) if e.is_busy() => {
                            busy += 1;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => {
                            errors.push(format!("worker {wid} connect: {e}"));
                            return (samples, busy, errors);
                        }
                    }
                }
                let Some(mut client) = client else {
                    errors.push(format!("worker {wid}: session cap never freed"));
                    return (samples, busy, errors);
                };
                // One engine thread per query: with N concurrent
                // sessions the parallelism is across connections.
                if let Err(e) = client.set("threads", Json::UInt(1)) {
                    errors.push(format!("worker {wid} set threads: {e}"));
                }
                for _ in 0..rounds {
                    for i in 0..pairs.len() {
                        let (q, strategy) = pairs[(i + wid) % pairs.len()];
                        let mut attempts = 0u32;
                        loop {
                            let asked = || client.query_with(q.sql, Some(strategy));
                            match round_trip(asked) {
                                (Ok(outcome), ns) => {
                                    std::hint::black_box(outcome.rows.rows.len());
                                    samples.push(ServeSample {
                                        strategy,
                                        round_trip_us: ns / 1_000,
                                        server_us: outcome.elapsed_us,
                                    });
                                    break;
                                }
                                (Err(e), _) if e.is_busy() && attempts < 1000 => {
                                    busy += 1;
                                    attempts += 1;
                                    std::thread::sleep(Duration::from_millis(1));
                                }
                                (Err(e), _) => {
                                    errors.push(format!(
                                        "{} [{}]: {e}",
                                        q.name(),
                                        strategy.label()
                                    ));
                                    break;
                                }
                            }
                        }
                    }
                }
                let _ = client.quit();
                (samples, busy, errors)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("serve worker"))
            .collect()
    })
}

/// `recover` — crash-recovery benchmark for the durable storage layer.
///
/// Loads the standard TPC-H workload into a WAL-backed database under a
/// temp dir, then times the two recovery paths a restart can take:
///
/// 1. **WAL replay**: reopen with the load still sitting in the WAL — the
///    worst case (every record decoded, validated and applied).
/// 2. **Segment load**: checkpoint, reopen again — the steady-state boot
///    (columnar snapshots, empty WAL; statistics wait for a first reader).
///
/// The report carries row/table counts, the WAL size the load produced,
/// the checkpoint's time and the bytes of the segments it wrote, and both
/// restart times. Each time is a span's: the load's under the root span,
/// each restart's `open` and the `checkpoint`; beside them, the storage
/// layer's own share from the registry (`storage.recover.replay.us`,
/// `storage.checkpoint.us`: reading and writing the files, before decoding
/// and after encoding).
fn recover_cmd(args: &Args) -> Json {
    use conquer::{Database, DurabilityOptions, SyncPolicy};

    let dir = std::env::temp_dir().join(format!("conquer-harness-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // `Never` keeps fsyncs out of the load timing; an explicit flush before
    // the simulated crash makes the WAL complete on disk.
    let opts = DurabilityOptions {
        sync: SyncPolicy::Never,
        checkpoint_wal_bytes: 0,
    };

    let w = workload(args.sf, 0.05, 2);
    let tables = w.db.table_names();
    let rows: u64 = conquer_bench::total_tuples(&w.db) as u64;
    let registry = conquer_obs::registry();
    let (store_replay, store_checkpoint) = (
        registry.histogram("storage.recover.replay.us"),
        registry.histogram("storage.checkpoint.us"),
    );
    let us = |d: Duration| d.as_micros() as u64;
    // A restart: its `open` span, and the store's share of it.
    let reopen = || {
        let before = store_replay.snapshot().sum;
        let (db, spans) = conquer_obs::capture(|| Database::open(&dir, opts));
        let db = db.unwrap_or_else(|e| die(&format!("reopen: {e}")));
        let open_us = us(span_wall(&spans, "open"));
        (db, open_us, store_replay.snapshot().sum - before)
    };

    // Load: copy every generated table into the durable catalog (each copy
    // is one WAL snapshot record).
    let (db, load, _) = traced(|| {
        let db = Database::open(&dir, opts).unwrap_or_else(|e| die(&format!("open {dir:?}: {e}")));
        for name in &tables {
            let table = w.db.table(name).unwrap_or_else(|e| die(&e.to_string()));
            db.register((*table).clone())
                .unwrap_or_else(|e| die(&format!("register {name}: {e}")));
        }
        db.flush().unwrap_or_else(|e| die(&format!("flush: {e}")));
        db
    });
    let load_us = us(load);
    let wal_bytes = db.storage_status().map_or(0, |s| s.wal_bytes);
    drop(db); // simulated crash: no checkpoint, the WAL holds everything

    // Restart 1: full WAL replay.
    let (db, replay_wal_us, store_replay_wal_us) = reopen();
    let recovered: u64 = conquer_bench::total_tuples(&db) as u64;
    if recovered != rows {
        FAILED.store(true, Ordering::Relaxed);
        eprintln!("harness: WAL replay recovered {recovered} rows, expected {rows}");
    }

    // Fold into segments, then time the steady-state boot.
    let written_before = store_checkpoint.snapshot().sum;
    let (done, spans) = conquer_obs::capture(|| db.checkpoint());
    done.unwrap_or_else(|e| die(&format!("checkpoint: {e}")));
    let checkpoint_us = us(span_wall(&spans, "checkpoint"));
    let store_checkpoint_us = store_checkpoint.snapshot().sum - written_before;
    let segments = db.storage_status().map_or(0, |s| s.segments);
    let segment_bytes: u64 = std::fs::read_dir(&dir)
        .map(|entries| {
            let files = entries.flatten();
            let segs = files.filter(|e| e.file_name().to_string_lossy().starts_with("seg-"));
            segs.filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    drop(db);
    let (db, replay_segments_us, store_replay_segments_us) = reopen();
    let recovered_seg: u64 = conquer_bench::total_tuples(&db) as u64;
    if recovered_seg != rows {
        FAILED.store(true, Ordering::Relaxed);
        eprintln!("harness: segment load recovered {recovered_seg} rows, expected {rows}");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    let mut report = report_header("recover", args, []);
    report.push("tables", Json::UInt(tables.len() as u64));
    report.push("rows", Json::UInt(rows));
    report.push("wal_bytes", Json::UInt(wal_bytes));
    report.push("segments", Json::UInt(segments));
    report.push("segment_bytes", Json::UInt(segment_bytes));
    report.push("load_us", Json::UInt(load_us));
    report.push("replay_wal_us", Json::UInt(replay_wal_us));
    report.push("checkpoint_us", Json::UInt(checkpoint_us));
    report.push("replay_segments_us", Json::UInt(replay_segments_us));
    report.push("store_replay_wal_us", Json::UInt(store_replay_wal_us));
    report.push("store_checkpoint_us", Json::UInt(store_checkpoint_us));
    report.push(
        "store_replay_segments_us",
        Json::UInt(store_replay_segments_us),
    );
    report
}

/// A `/proc/self/status` memory field of this process (`VmHWM`, `VmRSS`)
/// in bytes (0 where `/proc` has none).
fn proc_status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kib| kib * 1024)
}

/// What one `load` run held once its first pass was done.
#[derive(Default)]
struct Resident {
    tuples: u64,
    column_bytes: u64,
    /// Per built key index: table, bytes, distinct keys, rows. Numbers,
    /// not the index: an `Arc` kept here would keep the run's tables alive
    /// into the next run's peak.
    indexes: Vec<(String, u64, u64, u64)>,
    pivoted_rows: u64,
    rss_loaded: u64,
    rss_after: u64,
}

/// Set-up cost: the steps of §6.1's protocol that precede every figure,
/// each timed on its own, at `--sf` and 4×`--sf`. Beside the load: one
/// from-scratch `TableStats` collection of every loaded table, which the
/// load no longer pays (the first plan that reads a table version does).
/// Beside the first pass: the key-index builds inside it (the
/// `index.build.us` histogram's delta), and where resident bytes are after
/// it — stored columns, built indexes, rows the pass pivoted, `VmRSS`.
fn load_cmd(args: &Args) -> Json {
    use conquer::tpch::{
        benchmark_constraints, generate_database, inject_database, GenConfig, TABLES,
    };
    use conquer::{annotate_database, declare_key_indexes};
    use conquer_bench::try_run_query;
    use conquer_obs::capture;

    const STEPS: [&str; 4] = ["generate", "inject", "annotate", "first_pass"];
    let registry = conquer_obs::registry();
    let index_builds = registry.histogram("index.build.us");
    let to_rows = registry.counter("exec.pivot.to_rows");
    let before = args.before.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        Json::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e:?}")))
    });
    let mut scales = Vec::new();
    for sf in [args.sf, args.sf * 4.0] {
        let mut samples: [Vec<u64>; 4] = Default::default();
        let mut index_build_us = Vec::new();
        let mut stats_collect_us = Vec::new();
        let mut last = Resident::default();
        for _ in 0..args.runs.max(1) {
            // Each step's time is the span it runs under.
            let mut step = |i: usize, spans: &[conquer_obs::SpanRecord]| {
                samples[i].push(span_wall(spans, STEPS[i]).as_micros() as u64);
            };
            let (db, spans) = capture(|| {
                generate_database(&GenConfig {
                    scale_factor: sf,
                    seed: 0xC09E_5EED,
                    threads: args.threads,
                })
            });
            step(0, &spans);
            let sigma = benchmark_constraints();
            let (injection, spans) = capture(|| inject_database(&db, &sigma, 0.05, 2, 0xC09E_5EED));
            step(1, &spans);
            let (annotation, spans) = capture(|| annotate_database(&db, &sigma));
            let annotation = annotation.unwrap_or_else(|e| die(&format!("load: annotate: {e}")));
            step(2, &spans);
            let rss_loaded = proc_status_bytes("VmRSS:");
            let (built_before, pivoted_before) = (index_builds.snapshot().sum, to_rows.get());
            let (w, first_pass, _) = traced(|| {
                declare_key_indexes(&db, &sigma);
                let w = Workload {
                    db,
                    sigma,
                    injection,
                    annotation: Some(annotation),
                };
                for q in all_queries() {
                    for strategy in Strategy::ALL {
                        if let Err(e) = try_run_query(&w, &q, strategy, &args.options()) {
                            FAILED.store(true, Ordering::Relaxed);
                            eprintln!("harness: load: {} [{}]: {e}", q.name(), strategy.label());
                        }
                    }
                }
                w
            });
            samples[3].push(first_pass.as_micros() as u64);
            index_build_us.push(index_builds.snapshot().sum - built_before);
            // One from-scratch statistics collection of every table: a twin
            // over the same columns has none collected yet, and its first
            // reader collects each under the engine's `stats.collect` span.
            let twin = index_blind_twin(&w.db);
            let ((), spans) = capture(|| {
                for t in TABLES {
                    std::hint::black_box(twin.table_stats(t));
                }
            });
            drop(twin);
            stats_collect_us.push(span_wall(&spans, "stats.collect").as_micros() as u64);
            let tables: Vec<_> = TABLES.iter().filter_map(|t| w.db.table(t).ok()).collect();
            last = Resident {
                tuples: tables.iter().map(|t| t.len() as u64).sum(),
                column_bytes: tables.iter().map(|t| t.cols().byte_size() as u64).sum(),
                indexes: w
                    .db
                    .index_status()
                    .iter()
                    .filter_map(|(table, cols, _)| w.db.built_index(table, cols))
                    .map(|i| {
                        let rows = i.batch().len() as u64;
                        (
                            i.table().to_string(),
                            i.bytes(),
                            i.distinct_keys() as u64,
                            rows,
                        )
                    })
                    .collect(),
                pivoted_rows: to_rows.get() - pivoted_before,
                rss_loaded,
                rss_after: proc_status_bytes("VmRSS:"),
            };
        }
        index_build_us.sort_unstable();
        let index_build_us = conquer_bench::percentile(&index_build_us, 0.5);
        stats_collect_us.sort_unstable();
        let stats_collect_us = conquer_bench::percentile(&stats_collect_us, 0.5);
        samples.iter_mut().for_each(|s| s.sort_unstable());
        let median = |i: usize| conquer_bench::percentile(&samples[i], 0.5);
        let load_us = median(0) + median(1) + median(2);
        let tuples = last.tuples;
        let per_tuple = |bytes: u64| bytes as f64 / tuples as f64;
        let tuples_per_sec = tuples as f64 / (load_us as f64 / 1e6);
        let index_bytes: u64 = last.indexes.iter().map(|i| i.1).sum();
        let peak = proc_status_bytes("VmHWM:");
        let mut entry = Json::obj([("sf", Json::Float(sf)), ("tuples", Json::UInt(tuples))]);
        for (i, name) in STEPS.iter().enumerate() {
            entry.push(format!("{name}_us"), Json::UInt(median(i)));
        }
        entry.push("load_us", Json::UInt(load_us));
        entry.push("stats_collect_us", Json::UInt(stats_collect_us));
        entry.push("tuples_per_sec", Json::Float(tuples_per_sec));
        entry.push("index_build_us", Json::UInt(index_build_us));
        // What the last run held after its first pass: stored columns, key
        // indexes (each as `stats` reports it), the rows the pass pivoted
        // (whole row views and per-match build reads alike) and the
        // process's resident set before and after the pass.
        entry.push("resident_bytes", Json::UInt(last.column_bytes));
        entry.push("bytes_per_tuple", Json::Float(per_tuple(last.column_bytes)));
        entry.push("index_bytes", Json::UInt(index_bytes));
        entry.push("index_bytes_per_tuple", Json::Float(per_tuple(index_bytes)));
        entry.push(
            "indexes",
            Json::arr(last.indexes.iter().map(|(table, bytes, keys, rows)| {
                Json::obj([
                    ("table", Json::from(table.as_str())),
                    ("bytes", Json::UInt(*bytes)),
                    ("distinct_keys", Json::UInt(*keys)),
                    ("rows", Json::UInt(*rows)),
                ])
            })),
        );
        entry.push("first_pass_pivoted_rows", Json::UInt(last.pivoted_rows));
        entry.push("rss_before_first_pass_bytes", Json::UInt(last.rss_loaded));
        entry.push("rss_after_first_pass_bytes", Json::UInt(last.rss_after));
        // Peak of the process so far: the larger scale runs second.
        entry.push("peak_rss_bytes", Json::UInt(peak));
        let earlier = before.as_ref().and_then(|b| match b.get("scales")? {
            Json::Arr(scales) => scales
                .iter()
                .find(|s| s.get("sf").and_then(Json::as_f64) == Some(sf)),
            _ => None,
        });
        for (field, now) in [("load_us", load_us), ("first_pass_us", median(3))] {
            if let Some(was) = earlier.and_then(|s| s.get(field)?.as_f64()) {
                let speedup = was / now.max(1) as f64;
                let name = field.trim_end_matches("_us");
                entry.push(format!("{name}_speedup"), Json::Float(speedup));
            }
        }
        scales.push(entry);
    }
    let mut report = report_header("load", args, []);
    report.push("p", Json::Float(0.05));
    report.push("n", Json::UInt(2));
    report.push("scales", Json::arr(scales));
    if let Some(scales) = before.as_ref().and_then(|b| b.get("scales")) {
        report.push("before", Json::obj([("scales", scales.clone())]));
    }
    report
}
