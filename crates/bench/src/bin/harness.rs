//! The figure-regeneration harness: reprints every table and figure of the
//! paper's evaluation (Section 6) as text/markdown series, and writes a
//! machine-readable `BENCH_<fig>.json` report for each figure it runs.
//!
//! ```sh
//! cargo run -p conquer-bench --release --bin harness -- all
//! cargo run -p conquer-bench --release --bin harness -- fig12 --sf 0.02
//! cargo run -p conquer-bench --release --bin harness -- fig11 --json out.json --quiet
//! ```
//!
//! Subcommands: `fig10`, `fig11`, `fig12`, `fig13`, `fig14`, `baseline`,
//! `serve`, `plancost`, `opbench`, `idxbench`, `trace`, `recover`, `load`,
//! `all` (`all` runs the six figures; the rest are explicit-only). `load`
//! times what precedes every figure — §6.1's generate, inject (p = 5 %,
//! n = 2), annotate, then declaring the key indexes and a first pass of the
//! six queries under the three strategies — at `--sf` and 4×`--sf`, median
//! of `--runs`, with tuples per second, resident column bytes per tuple and
//! the process's peak RSS (`BENCH_load.json`); `--before <path>` embeds an
//! earlier report of the same subcommand (the parent commit's) and the
//! speed-up against it. `idxbench`
//! measures what secondary indexes buy: point-lookup and key-self-join
//! throughput with the access-path planner index-aware vs index-blind
//! (a twin database over the same tables that declares no index), at
//! `--sf` and 4×`--sf`
//! (the defaults land on SF 0.05 and 0.2), reporting lookups/sec,
//! join rows/sec, and the indexed/seqscan speedup per scale
//! (`BENCH_idxbench.json`). `opbench` is the per-operator throughput
//! microbenchmark: one query per executor kernel (filter, hash build,
//! hash probe, semi join, global and grouped aggregation, DISTINCT,
//! UNION ALL), each timed on the engine's one execution path, reporting
//! its time and rows/sec over the driving table
//! (`BENCH_opbench.json`). `recover` benchmarks the durable-storage crash-recovery
//! path: it loads the TPC-H workload into a WAL-backed database on a temp
//! dir, times a cold restart that replays the full WAL, checkpoints, and
//! times a second restart that loads from segments — writing WAL size and
//! both replay times to `BENCH_recover.json`. `trace "<sql>"`
//! runs one query against the standard workload with tracing on, prints
//! the captured span tree (morsel workers included), records it in the
//! process flight recorder, and writes `BENCH_trace.json` in the Chrome
//! trace-viewer format — load it at `chrome://tracing` or
//! <https://ui.perfetto.dev>. `--strategy` picks the answering strategy
//! (default `rewritten`). `plancost` reports the planner's
//! estimated rewritten/original cost ratio per figure query and, with
//! `--cost-threshold-file <path>` (lines of `<query> <max_ratio>`), exits
//! nonzero when a ratio regresses past its checked-in threshold — the CI
//! plan-quality smoke.
//! The optional `--sf <factor>` overrides the base scale factor
//! standing in for the paper's 1 GB database (default 0.05), and
//! `--runs <n>` the median-of-n timing (default 3). `--json <path>`
//! redirects the report of a single-figure run (with `all`, each figure
//! keeps its default `BENCH_<fig>.json`); `--quiet` suppresses the
//! markdown tables. `--timeout-ms <N>` and `--mem-limit <bytes>` run every
//! query under those engine resource limits; a tripped query is recorded in
//! the report (`status: timeout|mem_exceeded|...`) instead of aborting the
//! sweep, and the harness exits nonzero after writing all reports.
//!
//! Reports carry, per query and strategy: the median wall time, a
//! `status` (`ok`, `timeout`, `mem_exceeded`, `row_limit`, `cancelled`,
//! `error`), the pipeline phase breakdown
//! (parse/analyze/rewrite/plan/optimize/execute, from `conquer-obs`
//! spans), the per-operator `EXPLAIN ANALYZE` tree, and a snapshot of the
//! global metrics registry.
//!
//! `--threads <N>` sets the engine's morsel-parallel fan-out for every
//! timed query (default: what the engine itself would pick —
//! `CONQUER_THREADS` or the host's available parallelism). When N > 1 each
//! query is additionally timed at `threads = 1`, and the report carries
//! `serial_us` and `speedup` (= serial / parallel) per strategy cell, so a
//! report documents what parallelism actually bought on the host that
//! produced it.
//!
//! `serve` drives a `conquer-serve` server with a closed-loop load
//! generator: `--concurrency <N>` worker connections (default 16) each run
//! every benchmark query under every available strategy `--rounds <R>`
//! times (default 3), timing each round trip client-side. With
//! `--serve-port <P>` it targets an already-running server on loopback;
//! without it, it spins up an in-process server over the standard
//! annotated workload. `--connections <N,M,...>` sweeps a trajectory of
//! total-open-connection counts: each point holds that many connections
//! open — `min(concurrency, point)` of them driving the closed loop, the
//! rest idle — so the report shows how the serving core behaves as
//! connection count grows past the worker pool. `--churn-ms <N>` runs
//! every point twice, first quiet and then beside one more connection that
//! inserts a row into a scratch table no query reads every N ms — the
//! traffic that used to empty the statement cache and, with per-table
//! revalidation, should cost the readers nothing. The report
//! (`BENCH_serve.json`) carries, per trajectory point, per-strategy
//! p50/p95/p99/mean latency, aggregate throughput, busy-retry counts, the
//! post-warmup rewrite/plan-cache hit rate, for a churn phase its
//! interval and the inserts acknowledged, and the *wire floor*: `ping`
//! p50/p95 and the round trip of the cheapest cached statement on an
//! otherwise idle connection — what the serving core itself costs at that
//! connection count, before any query work.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use conquer::tpch::{all_queries, BenchmarkQuery, Workload, Q12, Q4, Q6};
use conquer::{analyze, parse_query, Database, ExecOptions, ResourceLimits};
use conquer_bench::{
    index_blind_twin, ms, operator_breakdown, overhead, phase_breakdown, run_status, speedup,
    time_query_with, workload, Strategy, BASE_SF,
};
use conquer_obs::Json;

/// Set when any query fails or trips a limit; the harness still completes
/// the sweep and writes every report before exiting nonzero.
static FAILED: AtomicBool = AtomicBool::new(false);

const COMMANDS: [&str; 14] = [
    "fig10", "fig11", "fig12", "fig13", "fig14", "baseline", "serve", "plancost", "opbench",
    "idxbench", "trace", "recover", "load", "all",
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
    /// `serve` mode: target an already-running server on this loopback port
    /// instead of starting one in-process.
    serve_port: Option<u16>,
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
        self.options_at(self.threads)
    }

    /// [`Args::options`] with an explicit thread count (the serial
    /// reference runs use `options_at(1)`).
    fn options_at(&self, threads: usize) -> ExecOptions {
        let mut limits = ResourceLimits::unlimited();
        if let Some(t) = self.timeout_ms {
            limits = limits.with_timeout(Duration::from_millis(t));
        }
        if let Some(bytes) = self.mem_limit {
            limits = limits.with_max_memory_bytes(bytes);
        }
        ExecOptions::default()
            .with_limits(limits)
            .with_threads(threads)
    }
}

/// Print unless `--quiet`.
macro_rules! say {
    ($args:expr, $($t:tt)*) => { if !$args.quiet { println!($($t)*); } };
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_string(),
        sf: BASE_SF,
        runs: 3,
        json: None,
        quiet: false,
        timeout_ms: None,
        mem_limit: None,
        threads: ExecOptions::default().threads,
        serve_port: None,
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
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sf" => {
                args.sf = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--sf requires a number"));
            }
            "--runs" => {
                args.runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--runs requires an integer"));
            }
            "--json" => {
                args.json = Some(it.next().unwrap_or_else(|| die("--json requires a path")));
            }
            "--timeout-ms" => {
                args.timeout_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--timeout-ms requires an integer")),
                );
            }
            "--mem-limit" => {
                args.mem_limit = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--mem-limit requires a byte count")),
                );
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| die("--threads requires a positive integer"));
            }
            "--serve-port" => {
                args.serve_port = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--serve-port requires a port number")),
                );
            }
            "--concurrency" => {
                args.concurrency = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| die("--concurrency requires a positive integer"));
            }
            "--connections" => {
                let spec = it
                    .next()
                    .unwrap_or_else(|| die("--connections requires a comma list of counts"));
                args.connections = spec
                    .split(',')
                    .filter(|part| !part.is_empty())
                    .map(|part| {
                        part.parse()
                            .ok()
                            .filter(|n| *n >= 1)
                            .unwrap_or_else(|| die("--connections entries must be positive"))
                    })
                    .collect();
                if args.connections.is_empty() {
                    die("--connections requires a comma list of counts");
                }
            }
            "--rounds" => {
                args.rounds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| die("--rounds requires a positive integer"));
            }
            "--churn-ms" => {
                args.churn_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| *n >= 1)
                        .unwrap_or_else(|| die("--churn-ms requires a positive integer")),
                );
            }
            "--cost-threshold-file" => {
                args.cost_threshold_file = Some(
                    it.next()
                        .unwrap_or_else(|| die("--cost-threshold-file requires a path")),
                );
            }
            "--before" => {
                args.before = Some(it.next().unwrap_or_else(|| die("--before requires a path")));
            }
            "--strategy" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| die("--strategy requires original|rewritten|annotated"));
                args.strategy = match v.as_str() {
                    "original" => Strategy::Original,
                    "rewritten" => Strategy::Rewritten,
                    "annotated" => Strategy::Annotated,
                    _ => die("--strategy requires original|rewritten|annotated"),
                };
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

fn die(msg: &str) -> ! {
    eprintln!("harness: {msg}");
    eprintln!(
        "usage: harness [fig10|fig11|fig12|fig13|fig14|baseline|serve|plancost|opbench|idxbench|recover|load|all] \
         [--sf F] [--runs N] [--json PATH] [--quiet] \
         [--timeout-ms N] [--mem-limit BYTES] [--threads N] \
         [--serve-port P] [--concurrency N] [--connections N,M,...] [--rounds R] \
         [--churn-ms N] [--cost-threshold-file PATH] [--before PATH]\n       \
         harness trace \"<sql>\" [--strategy original|rewritten|annotated] \
         [--sf F] [--threads N] [--json PATH]"
    );
    std::process::exit(2)
}

fn main() {
    let args = parse_args();
    let t0 = Instant::now();
    let commands: Vec<&str> = if args.command == "all" {
        vec!["fig10", "fig11", "fig12", "fig13", "fig14", "baseline"]
    } else {
        vec![args.command.as_str()]
    };
    for cmd in commands {
        let mut report = match cmd {
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
        report.push("metrics", conquer_obs::registry().snapshot_json());
        // --json redirects a single figure; `all` keeps the per-fig names.
        let path = match &args.json {
            Some(p) if args.command != "all" => p.clone(),
            _ => format!("BENCH_{cmd}.json"),
        };
        std::fs::write(&path, report.render_pretty())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    eprintln!("\n(total harness time: {:.1}s)", t0.elapsed().as_secs_f64());
    if FAILED.load(Ordering::Relaxed) {
        eprintln!("harness: some queries failed or tripped resource limits (see reports)");
        std::process::exit(1);
    }
}

/// The timing record for one (query, strategy) cell: status, median wall
/// time, result cardinality, phase totals, the measured operator tree of
/// the body and one of each materialized CTE.
///
/// A query that errors or trips a resource limit yields a `status` /
/// `error` entry (and flags the harness for a nonzero exit) instead of
/// aborting the sweep; its reported time is zero and the per-phase /
/// per-operator breakdowns are skipped.
fn strategy_entry(
    w: &Workload,
    q: &BenchmarkQuery,
    strategy: Strategy,
    args: &Args,
) -> (Duration, Json) {
    let result = time_query_with(w, q, strategy, args.runs, &args.options());
    let status = run_status(&result);
    match result {
        Ok(median) => {
            let mut entry = phase_breakdown(w, q, strategy);
            entry.push("status", Json::from(status));
            entry.push("median_us", Json::UInt(median.as_micros() as u64));
            // With a parallel fan-out, also time the serial path so the
            // report records what the threads bought on this host.
            if args.threads > 1 {
                if let Ok(serial) = time_query_with(w, q, strategy, args.runs, &args.options_at(1))
                {
                    entry.push("serial_us", Json::UInt(serial.as_micros() as u64));
                    entry.push("speedup", Json::Float(speedup(serial, median)));
                }
            }
            let (operators, ctes) = operator_breakdown(w, q, strategy, &args.options());
            entry.push("operators", operators);
            entry.push("ctes", ctes);
            (median, entry)
        }
        Err(e) => {
            FAILED.store(true, Ordering::Relaxed);
            eprintln!("harness: {} [{}] {status}: {e}", q.name(), strategy.label());
            let entry = Json::obj([
                ("status", Json::from(status)),
                ("error", Json::from(e.to_string())),
            ]);
            (Duration::ZERO, entry)
        }
    }
}

fn report_header(figure: &str, args: &Args) -> Json {
    Json::obj([
        ("figure", Json::from(figure)),
        ("sf", Json::Float(args.sf)),
        ("runs", Json::UInt(args.runs as u64)),
        ("threads", Json::UInt(args.threads as u64)),
    ])
}

/// Figure 10: characteristics of the benchmark queries.
fn fig10(args: &Args) -> Json {
    say!(args, "## Figure 10 — queries used in the experiments\n");
    say!(
        args,
        "| Query | Relations | Selectivity | ProjAttrs | AggrAttrs |"
    );
    say!(
        args,
        "|-------|-----------|-------------|-----------|-----------|"
    );
    let sigma = conquer::tpch::benchmark_constraints();
    let mut queries = Vec::new();
    for q in all_queries() {
        let tq = analyze(&parse_query(q.sql).unwrap(), &sigma).unwrap();
        say!(
            args,
            "| {} | {} | {} | {} | {} |",
            q.name(),
            tq.relations.len(),
            q.selectivity,
            tq.projection.len(),
            tq.aggregate_count(),
        );
        queries.push(Json::obj([
            ("query", Json::from(q.name())),
            ("relations", Json::UInt(tq.relations.len() as u64)),
            ("selectivity", Json::from(q.selectivity.to_string())),
            ("proj_attrs", Json::UInt(tq.projection.len() as u64)),
            ("aggr_attrs", Json::UInt(tq.aggregate_count() as u64)),
        ]));
    }
    say!(args, "");
    let mut report = report_header("fig10", args);
    report.push("queries", Json::Arr(queries));
    report
}

/// Figure 11: running times of all queries, original vs rewritten vs
/// annotation-aware, at the base size with p = 5%, n = 2.
fn fig11(args: &Args) -> Json {
    say!(
        args,
        "## Figure 11 — all queries, SF {} (stand-in for 1 GB), p = 5%, n = 2\n",
        args.sf
    );
    let w = workload(args.sf, 0.05, 2);
    say!(
        args,
        "| Query | original (ms) | rewritten (ms) | annotated (ms) | overhead rewritten | overhead annotated |"
    );
    say!(args, "|-------|--------------:|---------------:|---------------:|-------------------:|-------------------:|");
    let mut queries = Vec::new();
    for q in all_queries() {
        let (t_orig, e_orig) = strategy_entry(&w, &q, Strategy::Original, args);
        let (t_rew, e_rew) = strategy_entry(&w, &q, Strategy::Rewritten, args);
        let (t_ann, e_ann) = strategy_entry(&w, &q, Strategy::Annotated, args);
        say!(
            args,
            "| {} | {} | {} | {} | {:.2}x | {:.2}x |",
            q.name(),
            ms(t_orig),
            ms(t_rew),
            ms(t_ann),
            overhead(t_orig, t_rew),
            overhead(t_orig, t_ann),
        );
        queries.push(Json::obj([
            ("query", Json::from(q.name())),
            ("original", e_orig),
            ("rewritten", e_rew),
            ("annotated", e_ann),
            ("overhead_rewritten", Json::Float(overhead(t_orig, t_rew))),
            ("overhead_annotated", Json::Float(overhead(t_orig, t_ann))),
        ]));
    }
    say!(args, "");
    let mut report = report_header("fig11", args);
    report.push("p", Json::Float(0.05));
    report.push("n", Json::UInt(2));
    report.push("queries", Json::Arr(queries));
    report
}

/// Figure 12: Q6 while varying the inconsistency percentage p (n = 2).
fn fig12(args: &Args) -> Json {
    say!(args, "## Figure 12 — Q6 vs p (n = 2, SF {})\n", args.sf);
    say!(
        args,
        "| p (%) | original (ms) | rewritten (ms) | annotated (ms) | annotated overhead |"
    );
    say!(
        args,
        "|------:|--------------:|---------------:|---------------:|-------------------:|"
    );
    let mut series = Vec::new();
    for p in [0.0, 0.01, 0.05, 0.10, 0.20, 0.50] {
        let w = workload(args.sf, p, 2);
        let (t_orig, e_orig) = strategy_entry(&w, &Q6, Strategy::Original, args);
        let (t_rew, e_rew) = strategy_entry(&w, &Q6, Strategy::Rewritten, args);
        let (t_ann, e_ann) = strategy_entry(&w, &Q6, Strategy::Annotated, args);
        say!(
            args,
            "| {:>4.0} | {} | {} | {} | {:.2}x |",
            p * 100.0,
            ms(t_orig),
            ms(t_rew),
            ms(t_ann),
            overhead(t_orig, t_ann),
        );
        series.push(Json::obj([
            ("p", Json::Float(p)),
            ("original", e_orig),
            ("rewritten", e_rew),
            ("annotated", e_ann),
            ("overhead_annotated", Json::Float(overhead(t_orig, t_ann))),
        ]));
    }
    say!(args, "");
    let mut report = report_header("fig12", args);
    report.push("query", Json::from("Q6"));
    report.push("n", Json::UInt(2));
    report.push("series", Json::Arr(series));
    report
}

/// Figure 13: Q6 while varying n, the tuples per violated key (p = 10%).
fn fig13(args: &Args) -> Json {
    say!(args, "## Figure 13 — Q6 vs n (p = 10%, SF {})\n", args.sf);
    say!(
        args,
        "| n | original (ms) | rewritten (ms) | annotated (ms) |"
    );
    say!(
        args,
        "|--:|--------------:|---------------:|---------------:|"
    );
    let mut series = Vec::new();
    for n in [2usize, 5, 10, 25, 50] {
        let w = workload(args.sf, 0.10, n);
        let (t_orig, e_orig) = strategy_entry(&w, &Q6, Strategy::Original, args);
        let (t_rew, e_rew) = strategy_entry(&w, &Q6, Strategy::Rewritten, args);
        let (t_ann, e_ann) = strategy_entry(&w, &Q6, Strategy::Annotated, args);
        say!(
            args,
            "| {n} | {} | {} | {} |",
            ms(t_orig),
            ms(t_rew),
            ms(t_ann)
        );
        series.push(Json::obj([
            ("n", Json::UInt(n as u64)),
            ("original", e_orig),
            ("rewritten", e_rew),
            ("annotated", e_ann),
        ]));
    }
    say!(args, "");
    let mut report = report_header("fig13", args);
    report.push("query", Json::from("Q6"));
    report.push("p", Json::Float(0.10));
    report.push("series", Json::Arr(series));
    report
}

/// Figure 14: scalability across database sizes with a constant number of
/// inconsistent tuples (the paper's 100 MB..2 GB at p = 50/10/5/2.5 %).
fn fig14(args: &Args) -> Json {
    say!(
        args,
        "## Figure 14 — scalability, constant inconsistent tuples (n = 2)\n"
    );
    say!(args, "annotation-aware rewritings of Q4, Q6, Q12\n");
    say!(
        args,
        "| size (×1 GB stand-in) | p (%) | tuples | Q4 (ms) | Q6 (ms) | Q12 (ms) |"
    );
    say!(
        args,
        "|----------------------:|------:|-------:|--------:|--------:|---------:|"
    );
    let mut series = Vec::new();
    // Same ratios as the paper: 0.1x, 0.5x, 1x, 2x of the base size with
    // p chosen to hold p * size constant.
    for (ratio, p) in [(0.1, 0.50), (0.5, 0.10), (1.0, 0.05), (2.0, 0.025)] {
        let sf = args.sf * ratio;
        let w = workload(sf, p, 2);
        let tuples = conquer_bench::total_tuples(&w.db);
        let (t4, e4) = strategy_entry(&w, &Q4, Strategy::Annotated, args);
        let (t6, e6) = strategy_entry(&w, &Q6, Strategy::Annotated, args);
        let (t12, e12) = strategy_entry(&w, &Q12, Strategy::Annotated, args);
        say!(
            args,
            "| {ratio} | {:.1} | {tuples} | {} | {} | {} |",
            p * 100.0,
            ms(t4),
            ms(t6),
            ms(t12),
        );
        series.push(Json::obj([
            ("ratio", Json::Float(ratio)),
            ("p", Json::Float(p)),
            ("tuples", Json::UInt(tuples as u64)),
            ("Q4", e4),
            ("Q6", e6),
            ("Q12", e12),
        ]));
    }
    say!(args, "");
    let mut report = report_header("fig14", args);
    report.push("series", Json::Arr(series));
    report
}

/// Related-work scale contrast (Section 7): repair enumeration — the
/// approach rewriting replaces — explodes even at toy sizes, while the
/// rewriting runs on millions of tuples.
fn baseline(args: &Args) -> Json {
    use conquer::{consistent_answers_oracle, ConstraintSet, Database};
    say!(
        args,
        "## Baseline — repair enumeration vs rewriting (Section 7 contrast)\n"
    );
    say!(
        args,
        "| conflicting keys | repairs | oracle (ms) | rewriting (ms) |"
    );
    say!(
        args,
        "|-----------------:|--------:|------------:|---------------:|"
    );
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

        let t0 = Instant::now();
        let oracle = consistent_answers_oracle(&db, q, &sigma).unwrap();
        let t_oracle = t0.elapsed();
        let t0 = Instant::now();
        let rewritten = conquer::consistent_answers(&db, q, &sigma).unwrap();
        let t_rew = t0.elapsed();
        assert_eq!(oracle.len(), rewritten.len());
        say!(
            args,
            "| {keys} | {} | {} | {} |",
            1u128 << keys,
            ms(t_oracle),
            ms(t_rew),
        );
        series.push(Json::obj([
            ("conflicting_keys", Json::UInt(keys as u64)),
            ("repairs", Json::UInt(1u64 << keys)),
            ("oracle_us", Json::UInt(t_oracle.as_micros() as u64)),
            ("rewrite_us", Json::UInt(t_rew.as_micros() as u64)),
        ]));
    }
    say!(
        args,
        "\n(each conflicting key doubles the repair count; the rewriting is flat)"
    );
    let mut report = report_header("baseline", args);
    report.push("series", Json::Arr(series));
    report
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
    use conquer_bench::rewritten_query;

    say!(
        args,
        "## Plan cost — rewritten vs original, estimated (SF {}, p = 5%, n = 2)\n",
        args.sf
    );
    let thresholds = args.cost_threshold_file.as_deref().map(load_thresholds);
    let w = workload(args.sf, 0.05, 2);
    // Plan with CTEs inlined: a materialized CTE is built at plan time and
    // appears in the final plan only as a scan of its result, which would
    // hide the rewriting's real work from the cost model. Inlining keeps
    // every join and filter of the rewriting inside one costed tree.
    let mut options = args.options();
    options.materialize_ctes = false;
    let est = conquer::engine::Estimator::from_db(&w.db);
    // The estimator the planner's CTE trace costs with under these options.
    let materialized = args.options();
    let est_m = conquer::engine::Estimator::from_db_with_indexes(&w.db);
    say!(
        args,
        "| Query | original cost | rewritten cost | ratio | threshold | status | materialized |"
    );
    say!(
        args,
        "|-------|--------------:|---------------:|------:|----------:|--------|-------------:|"
    );
    let mut queries = Vec::new();
    for q in all_queries() {
        let threshold = thresholds.as_ref().and_then(|t| t.get(&q.name()).copied());
        let costs = parse_query(q.sql)
            .map_err(|e| e.to_string())
            .and_then(|original| {
                let plan_o = w.db.plan(&original, &options).map_err(|e| e.to_string())?;
                let rewritten = rewritten_query(&q, &w.sigma, false);
                let plan_r = w.db.plan(&rewritten, &options).map_err(|e| e.to_string())?;
                let (_, body, _, ctes) =
                    w.db.execute_query_traced_with_ctes(&rewritten, &materialized)
                        .map_err(|e| e.to_string())?;
                let cost_m = ctes.iter().map(|c| c.est_cost).sum::<f64>() + est_m.cost(&body);
                let ratio_m = cost_m / est_m.cost(&plan_o).max(1.0);
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
                say!(
                    args,
                    "| {} | {cost_o:.0} | {cost_r:.0} | {ratio:.2}x | {} | {status} | {ratio_m:.2}x |",
                    q.name(),
                    threshold.map_or("-".to_string(), |t| format!("{t:.2}x")),
                );
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
                say!(args, "| {} | - | - | - | - | error | - |", q.name());
                entry.push("status", Json::from("error"));
                entry.push("error", Json::from(e));
            }
        }
        queries.push(entry);
    }
    say!(args, "");
    let mut report = report_header("plancost", args);
    report.push("p", Json::Float(0.05));
    report.push("n", Json::UInt(2));
    if let Some(path) = &args.cost_threshold_file {
        report.push("threshold_file", Json::from(path.clone()));
    }
    report.push("queries", Json::Arr(queries));
    report
}

/// Parse a threshold file: `<query> <max_ratio>` per line, `#` comments
/// and blank lines ignored.
fn load_thresholds(path: &str) -> std::collections::HashMap<String, f64> {
    let text = std::fs::read_to_string(path)
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
        driving: &'static str,
        sql: &'static str,
    }
    const OPS: &[OpSpec] = &[
        OpSpec {
            op: "filter",
            driving: "lineitem",
            sql: "select l_orderkey from lineitem l \
                  where l_quantity > 25 and l_discount > 0.02",
        },
        OpSpec {
            op: "filter.text",
            driving: "orders",
            sql: "select o_orderkey from orders o where o_orderstatus = 'F'",
        },
        OpSpec {
            op: "hash_build",
            driving: "lineitem",
            sql: "select o.o_orderkey from orders o \
                  left join lineitem l on o.o_orderkey = l.l_orderkey",
        },
        OpSpec {
            op: "hash_probe",
            driving: "lineitem",
            sql: "select l.l_orderkey from lineitem l \
                  left join orders o on l.l_orderkey = o.o_orderkey",
        },
        OpSpec {
            op: "semi_join",
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
            driving: "lineitem",
            sql: "select l.l_orderkey from lineitem l where exists \
                  (select l2.l_orderkey from lineitem l2 where l2.l_orderkey = l.l_orderkey \
                   and l2.l_linenumber = l.l_linenumber)",
        },
        OpSpec {
            op: "anti_join",
            driving: "lineitem",
            sql: "select l.l_orderkey from lineitem l where not exists \
                  (select o.o_orderkey from orders o where o.o_orderkey = l.l_orderkey \
                   and o.o_orderstatus = 'F')",
        },
        OpSpec {
            op: "aggregate.global",
            driving: "lineitem",
            sql: "select count(*), sum(l_extendedprice), avg(l_discount), \
                  min(l_quantity), max(l_quantity) from lineitem l",
        },
        OpSpec {
            op: "aggregate.group",
            driving: "lineitem",
            sql: "select l_orderkey, count(*), sum(l_quantity) from lineitem l \
                  group by l_orderkey",
        },
        // Q1's grouping on the kernel path: four groups, so with more than
        // one thread the group-key kernel merges morsel-local partials.
        OpSpec {
            op: "aggregate.group.few",
            driving: "lineitem",
            sql: "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), \
                  min(l_discount), max(l_tax), count(*) from lineitem l \
                  group by l_returnflag, l_linestatus",
        },
        // `conq_unfiltered`'s shape: the conflict-group key plus the
        // query's grouping columns, MIN/MAX pairs per aggregate.
        OpSpec {
            op: "aggregate.group.wide",
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
            driving: "lineitem",
            sql: "select distinct l_orderkey, l_linenumber, l_returnflag, l_linestatus \
                  from lineitem l",
        },
        OpSpec {
            op: "union_all",
            driving: "lineitem",
            sql: "select l_orderkey, l_quantity, l_returnflag from lineitem l \
                  union all \
                  select l_orderkey, l_quantity, l_returnflag from lineitem l2",
        },
        // Q1's final step in miniature: a GROUP BY over a union of FLOAT
        // bounds and the INTEGER zeros of Fig. 8's `CASE … THEN 0`.
        OpSpec {
            op: "aggregate.union",
            driving: "lineitem",
            sql: "select u.f, u.s, sum(u.lo), sum(u.hi), sum(u.n), count(*) from \
                  (select l_returnflag as f, l_linestatus as s, l_extendedprice as lo, \
                   l_discount as hi, 1 as n from lineitem l \
                   union all \
                   select l_returnflag, l_linestatus, 0, 0, 0 from lineitem l2 \
                   where l_discount > 0.08) u \
                  group by u.f, u.s",
        },
    ];

    say!(
        args,
        "## Per-operator throughput (SF {}, threads {}, median of {})\n",
        args.sf,
        args.threads,
        args.runs
    );
    let w = workload(args.sf, 0.05, 2);
    say!(args, "| Operator | rows | ms | rows/s |");
    say!(args, "|----------|-----:|---:|-------:|");

    let options = args.options();
    let time = |sql: &str| -> Result<Duration, String> {
        // Warm-up run: the lazy index builds and row views land here, so
        // the timed runs measure execution, not first-touch setup.
        w.db.query_with(sql, &options).map_err(|e| e.to_string())?;
        let mut times = Vec::with_capacity(args.runs);
        for _ in 0..args.runs {
            let t0 = Instant::now();
            w.db.query_with(sql, &options).map_err(|e| e.to_string())?;
            times.push(t0.elapsed());
        }
        times.sort_unstable();
        Ok(times[times.len() / 2])
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
        match time(spec.sql) {
            Ok(t) => {
                let rps = rows as f64 / t.as_secs_f64().max(1e-9);
                say!(args, "| {} | {rows} | {} | {rps:.0} |", spec.op, ms(t));
                entry.push("status", Json::from("ok"));
                entry.push("us", Json::UInt(t.as_micros() as u64));
                entry.push("rows_per_sec", Json::Float(rps));
            }
            Err(e) => {
                FAILED.store(true, Ordering::Relaxed);
                eprintln!("harness: opbench {} error: {e}", spec.op);
                say!(args, "| {} | {rows} | - | error |", spec.op);
                entry.push("status", Json::from("error"));
                entry.push("error", Json::from(e));
            }
        }
        ops.push(entry);
    }
    say!(args, "");
    let mut report = report_header("opbench", args);
    report.push("operators", Json::Arr(ops));
    report
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

    say!(
        args,
        "## Index access paths — indexed vs seqscan (threads {}, median of {})\n",
        args.threads,
        args.runs
    );
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

        // Statements run in order; an `INSERT` goes through the script
        // path, the rest are queries.
        let run = |db: &Database, sql: &str| -> Result<(), String> {
            let done = if sql.starts_with("insert") {
                db.run_script(sql).map(drop)
            } else {
                db.query_with(sql, &options).map(drop)
            };
            done.map_err(|e| e.to_string())
        };
        let time_batch = |db: &Database, sqls: &[String]| -> Result<Duration, String> {
            // Warm-up pass: the lazy index build lands here, so the timed
            // runs measure probes.
            for sql in sqls {
                run(db, sql)?;
            }
            let mut times = Vec::with_capacity(args.runs);
            for _ in 0..args.runs {
                let t0 = Instant::now();
                for sql in sqls {
                    run(db, sql)?;
                }
                times.push(t0.elapsed());
            }
            times.sort_unstable();
            Ok(times[times.len() / 2])
        };
        let uses_index = |sql: &str| {
            w.db.explain_with(sql, &options)
                .map(|plan| plan.contains("access=index"))
                .unwrap_or(false)
        };

        say!(args, "### SF {sf} ({orders_rows} orders rows)\n");
        say!(
            args,
            "| Op | seqscan | indexed | seqscan unit/s | indexed unit/s | speedup | indexed plan |"
        );
        say!(
            args,
            "|----|--------:|--------:|---------------:|---------------:|--------:|--------------|"
        );
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
                    say!(
                        args,
                        "| {op} | {} | {} | {:.0} | {:.0} | {:.2}x | {} |",
                        ms(t_seq),
                        ms(t_idx),
                        ups(t_seq),
                        ups(t_idx),
                        speedup(t_seq, t_idx),
                        if planned { "access=index" } else { "seqscan" },
                    );
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
                    say!(args, "| {op} | - | - | - | - | - | error |");
                    entry.push("status", Json::from("error"));
                    entry.push("error", Json::from(e));
                }
            }
            ops.push(entry);
        }
        say!(args, "");
        scales.push(Json::obj([
            ("sf", Json::Float(sf)),
            ("orders_rows", Json::UInt(orders_rows as u64)),
            ("lookups_per_run", Json::UInt(LOOKUPS_PER_RUN as u64)),
            ("ops", Json::Arr(ops)),
        ]));
    }
    let mut report = report_header("idxbench", args);
    report.push("scales", Json::Arr(scales));
    report
}

/// `trace` — run one SQL statement against the standard workload with
/// tracing on and export the span tree (all threads) as a Chrome
/// trace-viewer document.
///
/// The report written by `main` (`BENCH_trace.json`, or `--json`) IS the
/// Chrome document: `traceEvents` carries one complete (`ph: "X"`) event
/// per span, `ts`/`dur` in microseconds since the process trace epoch,
/// `tid` the span's process-unique thread tag — so morsel workers land on
/// their own rows in the viewer. The query is also recorded in the
/// process-wide flight recorder (session 0), same as a served query.
fn trace_cmd(args: &Args) -> Json {
    use conquer_obs::{flight_recorder, QueryTrace, TraceContext};

    let sql = args
        .sql
        .clone()
        .unwrap_or_else(|| die("trace requires a SQL string: harness trace \"<sql>\""));
    let w = workload(args.sf, 0.05, 2);
    let ctx = TraceContext::new();
    let options = args.options().with_trace(ctx.clone());
    let start_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let started = Instant::now();
    let result = {
        // Install for the whole pipeline so parse/rewrite spans (which run
        // before the engine sees `options.trace`) are captured too.
        let _guard = ctx.install();
        match args.strategy {
            Strategy::Original => {
                w.db.query_with(&sql, &options)
                    .map_err(conquer::RewriteError::from)
            }
            Strategy::Rewritten => {
                conquer::consistent_answers_with(&w.db, &sql, &w.sigma, &options)
            }
            Strategy::Annotated => {
                conquer::consistent_answers_annotated_with(&w.db, &sql, &w.sigma, &options)
            }
        }
    };
    let elapsed_us = started.elapsed().as_micros() as u64;
    let spans = ctx.take_records();
    let status = run_status(&result);
    if result.is_err() {
        FAILED.store(true, Ordering::Relaxed);
    }
    let (rows_out, error) = match &result {
        Ok(rows) => (rows.rows.len() as u64, None),
        Err(e) => {
            eprintln!("harness: trace [{}] {status}: {e}", args.strategy.label());
            (0, Some(e.to_string()))
        }
    };
    let worker_spans = spans.iter().filter(|s| s.name == "worker").count() as u64;

    say!(
        args,
        "## trace — [{}] {status}, {elapsed_us} µs, {rows_out} rows, {} spans \
         ({worker_spans} workers)\n",
        args.strategy.label(),
        spans.len(),
    );
    say!(args, "    {sql}\n");
    for s in &spans {
        say!(
            args,
            "{:indent$}{} {} µs (thread {})",
            "",
            s.name,
            s.wall.as_micros(),
            s.thread,
            indent = 2 * s.depth,
        );
    }
    say!(args, "");

    flight_recorder().record(QueryTrace {
        query_id: ctx.id().value(),
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
        ("query_id", Json::UInt(ctx.id().value())),
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
    ])
}

fn wire_strategy(s: Strategy) -> conquer_serve::Strategy {
    match s {
        Strategy::Original => conquer_serve::Strategy::Original,
        Strategy::Rewritten => conquer_serve::Strategy::Rewritten,
        Strategy::Annotated => conquer_serve::Strategy::Annotated,
    }
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

/// `serve` — closed-loop load generation against a `conquer-serve` server.
///
/// Each of `--concurrency` worker connections runs the full benchmark
/// query × strategy grid `--rounds` times, timing every round trip
/// client-side; `busy` rejections are retried (and counted), anything else
/// is an error. A single warmup pass populates the server's rewrite/plan
/// cache and discovers which strategies the target actually supports (an
/// external unannotated server rejects `annotated`), so the closed loop
/// only measures what the server can answer.
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

    // Target: an external server via --serve-port, or an in-process one
    // over the standard annotated workload.
    let (addr, server) = match args.serve_port {
        Some(port) => {
            let addr = std::net::SocketAddr::from(([127, 0, 0, 1], port));
            (addr, None)
        }
        None => {
            let w = workload(args.sf, 0.05, 2);
            let handle = serve(
                std::sync::Arc::new(w.db),
                w.sigma,
                ServerConfig {
                    max_sessions: max_point.max(args.concurrency) + 8,
                    max_concurrent: args.concurrency,
                    ..ServerConfig::default()
                },
            )
            .unwrap_or_else(|e| die(&format!("cannot start in-process server: {e}")));
            (handle.addr(), Some(handle))
        }
    };
    say!(
        args,
        "## serve — closed loop, {} active workers × {} rounds against {addr}, \
         connection axis {points:?}\n",
        args.concurrency,
        args.rounds
    );

    const STRATEGIES: [Strategy; 3] =
        [Strategy::Original, Strategy::Rewritten, Strategy::Annotated];
    let queries = all_queries();
    let mut warm =
        Client::connect(addr).unwrap_or_else(|e| die(&format!("cannot connect to {addr}: {e}")));

    // Warmup: populate the cache, drop unsupported (query, strategy) pairs.
    let mut pairs: Vec<(&BenchmarkQuery, Strategy)> = Vec::new();
    let mut skipped = Vec::new();
    for &strategy in &STRATEGIES {
        for q in &queries {
            match warm.query_with(q.sql, Some(wire_strategy(strategy))) {
                Ok(_) => pairs.push((q, strategy)),
                Err(e) => {
                    say!(args, "(skipping {} [{}]: {e})", q.name(), strategy.label());
                    skipped.push(Json::obj([
                        ("query", Json::from(q.name())),
                        ("strategy", Json::from(strategy.label())),
                        ("error", Json::from(e.to_string())),
                    ]));
                }
            }
        }
    }
    if pairs.is_empty() {
        die("the server answered no benchmark query under any strategy");
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
            let churn_note = churn_ms.map_or(String::new(), |ms| {
                format!(", one writer inserting into {CHURN_TABLE} every {ms} ms")
            });
            say!(
                args,
                "### {point} connections ({active} active, {idle_count} idle{churn_note})\n"
            );
            let (hits0, misses0) = cache_counters(&warm.stats().unwrap_or(Json::Null));
            let stop = AtomicBool::new(false);
            let (floor, worker_results, wall, inserts) = std::thread::scope(|scope| {
                let stop = &stop;
                let writer = churn_ms.map(|ms| scope.spawn(move || churn_writer(addr, ms, stop)));
                let floor = wire_floor(args, &mut warm, &pairs);
                let t_loop = Instant::now();
                let results = serve_point(addr, &pairs, args.rounds, active);
                let wall = t_loop.elapsed();
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
            let mut all_samples: Vec<(Strategy, u64)> = Vec::new();
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

            say!(
                args,
                "| Strategy | queries | p50 (ms) | p95 (ms) | p99 (ms) | mean (ms) |"
            );
            say!(
                args,
                "|----------|--------:|---------:|---------:|---------:|----------:|"
            );
            let mut strategy_reports = Vec::new();
            for &strategy in &STRATEGIES {
                let mut lat: Vec<u64> = all_samples
                    .iter()
                    .filter(|(s, _)| *s == strategy)
                    .map(|&(_, us)| us)
                    .collect();
                if lat.is_empty() {
                    continue;
                }
                lat.sort_unstable();
                let (p50, p95, p99) = (
                    conquer_bench::percentile(&lat, 0.50),
                    conquer_bench::percentile(&lat, 0.95),
                    conquer_bench::percentile(&lat, 0.99),
                );
                let mean = lat.iter().sum::<u64>() / lat.len() as u64;
                say!(
                    args,
                    "| {} | {} | {:.2} | {:.2} | {:.2} | {:.2} |",
                    strategy.label(),
                    lat.len(),
                    p50 as f64 / 1e3,
                    p95 as f64 / 1e3,
                    p99 as f64 / 1e3,
                    mean as f64 / 1e3,
                );
                strategy_reports.push(Json::obj([
                    ("strategy", Json::from(strategy.label())),
                    ("count", Json::UInt(lat.len() as u64)),
                    ("p50_us", Json::UInt(p50)),
                    ("p95_us", Json::UInt(p95)),
                    ("p99_us", Json::UInt(p99)),
                    ("mean_us", Json::UInt(mean)),
                ]));
            }
            let throughput = all_samples.len() as f64 / wall.as_secs_f64().max(1e-9);
            say!(
                args,
                "\nthroughput: {throughput:.0} queries/s, busy retries: {busy_total}, \
                 post-warmup cache hit rate: {:.1}%{}\n",
                hit_rate * 100.0,
                inserts.map_or(String::new(), |n| format!(", inserts acknowledged: {n}"))
            );

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
    if let Some(handle) = server {
        handle.shutdown();
    }

    let mut report = report_header("serve", args);
    report.push("addr", Json::from(addr.to_string()));
    report.push("in_process", Json::Bool(args.serve_port.is_none()));
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
    if !skipped.is_empty() {
        report.push("skipped", Json::Arr(skipped));
    }
    report
}

/// The wire floor at one trajectory point (ROADMAP 1(d)): what a round
/// trip costs when the server has next to nothing to do. `ping` is
/// answered inline by the connection's IO driver; the cheapest cached
/// statement adds the run queue, a worker, admission, a cache hit and its
/// (small) execution. Both are timed on one otherwise idle connection
/// before the closed loop starts — beside the churn writer in its phase.
fn wire_floor(
    args: &Args,
    client: &mut conquer_serve::Client,
    pairs: &[(&BenchmarkQuery, Strategy)],
) -> Json {
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
        let t0 = Instant::now();
        match client.ping() {
            Ok(()) => pings.push(t0.elapsed().as_nanos() as u64),
            Err(e) => fail("ping", &e),
        }
    }
    let (ping_p50, ping_p95) = quantiles(pings);

    // The cheapest statement by the server's own clock, one cached run each.
    let mut cheapest: Option<(u64, &BenchmarkQuery, Strategy)> = None;
    for &(q, strategy) in pairs {
        match client.query_with(q.sql, Some(wire_strategy(strategy))) {
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
        let t0 = Instant::now();
        match client.query_with(q.sql, Some(wire_strategy(strategy))) {
            Ok(outcome) => {
                rtt.push(t0.elapsed().as_nanos() as u64);
                server.push(outcome.elapsed_us * 1_000);
            }
            Err(e) => fail(&q.name(), &e),
        }
    }
    let ((rtt_p50, rtt_p95), (server_p50, _)) = (quantiles(rtt), quantiles(server));
    say!(
        args,
        "wire floor: ping p50 {ping_p50:.1} / p95 {ping_p95:.1} us; cheapest cached statement \
         {} [{}] p50 {rtt_p50:.1} / p95 {rtt_p95:.1} us, of which server {server_p50:.0} us\n",
        q.name(),
        strategy.label(),
    );
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

/// What one closed-loop worker brings home: `(strategy, latency_us)`
/// samples, busy-retry count, and any hard errors.
type WorkerResult = (Vec<(Strategy, u64)>, u64, Vec<String>);

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
                let mut samples: Vec<(Strategy, u64)> = Vec::new();
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
                            let t0 = Instant::now();
                            match client.query_with(q.sql, Some(wire_strategy(strategy))) {
                                Ok(outcome) => {
                                    std::hint::black_box(outcome.rows.rows.len());
                                    samples.push((strategy, t0.elapsed().as_micros() as u64));
                                    break;
                                }
                                Err(e) if e.is_busy() && attempts < 1000 => {
                                    busy += 1;
                                    attempts += 1;
                                    std::thread::sleep(Duration::from_millis(1));
                                }
                                Err(e) => {
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
///    worst case (every record decoded, validated, applied, re-statted).
/// 2. **Segment load**: checkpoint, reopen again — the steady-state boot
///    (snapshots with verbatim stats, empty WAL).
///
/// The report carries row/table counts, the WAL size the load produced,
/// and both replay times, so EXPERIMENTS.md can track recovery-speed
/// regressions alongside the paper figures.
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
    say!(
        args,
        "## recover — durable-storage restart (SF {})\n",
        args.sf
    );

    let w = workload(args.sf, 0.05, 2);
    let tables = w.db.table_names();
    let rows: u64 = conquer_bench::total_tuples(&w.db) as u64;

    // Load: copy every generated table into the durable catalog (each copy
    // is one WAL snapshot record).
    let t0 = Instant::now();
    let db = Database::open(&dir, opts).unwrap_or_else(|e| die(&format!("open {dir:?}: {e}")));
    for name in &tables {
        let table = w.db.table(name).unwrap_or_else(|e| die(&e.to_string()));
        db.register((*table).clone())
            .unwrap_or_else(|e| die(&format!("register {name}: {e}")));
    }
    db.flush().unwrap_or_else(|e| die(&format!("flush: {e}")));
    let load_us = t0.elapsed().as_micros() as u64;
    let wal_bytes = db.storage_status().map_or(0, |s| s.wal_bytes);
    drop(db); // simulated crash: no checkpoint, the WAL holds everything

    // Restart 1: full WAL replay.
    let t0 = Instant::now();
    let db = Database::open(&dir, opts).unwrap_or_else(|e| die(&format!("reopen: {e}")));
    let replay_wal_us = t0.elapsed().as_micros() as u64;
    let recovered: u64 = conquer_bench::total_tuples(&db) as u64;
    if recovered != rows {
        FAILED.store(true, Ordering::Relaxed);
        eprintln!("harness: WAL replay recovered {recovered} rows, expected {rows}");
    }

    // Fold into segments, then time the steady-state boot.
    db.checkpoint()
        .unwrap_or_else(|e| die(&format!("checkpoint: {e}")));
    let segments = db.storage_status().map_or(0, |s| s.segments);
    drop(db);
    let t0 = Instant::now();
    let db = Database::open(&dir, opts).unwrap_or_else(|e| die(&format!("reopen: {e}")));
    let replay_segments_us = t0.elapsed().as_micros() as u64;
    let recovered_seg: u64 = conquer_bench::total_tuples(&db) as u64;
    if recovered_seg != rows {
        FAILED.store(true, Ordering::Relaxed);
        eprintln!("harness: segment load recovered {recovered_seg} rows, expected {rows}");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    say!(args, "| phase | time (ms) |");
    say!(args, "|-------|----------:|");
    say!(
        args,
        "| load ({} tables, {rows} rows) | {:.1} |",
        tables.len(),
        load_us as f64 / 1e3
    );
    say!(
        args,
        "| restart: WAL replay ({wal_bytes} B) | {:.1} |",
        replay_wal_us as f64 / 1e3
    );
    say!(
        args,
        "| restart: segment load ({segments} segments) | {:.1} |",
        replay_segments_us as f64 / 1e3
    );
    say!(args, "");

    let mut report = report_header("recover", args);
    report.push("tables", Json::UInt(tables.len() as u64));
    report.push("rows", Json::UInt(rows));
    report.push("wal_bytes", Json::UInt(wal_bytes));
    report.push("segments", Json::UInt(segments));
    report.push("load_us", Json::UInt(load_us));
    report.push("replay_wal_us", Json::UInt(replay_wal_us));
    report.push("replay_segments_us", Json::UInt(replay_segments_us));
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
    use conquer::engine::TableStats;
    use conquer::tpch::{
        benchmark_constraints, generate_database, inject_database, GenConfig, TABLES,
    };
    use conquer::{annotate_database, declare_key_indexes};
    use conquer_bench::try_run_query;

    const STEPS: [&str; 4] = ["generate", "inject", "annotate", "first_pass"];
    say!(
        args,
        "## load — generate, inject (p = 5 %, n = 2), annotate, first pass \
         (threads {}, median of {})\n",
        args.threads,
        args.runs
    );
    say!(
        args,
        "| SF | tuples | generate (ms) | inject (ms) | annotate (ms) | stats, all tables (ms) \
         | declare + first pass (ms) | of which index build (ms) | tuples/s | column B/tuple \
         | index B/tuple | peak RSS (MiB) |"
    );
    say!(
        args,
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|"
    );
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
            let mut lap = Instant::now();
            let mut step = |samples: &mut [Vec<u64>; 4], i: usize| {
                samples[i].push(lap.elapsed().as_micros() as u64);
                lap = Instant::now();
            };
            let db = generate_database(&GenConfig {
                scale_factor: sf,
                seed: 0xC09E_5EED,
                threads: args.threads,
            });
            step(&mut samples, 0);
            let sigma = benchmark_constraints();
            let injection = inject_database(&db, &sigma, 0.05, 2, 0xC09E_5EED);
            step(&mut samples, 1);
            let annotation = annotate_database(&db, &sigma)
                .unwrap_or_else(|e| die(&format!("load: annotate: {e}")));
            step(&mut samples, 2);
            let rss_loaded = proc_status_bytes("VmRSS:");
            let (built_before, pivoted_before) = (index_builds.snapshot().sum, to_rows.get());
            declare_key_indexes(&db, &sigma);
            let w = Workload {
                db,
                sigma,
                injection,
                annotation: Some(annotation),
            };
            for q in all_queries() {
                for strategy in [Strategy::Original, Strategy::Rewritten, Strategy::Annotated] {
                    if let Err(e) = try_run_query(&w, &q, strategy, &args.options()) {
                        FAILED.store(true, Ordering::Relaxed);
                        eprintln!("harness: load: {} [{}]: {e}", q.name(), strategy.label());
                    }
                }
            }
            step(&mut samples, 3);
            index_build_us.push(index_builds.snapshot().sum - built_before);
            let tables: Vec<_> = TABLES.iter().filter_map(|t| w.db.table(t).ok()).collect();
            let collecting = Instant::now();
            for t in &tables {
                std::hint::black_box(TableStats::collect(t.cols()));
            }
            stats_collect_us.push(collecting.elapsed().as_micros() as u64);
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
        say!(
            args,
            "| {sf} | {tuples} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.0} | {:.1} | {:.1} \
             | {:.1} |",
            median(0) as f64 / 1e3,
            median(1) as f64 / 1e3,
            median(2) as f64 / 1e3,
            stats_collect_us as f64 / 1e3,
            median(3) as f64 / 1e3,
            index_build_us as f64 / 1e3,
            tuples_per_sec,
            per_tuple(last.column_bytes),
            per_tuple(index_bytes),
            peak as f64 / (1 << 20) as f64
        );
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
        for (field, now, what) in [
            ("load_us", load_us, "generate + inject + annotate"),
            ("first_pass_us", median(3), "declare + first pass"),
        ] {
            if let Some(was) = earlier.and_then(|s| s.get(field)?.as_f64()) {
                let speedup = was / now.max(1) as f64;
                say!(
                    args,
                    "|   | before: {:.1} ms {what}, {speedup:.2}x | | | | | | | | | | |",
                    was / 1e3
                );
                let name = field.trim_end_matches("_us");
                entry.push(format!("{name}_speedup"), Json::Float(speedup));
            }
        }
        scales.push(entry);
    }
    say!(args, "");
    let mut report = report_header("load", args);
    report.push("p", Json::Float(0.05));
    report.push("n", Json::UInt(2));
    report.push("scales", Json::arr(scales));
    if let Some(scales) = before.as_ref().and_then(|b| b.get("scales")) {
        report.push("before", Json::obj([("scales", scales.clone())]));
    }
    report
}
