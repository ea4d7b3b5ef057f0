//! The repo benchmark: Fig. 11 pass times and rewriting/original ratios, in
//! process and over the wire, with a layer table timed from outside.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload inproc-q6 --seed 7 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; everything a person
//! reads goes to standard error. README.md beside this file says what each
//! metric and workload means.

mod durable;
mod inproc;
mod stats;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use conquer_engine::{DurabilityOptions, ExecOptions};
use conquer_obs::Json;
use conquer_tpch::rng::StdRng;

use durable::StorageCounters;
use inproc::{Layered, Window, OP_CLASSES};
use stats::{median_of, quantile_of, ratio, relative_spread, self_times, Tracer};
use wire::{Wire, WireWindow};
use workload::{Env, Limit, Mode, Spec, Tally, SPECS};

const DEFAULT_SEED: u64 = 0xC09E_5EED;
const DEFAULT_SECONDS: f64 = 10.0;

/// An end-to-end run sets up this many times and reports the median, so
/// `setup_s` is steadier than one cold set-up.
const SETUP_REPS: usize = 3;

/// In a traced run, the mode the workload does not use (the wire for an
/// in-process workload and the reverse) is probed for this many passes: an
/// even number, so the direct and the layer-by-layer calls go first equally
/// often.
const PROBE_PASSES: usize = 6;

/// In-process churn inserts a traced run times for `engine.insert_us`.
const INSERT_BURST: usize = 50;
/// Wire inserts behind `serve.insert_us_p50`: the writer's first this many,
/// because the table grows and each insert copies it.
const INSERT_SAMPLE: usize = 200;
const WIRE_INSERT_PROBE: usize = 20;

/// A traced run fails when the layers, called one at a time, leave more
/// than this share of the direct calls unexplained in three passes of four.
const MAX_UNACCOUNTED: f64 = 0.05;

/// (name, unit, better): what `--trace 0` prints. BENCHMARK.json lists the
/// same names with their bounds.
const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("ratio_rewr", "ratio", "lower"),
    ("ratio_annot", "ratio", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Absolute times of the same window. On the sandbox they move 5-15 %
/// between two runs of one binary, which no bound the contract allows can
/// hold, so an untraced run reports them beside the result, ungated, and a
/// traced run prints them as per-layer metrics under `e2e.`.
const WINDOW_TIMES: [(&str, &str, &str); 5] = [
    ("orig_pass_ms", "ms", "lower"),
    ("rewr_pass_ms", "ms", "lower"),
    ("annot_pass_ms", "ms", "lower"),
    ("req_ms_p50", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
];

/// What `--trace 1` prints, in the layer order of README.md.
const PER_LAYER: [(&str, &str, &str); 55] = [
    ("e2e.orig_pass_ms", "ms", "lower"),
    ("e2e.rewr_pass_ms", "ms", "lower"),
    ("e2e.annot_pass_ms", "ms", "lower"),
    ("tpch.generate_us", "us", "lower"),
    ("tpch.inject_us", "us", "lower"),
    ("core.annotate_us", "us", "lower"),
    ("engine.durable_load_us", "us", "lower"),
    ("engine.warmup_us", "us", "lower"),
    ("serve.warmup_us", "us", "lower"),
    ("sql.parse_us", "us", "lower"),
    ("core.analyze_us", "us", "lower"),
    ("core.rewrite_us", "us", "lower"),
    ("core.rewritten_bytes", "count", "lower"),
    ("engine.plan_us", "us", "lower"),
    ("engine.exec_us", "us", "lower"),
    ("engine.release_us", "us", "lower"),
    ("engine.unaccounted_frac", "frac", "lower"),
    ("engine.op.total_us", "us", "lower"),
    ("engine.op.scan_frac", "frac", "lower"),
    ("engine.op.filter_frac", "frac", "lower"),
    ("engine.op.join_frac", "frac", "lower"),
    ("engine.op.agg_frac", "frac", "lower"),
    ("engine.op.other_frac", "frac", "lower"),
    ("engine.rows_scanned", "count", "lower"),
    ("engine.join_build_rows", "count", "lower"),
    ("engine.join_probe_rows", "count", "lower"),
    ("engine.join_comparisons", "count", "lower"),
    ("engine.agg_input_rows", "count", "lower"),
    ("engine.rows_out", "count", "lower"),
    ("engine.indexes_built", "count", "higher"),
    ("engine.insert_us", "us", "lower"),
    ("serve.ping_us_p50", "us", "lower"),
    ("serve.wire_us_p50", "us", "lower"),
    ("serve.server_us_p50", "us", "lower"),
    ("serve.req_us_p50", "us", "lower"),
    ("serve.req_us_p95", "us", "lower"),
    ("serve.throughput_rps", "1/s", "higher"),
    ("serve.encode_us", "us", "lower"),
    ("serve.decode_us", "us", "lower"),
    ("serve.resp_bytes", "count", "lower"),
    ("serve.insert_us_p50", "us", "lower"),
    ("serve.cache_hit_rate", "frac", "higher"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.build_us", "us", "lower"),
    ("serve.busy_retries", "count", "lower"),
    ("serve.admitted", "count", "higher"),
    ("serve.rejected", "count", "lower"),
    ("storage.wal_bytes_per_insert", "bytes", "lower"),
    ("storage.wal_syncs", "count", "lower"),
    ("storage.fsync_us_mean", "us", "lower"),
    ("storage.checkpoint_us", "us", "lower"),
    ("storage.recover_us", "us", "lower"),
    ("storage.recover_wal_us", "us", "lower"),
    ("storage.space_amp", "ratio", "lower"),
    ("obs.trace_overhead_frac", "frac", "lower"),
];

/// Per-layer counts that depend on seed, data and plan only: two runs at
/// one seed must agree on them bit for bit.
const EXACT_REPEAT: [&str; 9] = [
    "engine.rows_scanned",
    "engine.join_build_rows",
    "engine.join_probe_rows",
    "engine.join_comparisons",
    "engine.agg_input_rows",
    "engine.rows_out",
    "serve.resp_bytes",
    "core.rewritten_bytes",
    "storage.wal_bytes_per_insert",
];

/// How one run is made.
#[derive(Clone, Copy)]
struct Config {
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Smoke-test knobs, recorded in the report when used.
    sf_scale: f64,
    passes: Option<usize>,
}

struct Args {
    workload: Option<String>,
    self_check: bool,
    run: Config,
}

impl Config {
    fn limit(&self) -> Limit {
        self.passes
            .map_or(Limit::Seconds(self.seconds), Limit::Passes)
    }
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace [0|1]]\n\
         \x20      benchmark --self-check [--seed N] [--seconds S]\n\
         smoke-test knobs: --sf-scale F (shrink every scale factor), --passes N (fixed pass count, one set-up)",
        names.join("|")
    )
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut self_check = false;
    let mut cfg = Config {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sf_scale: 1.0,
        passes: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                cfg.seed = parse_u64(&v).ok_or_else(|| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                cfg.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
            }
            "--sf-scale" => {
                let v = value("--sf-scale")?;
                cfg.sf_scale = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --sf-scale {v}"))?;
            }
            "--passes" => {
                let v = value("--passes")?;
                cfg.passes = Some(
                    v.parse()
                        .ok()
                        .filter(|n: &usize| *n > 0)
                        .ok_or_else(|| format!("bad --passes {v}"))?,
                );
            }
            // `--trace 0|1` as the driver passes it; bare `--trace` means 1.
            "--trace" => {
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--self-check" => self_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload,
        self_check,
        run: cfg,
    })
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// One run's result: the contract's four keys, plus the report written
/// beside the spans.
struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    /// Measured and reported, but not in the result line ([`WINDOW_TIMES`]).
    ungated: Vec<Metric>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    fn metrics_json(metrics: &[Metric]) -> Json {
        Json::Obj(
            metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::obj([
                            ("value", Json::Float(m.value)),
                            ("unit", Json::from(m.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The line the driver reads.
    fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.tally.attempted.max(1))),
            ("failed", Json::UInt(self.tally.failed)),
            ("metrics", Outcome::metrics_json(&self.metrics)),
        ])
        .render()
    }
}

/// Pair the values a run computed with the declared names, in declared
/// order. A name without a value is a bug in this file, and a value that is
/// not a number (a rate over zero events) has no place in the result.
fn declared(
    table: &[(&'static str, &'static str, &'static str)],
    values: &[(&str, f64)],
) -> Vec<Metric> {
    table
        .iter()
        .map(|(name, unit, _)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("no value computed for {name}"))
                .1;
            assert!(value.is_finite(), "{name} is {value}");
            Metric { name, unit, value }
        })
        .collect()
}

/// Build outputs, data directories, spans and reports all live beside the
/// executable, which is inside the build directory and so inside the
/// checkout.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let dir = exe
        .parent()
        .expect("executable has a directory")
        .join("benchmark-out");
    std::fs::create_dir_all(&dir).expect("create output directory");
    dir
}

fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir().join(format!(
        "run-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(spec: &Spec, cfg: &Config, passes: usize) -> Json {
    let connections = match spec.mode {
        Mode::InProc => 0,
        Mode::Wire { readers, churn } => readers + usize::from(churn),
    };
    let mut p = Json::obj([
        ("workload", Json::from(spec.name)),
        ("why", Json::from(spec.why)),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("engine_threads", Json::from(ExecOptions::default().threads)),
        ("client_connections", Json::from(connections)),
        ("scale_factor", Json::Float(spec.sf * cfg.sf_scale)),
        ("p", Json::Float(workload::P)),
        ("n", Json::from(workload::N)),
        ("seed", Json::UInt(cfg.seed)),
        ("seconds", Json::Float(cfg.seconds)),
        ("passes", Json::from(passes)),
        (
            "sync_policy",
            Json::from(format!("{:?}", DurabilityOptions::default().sync)),
        ),
        (
            "git_commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::from(command_line("rustc", &["--version"]))),
        ("tracing", Json::Bool(cfg.trace)),
    ]);
    if cfg.sf_scale != 1.0 {
        p.push("sf_scale", Json::Float(cfg.sf_scale));
    }
    if let Some(n) = cfg.passes {
        p.push("fixed_passes", Json::from(n));
    }
    p
}

fn median_over_passes(window: &Window, of: impl Fn(&[f64; 3]) -> f64) -> f64 {
    median_of(&mut window.passes.iter().map(of).collect::<Vec<_>>())
}

/// The end-to-end metrics of one untraced window.
fn end_to_end(setup_s: f64, window: &Window) -> Vec<Metric> {
    declared(
        &END_TO_END,
        &[
            ("setup_s", setup_s),
            // Each ratio is taken inside one pass, where the strategies ran
            // interleaved, so a slow stretch of the machine cancels out.
            (
                "ratio_rewr",
                median_over_passes(window, |p| ratio(p[1], p[0])),
            ),
            (
                "ratio_annot",
                median_over_passes(window, |p| ratio(p[2], p[0])),
            ),
            ("peak_rss_mb", stats::peak_rss_mb()),
        ],
    )
}

/// [`WINDOW_TIMES`] of an untraced window.
fn window_times(window: &Window) -> Vec<Metric> {
    declared(
        &WINDOW_TIMES,
        &[
            ("orig_pass_ms", median_over_passes(window, |p| p[0])),
            ("rewr_pass_ms", median_over_passes(window, |p| p[1])),
            ("annot_pass_ms", median_over_passes(window, |p| p[2])),
            ("req_ms_p50", median_of(&mut window.req_ms.clone())),
            ("throughput_rps", window.req_ms.len() as f64 / window.wall_s),
        ],
    )
}

/// `churn_log` holds eight rows per acknowledged insert, live and after the
/// crash; the base tables hold what set-up loaded.
fn crash_and_recover(env: Env, next_id: u64, tally: &mut Tally) -> durable::Recovered {
    let expect = durable::table_counts(&env.db);
    tally.check(expect.get("churn_log") == Some(&(next_id as usize)), || {
        format!(
            "churn_log holds {:?} rows, {next_id} were acknowledged",
            expect.get("churn_log")
        )
    });
    let dir = env.teardown().expect("a churn workload is durable");
    durable::recover(&dir, &expect, tally)
}

/// What one run measured, before the tally is final.
struct Measured {
    metrics: Vec<Metric>,
    ungated: Vec<Metric>,
    passes: usize,
}

fn run_untraced(spec: &'static Spec, cfg: &Config, scratch: &Path, tally: &mut Tally) -> Measured {
    let reps = if cfg.passes.is_some() { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut env: Option<Env> = None;
    for _ in 0..reps {
        if let Some(previous) = env.take() {
            previous.teardown();
        }
        let next = workload::setup(spec, cfg.sf_scale, cfg.seed, scratch, tally);
        setup_s.push(next.times.total_s);
        env = Some(next);
    }
    let mut env = env.expect("set up at least once");
    let mut next_id = 0;
    let window = match spec.mode {
        Mode::InProc => inproc::run(&env, cfg.limit()),
        Mode::Wire { readers, churn } => {
            let mut off = Tracer::new(Instant::now(), false);
            wire::run(
                &mut env,
                readers,
                churn,
                cfg.limit(),
                cfg.seed,
                &mut next_id,
                &mut off,
            )
            .window
        }
    };
    let metrics = end_to_end(median_of(&mut setup_s), &window);
    tally.add(window.tally);
    if env.durable_dir.is_some() {
        let recovered = crash_and_recover(env, next_id, tally);
        eprintln!(
            "benchmark: {next_id} rows acknowledged, reopened in {:.1} ms",
            recovered.open_us / 1e3
        );
    } else {
        env.teardown();
    }
    Measured {
        metrics,
        ungated: window_times(&window),
        passes: window.passes.len(),
    }
}

/// What the storage layer did around a phase of inserts.
struct StorageLayer {
    durable_load_us: f64,
    checkpoint_us: f64,
    insert_us: f64,
    wal: StorageCounters,
    space_amp: f64,
    recovered: durable::Recovered,
}

/// Exercise the storage layer: in place on the durable workload, on a
/// durable copy of this workload's tables everywhere else. Ends with the
/// crash and the checked reopen, so it consumes the environment.
fn storage_layer(
    env: Env,
    churn: bool,
    wal_before: StorageCounters,
    next_id: &mut u64,
    rng: &mut StdRng,
    scratch: &Path,
    tally: &mut Tally,
) -> StorageLayer {
    let amplification = |dir: &Path, db| {
        ratio(
            durable::dir_bytes(dir) as f64,
            durable::user_bytes(db) as f64,
        )
    };
    if churn {
        let mut burst = durable::insert_burst(&env.db, INSERT_BURST, next_id, rng, tally);
        let dir = env.durable_dir.clone().expect("churn is durable");
        StorageLayer {
            durable_load_us: env.times.durable_load_us,
            checkpoint_us: env.times.checkpoint_us,
            insert_us: median_of(&mut burst),
            wal: StorageCounters::read().since(wal_before),
            space_amp: amplification(&dir, &env.db),
            recovered: crash_and_recover(env, *next_id, tally),
        }
    } else {
        let dir = scratch.join("durable");
        let copy = durable::load(&dir, &env.db);
        env.teardown();
        let before = StorageCounters::read();
        let mut id = copy.db.table("churn_log").map_or(0, |t| t.len() as u64);
        let mut burst = durable::insert_burst(&copy.db, INSERT_BURST, &mut id, rng, tally);
        let wal = StorageCounters::read().since(before);
        let space_amp = amplification(&dir, &copy.db);
        let expect = durable::table_counts(&copy.db);
        let (durable_load_us, checkpoint_us) = (copy.load_us, copy.checkpoint_us);
        drop(copy);
        StorageLayer {
            durable_load_us,
            checkpoint_us,
            insert_us: median_of(&mut burst),
            wal,
            space_amp,
            recovered: durable::recover(&dir, &expect, tally),
        }
    }
}

fn run_traced(spec: &'static Spec, cfg: &Config, scratch: &Path, tally: &mut Tally) -> Measured {
    let mut env = workload::setup(spec, cfg.sf_scale, cfg.seed, scratch, tally);
    let mut tracer = Tracer::new(Instant::now(), true);
    let mut request = 0;
    let mut next_id = 0;
    let probe = Limit::Passes(PROBE_PASSES);
    let wal_before = StorageCounters::read();

    // The workload's own mode runs for the window; the other mode is
    // probed, so every layer has a row in every workload's table.
    let (layered, wired, churn): (Layered, WireWindow, bool) = match spec.mode {
        Mode::InProc => {
            let layered = inproc::run_layered(&env, cfg.limit(), &mut tracer, &mut request);
            let wire = Wire::start(&env, 1, tally);
            env.times.serve_warmup_us = wire.warmup_us;
            env.wire = Some(wire);
            let wired = wire::run(
                &mut env,
                1,
                false,
                probe,
                cfg.seed,
                &mut next_id,
                &mut tracer,
            );
            (layered, wired, false)
        }
        Mode::Wire { readers, churn } => {
            let wired = wire::run(
                &mut env,
                readers,
                churn,
                cfg.limit(),
                cfg.seed,
                &mut next_id,
                &mut tracer,
            );
            let layered = inproc::run_layered(&env, probe, &mut tracer, &mut request);
            (layered, wired, churn)
        }
    };
    let main_window = match spec.mode {
        Mode::InProc => &layered.window,
        Mode::Wire { .. } => &wired.window,
    };
    let passes = main_window.passes.len();
    let pass_ms = [0, 1, 2].map(|i| median_over_passes(main_window, |p| p[i]));
    // Only the wire window did nothing but its requests.
    let wire_rps = wired.window.req_ms.len() as f64 / wired.window.wall_s;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
    let mut wire_insert_us = if churn {
        wired
            .insert_us
            .iter()
            .copied()
            .take(INSERT_SAMPLE)
            .collect()
    } else {
        wire::insert_probe(&mut env, WIRE_INSERT_PROBE, &mut next_id, &mut rng, tally)
    };
    let codec = wire::codec_probe(&env, 5, tally);
    let build_us = wire::build_probe(&env, 2);
    let indexes_built = env.db.index_status().iter().filter(|(_, _, b)| *b).count();
    let times = env.times;

    let storage = storage_layer(
        env,
        churn,
        wal_before,
        &mut next_id,
        &mut rng,
        scratch,
        tally,
    );

    let out = out_dir();
    let spans_path = out.join(format!("{}.spans.json", spec.name));
    std::fs::write(&spans_path, tracer.to_json().render()).expect("write spans");
    eprintln!(
        "\n{:<22} {:>8} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, t) in self_times(tracer.spans()) {
        eprintln!(
            "{name:<22} {:>8} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    eprintln!("spans written to {}", spans_path.display());

    // The median pass is the metric. The gate is the lower quartile: a
    // layer that is missing shows in every pass, while the sandbox's jitter
    // between two back-to-back calls (±5 % on a 300 ms query) shows in some.
    let mut by_pass = layered.unaccounted_by_pass();
    let unaccounted = median_of(&mut by_pass);
    let floor = quantile_of(&mut by_pass, 0.25);
    tally.check(floor <= MAX_UNACCOUNTED, || {
        format!("three quarters of the passes leave more than {MAX_UNACCOUNTED} of the direct calls unaccounted (lower quartile {floor:.3})")
    });
    if !layered.counts_repeat {
        eprintln!("benchmark: operator counters did not repeat between two traced executions");
    }
    let lookups = wired.counters.hits + wired.counters.misses;
    let mut req_us: Vec<f64> = wired.window.req_ms.iter().map(|ms| ms * 1e3).collect();
    let c = layered.counts;
    // Operator self time of one pass, and each operator class's share of
    // it: a class a workload's plans lack (joins under Q1 and Q6) is then a
    // share of zero, not a time that reads the same on every run.
    let op_total_us: f64 = OP_CLASSES.iter().map(|c| layered.pass_us(c)).sum();
    let op = |class: &str| layered.pass_us(class) / op_total_us;
    let metrics = declared(
        &PER_LAYER,
        &[
            ("e2e.orig_pass_ms", pass_ms[0]),
            ("e2e.rewr_pass_ms", pass_ms[1]),
            ("e2e.annot_pass_ms", pass_ms[2]),
            ("tpch.generate_us", times.generate_us),
            ("tpch.inject_us", times.inject_us),
            ("core.annotate_us", times.annotate_us),
            ("engine.durable_load_us", storage.durable_load_us),
            ("engine.warmup_us", times.engine_warmup_us),
            ("serve.warmup_us", times.serve_warmup_us),
            ("sql.parse_us", layered.pass_us("sql.parse")),
            ("core.analyze_us", layered.pass_us("core.analyze")),
            ("core.rewrite_us", layered.pass_us("core.rewrite")),
            ("core.rewritten_bytes", layered.rewritten_bytes as f64),
            ("engine.plan_us", layered.pass_us("engine.plan")),
            ("engine.exec_us", layered.pass_us("engine.exec")),
            ("engine.release_us", layered.pass_us("engine.release")),
            ("engine.unaccounted_frac", unaccounted),
            ("engine.op.total_us", op_total_us),
            ("engine.op.scan_frac", op(OP_CLASSES[0])),
            ("engine.op.filter_frac", op(OP_CLASSES[1])),
            ("engine.op.join_frac", op(OP_CLASSES[2])),
            ("engine.op.agg_frac", op(OP_CLASSES[3])),
            ("engine.op.other_frac", op(OP_CLASSES[4])),
            ("engine.rows_scanned", c.rows_scanned as f64),
            ("engine.join_build_rows", c.join_build_rows as f64),
            ("engine.join_probe_rows", c.join_probe_rows as f64),
            ("engine.join_comparisons", c.join_comparisons as f64),
            ("engine.agg_input_rows", c.agg_input_rows as f64),
            ("engine.rows_out", c.rows_out as f64),
            ("engine.indexes_built", indexes_built as f64),
            ("engine.insert_us", storage.insert_us),
            ("serve.ping_us_p50", median_of(&mut wired.ping_us.clone())),
            ("serve.wire_us_p50", median_of(&mut wired.wire_us.clone())),
            (
                "serve.server_us_p50",
                median_of(&mut wired.server_us.clone()),
            ),
            ("serve.req_us_p50", quantile_of(&mut req_us, 0.5)),
            ("serve.req_us_p95", quantile_of(&mut req_us, 0.95)),
            ("serve.throughput_rps", wire_rps),
            ("serve.encode_us", codec.encode_us),
            ("serve.decode_us", codec.decode_us),
            ("serve.resp_bytes", codec.resp_bytes as f64),
            ("serve.insert_us_p50", median_of(&mut wire_insert_us)),
            ("serve.cache_hit_rate", ratio(wired.counters.hits, lookups)),
            ("serve.cache_misses", wired.counters.misses),
            ("serve.build_us", build_us),
            ("serve.busy_retries", wired.busy as f64),
            ("serve.admitted", wired.counters.admitted),
            ("serve.rejected", wired.counters.rejected),
            (
                "storage.wal_bytes_per_insert",
                ratio(storage.wal.append_bytes as f64, storage.wal.appends as f64),
            ),
            ("storage.wal_syncs", storage.wal.syncs as f64),
            (
                "storage.fsync_us_mean",
                ratio(
                    storage.wal.fsync_sum_us as f64,
                    storage.wal.fsync_count as f64,
                ),
            ),
            ("storage.checkpoint_us", storage.checkpoint_us),
            ("storage.recover_us", storage.recovered.open_us),
            ("storage.recover_wal_us", storage.recovered.replay_us),
            ("storage.space_amp", storage.space_amp),
            ("obs.trace_overhead_frac", layered.trace_overhead_frac()),
        ],
    );
    tally.add(layered.window.tally);
    tally.add(wired.window.tally);
    Measured {
        metrics,
        ungated: Vec::new(),
        passes,
    }
}

/// One run of one workload: the repair-oracle gate, set-up, the window,
/// the closing checks, the report.
fn run_one(spec: &'static Spec, cfg: &Config) -> Outcome {
    let scratch = scratch_dir();
    let mut tally = Tally::default();
    workload::oracle_fixture(&mut tally);
    let Measured {
        metrics,
        ungated,
        passes,
    } = if cfg.trace {
        run_traced(spec, cfg, &scratch, &mut tally)
    } else {
        run_untraced(spec, cfg, &scratch, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = Outcome {
        tally,
        metrics,
        ungated,
    };

    let mut report = provenance(spec, cfg, passes);
    report.push("correct", Json::Bool(outcome.correct()));
    report.push("attempted", Json::UInt(outcome.tally.attempted));
    report.push("failed", Json::UInt(outcome.tally.failed));
    report.push("metrics", Outcome::metrics_json(&outcome.metrics));
    if !outcome.ungated.is_empty() {
        report.push("ungated", Outcome::metrics_json(&outcome.ungated));
    }
    let kind = if cfg.trace { "layers" } else { "end_to_end" };
    let path = out_dir().join(format!("{}.{kind}.json", spec.name));
    std::fs::write(&path, report.render_pretty()).expect("write report");
    eprintln!(
        "\n{} ({kind}, seed {:#x}, {passes} passes, {} operations, {} failed)",
        spec.name, cfg.seed, outcome.tally.attempted, outcome.tally.failed
    );
    for m in &outcome.metrics {
        eprintln!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.ungated {
        eprintln!("  {:<30} {:>16.4} {} (ungated)", m.name, m.value, m.unit);
    }
    eprintln!("report written to {}", path.display());
    outcome
}

/// The bound of every end-to-end metric, as BENCHMARK.json in the working
/// directory records it.
fn recorded_bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(entries)) = json.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    entries
        .iter()
        .map(
            |e| match (e.get("name"), e.get("bound").and_then(Json::as_f64)) {
                (Some(Json::Str(name)), Some(bound)) => Ok((name.clone(), bound)),
                _ => Err(format!(
                    "BENCHMARK.json: bad end_to_end entry {}",
                    e.render()
                )),
            },
        )
        .collect()
}

/// A/A: every workload twice untraced and twice traced in this process.
/// End-to-end values must agree within their recorded bounds, exact-repeat
/// counters bit for bit.
fn self_check(cfg: &Config) -> Result<bool, String> {
    let bounds = recorded_bounds()?;
    let mut ok = true;
    for spec in &SPECS {
        let run = |trace: bool| run_one(spec, &Config { trace, ..*cfg });
        let (a, b) = (run(false), run(false));
        ok &= a.correct() && b.correct();
        eprintln!("\nself-check {}: end to end", spec.name);
        for (name, bound) in &bounds {
            let (x, y) = (a.value(name), b.value(name));
            // As the driver does, set-up's spread is shown but not held to
            // its bound. Nor is peak memory's: one process runs both, so the
            // second run inherits the first one's high-water mark.
            let spread = relative_spread(x, y);
            let pass = spread <= *bound || name == "setup_s" || name == "peak_rss_mb";
            ok &= pass;
            eprintln!(
                "  {name:<16} {x:>14.4} {y:>14.4}  spread {spread:.4}  bound {bound:.2}  {}",
                if pass { "ok" } else { "EXCEEDED" }
            );
        }
        let (a, b) = (run(true), run(true));
        ok &= a.correct() && b.correct();
        eprintln!("\nself-check {}: exact-repeat counters", spec.name);
        for name in EXACT_REPEAT {
            let (x, y) = (a.value(name), b.value(name));
            let pass = x.to_bits() == y.to_bits();
            ok &= pass;
            eprintln!(
                "  {name:<30} {x:>16} {y:>16}  {}",
                if pass { "ok" } else { "DIFFERS" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The engine's thread count is `ExecOptions::default()`'s business; an
    // override in the environment would make runs incomparable.
    if std::env::var_os("CONQUER_THREADS").is_some() {
        eprintln!("benchmark: refusing to run with CONQUER_THREADS set");
        return ExitCode::from(2);
    }
    if args.self_check {
        return match self_check(&args.run) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("benchmark: {msg}");
                ExitCode::from(2)
            }
        };
    }
    let Some(spec) = args.workload.as_deref().and_then(workload::spec) else {
        eprintln!("benchmark: name a workload\n{}", usage());
        return ExitCode::from(2);
    };
    let outcome = run_one(spec, &args.run);
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let parsed = parse_args(&args(&[
            "--workload",
            "serve-warm",
            "--seed",
            "17",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("serve-warm"));
        assert_eq!(parsed.run.seed, 17);
        assert!(!parsed.run.trace);
        let parsed = parse_args(&args(&["--trace", "--seed", "0xC09E5EED"])).unwrap();
        assert!(parsed.run.trace);
        assert_eq!(parsed.run.seed, DEFAULT_SEED);
        assert!(parse_args(&args(&["--trace", "1", "--bogus"])).is_err());
        assert!(parse_args(&args(&["--seconds", "0"])).is_err());
    }

    /// BENCHMARK.json and the tables in this file name the same workloads
    /// and metrics, in the same order, with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match json.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |j: &Json, key: &str| match j.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let workloads = list("workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (w, spec) in workloads.iter().zip(&SPECS) {
            assert_eq!(text(w, "name"), spec.name);
            assert_eq!(text(w, "why"), spec.why);
            assert!(spec.why.len() <= 200, "{} why is too long", spec.name);
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (m, (name, unit, better)) in listed.iter().zip(table) {
                assert_eq!(text(m, "name"), *name);
                assert_eq!(text(m, "unit"), *unit);
                assert_eq!(text(m, "better"), *better);
            }
        }
        for name in EXACT_REPEAT {
            assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        }
    }

    /// All five workloads, untraced and traced, on a fiftieth of their
    /// data for one pass each: the benchmark keeps compiling and every
    /// correctness gate keeps passing.
    #[test]
    fn smoke_all_workloads() {
        for spec in &SPECS {
            for trace in [false, true] {
                let cfg = Config {
                    seed: DEFAULT_SEED,
                    seconds: DEFAULT_SECONDS,
                    trace,
                    sf_scale: 0.02,
                    passes: Some(1),
                };
                let outcome = run_one(spec, &cfg);
                // A traced run of a few passes over a few hundred rows may
                // miss the 5 % accounting limit; every other gate must hold.
                let accounting =
                    trace && outcome.value("engine.unaccounted_frac") > MAX_UNACCOUNTED;
                let failed = outcome.tally.failed.saturating_sub(u64::from(accounting));
                assert_eq!(failed, 0, "{} trace={trace}", spec.name);
                let expected = if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(outcome.metrics.len(), expected);
                assert!(Json::parse(&outcome.result_line()).is_ok());
            }
        }
    }
}
