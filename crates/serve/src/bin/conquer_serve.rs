//! The `conquer-serve` binary: bind a TCP listener and serve the ConQuer
//! pipeline over the frame protocol.
//!
//! ```text
//! conquer-serve [--port N] [--tpch-sf F [--inconsistency P] [--annotate]]
//!               [--script FILE [--keys rel:col+col,rel2:col]]
//!               [--data-dir DIR [--sync always|interval:<ms>|never]
//!                [--checkpoint-wal-bytes N] [--checkpoint-interval-ms N]]
//!               [--max-sessions N] [--admit N] [--queue-wait-ms N]
//!               [--io-threads N] [--cache N] [--metrics-port N]
//!               [--slow-query-us N]
//! ```
//!
//! Data comes from exactly one of `--tpch-sf` (generate + inject TPC-H) or
//! `--script` (run a SQL file; pair with `--keys` for the constraint set).
//! With neither, the server starts empty — clients create tables with the
//! `script` op. Prints `listening on ADDR` once accepting (the CI smoke job
//! and the bench harness scrape that line), and `metrics on ADDR` when
//! `--metrics-port` enables the HTTP exposition endpoint (`/metrics`,
//! `/metrics.json`, `/traces`). `--slow-query-us` sets the default
//! slow-query log threshold (JSON lines on stderr; 0 disables).
//!
//! `--io-threads` sizes the event loop's connection-driver pool (at least
//! 1); `--admit` sizes the query-worker pool, which bounds how many
//! requests run at once.
//!
//! `--data-dir` makes the catalog durable: mutations are write-ahead
//! logged, a background checkpointer folds the WAL into immutable
//! segments, and a restart recovers the catalog before accepting
//! connections (printing `recovered N tables ...`). When the recovered
//! catalog is non-empty, `--tpch-sf`/`--script` seeding is skipped — the
//! disk is the source of truth.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use conquer_core::ConstraintSet;
use conquer_engine::{Checkpointer, Database, DurabilityOptions, SyncPolicy};
use conquer_serve::{serve, ServerConfig};
use conquer_tpch::{build_workload, WorkloadConfig};

struct Args {
    port: u16,
    tpch_sf: Option<f64>,
    inconsistency: f64,
    annotate: bool,
    script: Option<String>,
    keys: Vec<(String, Vec<String>)>,
    data_dir: Option<String>,
    sync: SyncPolicy,
    checkpoint_wal_bytes: u64,
    checkpoint_interval_ms: u64,
    max_sessions: usize,
    admit: usize,
    queue_wait_ms: u64,
    io_threads: usize,
    cache: usize,
    metrics_port: Option<u16>,
    slow_query_us: u64,
}

impl Default for Args {
    fn default() -> Args {
        let defaults = ServerConfig::default();
        let durability = DurabilityOptions::default();
        Args {
            port: 7878,
            tpch_sf: None,
            inconsistency: 0.05,
            annotate: false,
            script: None,
            keys: Vec::new(),
            data_dir: None,
            sync: durability.sync,
            checkpoint_wal_bytes: durability.checkpoint_wal_bytes,
            checkpoint_interval_ms: 60_000,
            max_sessions: defaults.max_sessions,
            admit: defaults.max_concurrent,
            queue_wait_ms: defaults.queue_wait.as_millis() as u64,
            io_threads: defaults.io_threads,
            cache: defaults.cache_capacity,
            metrics_port: None,
            slow_query_us: defaults.slow_query_us,
        }
    }
}

const USAGE: &str = "usage: conquer-serve [--port N] [--tpch-sf F [--inconsistency P] [--annotate]]
                     [--script FILE [--keys rel:col+col,rel2:col]]
                     [--data-dir DIR [--sync always|interval:<ms>|never]
                      [--checkpoint-wal-bytes N] [--checkpoint-interval-ms N]]
                     [--max-sessions N] [--admit N] [--queue-wait-ms N]
                     [--io-threads N] [--cache N] [--metrics-port N]
                     [--slow-query-us N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--port" => {
                args.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--tpch-sf" => {
                args.tpch_sf = Some(
                    value("--tpch-sf")?
                        .parse()
                        .map_err(|e| format!("--tpch-sf: {e}"))?,
                )
            }
            "--inconsistency" => {
                args.inconsistency = value("--inconsistency")?
                    .parse()
                    .map_err(|e| format!("--inconsistency: {e}"))?
            }
            "--annotate" => args.annotate = true,
            "--script" => args.script = Some(value("--script")?),
            "--keys" => args.keys = parse_keys(&value("--keys")?)?,
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            "--sync" => args.sync = SyncPolicy::parse(&value("--sync")?)?,
            "--checkpoint-wal-bytes" => {
                args.checkpoint_wal_bytes = value("--checkpoint-wal-bytes")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-wal-bytes: {e}"))?
            }
            "--checkpoint-interval-ms" => {
                args.checkpoint_interval_ms = value("--checkpoint-interval-ms")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-interval-ms: {e}"))?
            }
            "--max-sessions" => {
                args.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|e| format!("--max-sessions: {e}"))?
            }
            "--admit" => {
                args.admit = value("--admit")?
                    .parse()
                    .map_err(|e| format!("--admit: {e}"))?
            }
            "--queue-wait-ms" => {
                args.queue_wait_ms = value("--queue-wait-ms")?
                    .parse()
                    .map_err(|e| format!("--queue-wait-ms: {e}"))?
            }
            "--io-threads" => {
                args.io_threads = value("--io-threads")?
                    .parse()
                    .map_err(|e| format!("--io-threads: {e}"))?;
                if args.io_threads < 1 {
                    return Err("--io-threads: must be at least 1".to_string());
                }
            }
            "--cache" => {
                args.cache = value("--cache")?
                    .parse()
                    .map_err(|e| format!("--cache: {e}"))?
            }
            "--metrics-port" => {
                args.metrics_port = Some(
                    value("--metrics-port")?
                        .parse()
                        .map_err(|e| format!("--metrics-port: {e}"))?,
                )
            }
            "--slow-query-us" => {
                args.slow_query_us = value("--slow-query-us")?
                    .parse()
                    .map_err(|e| format!("--slow-query-us: {e}"))?
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if args.tpch_sf.is_some() && args.script.is_some() {
        return Err("--tpch-sf and --script are mutually exclusive".to_string());
    }
    Ok(args)
}

/// `rel:col+col,rel2:col` → key constraints.
fn parse_keys(spec: &str) -> Result<Vec<(String, Vec<String>)>, String> {
    spec.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (rel, cols) = part
                .split_once(':')
                .ok_or_else(|| format!("--keys entry `{part}` is not rel:col+col"))?;
            let cols: Vec<String> = cols.split('+').map(str::to_string).collect();
            if rel.is_empty() || cols.iter().any(String::is_empty) {
                return Err(format!("--keys entry `{part}` has an empty name"));
            }
            Ok((rel.to_string(), cols))
        })
        .collect()
}

fn build_database(args: &Args) -> Result<(Arc<Database>, ConstraintSet), String> {
    // Open (and recover) the durable catalog first: when it already holds
    // tables, seeding is skipped — the disk is the source of truth.
    let durable_db = match &args.data_dir {
        Some(dir) => {
            let db = Database::open(
                std::path::Path::new(dir),
                DurabilityOptions {
                    sync: args.sync,
                    checkpoint_wal_bytes: args.checkpoint_wal_bytes,
                },
            )
            .map_err(|e| format!("--data-dir {dir}: {e}"))?;
            let recovered = db.table_names().len();
            eprintln!(
                "recovered {recovered} tables from {dir} (sync={})",
                args.sync
            );
            Some(db)
        }
        None => None,
    };
    let already_loaded = durable_db
        .as_ref()
        .is_some_and(|db| !db.table_names().is_empty());

    if let Some(sf) = args.tpch_sf {
        let sigma = conquer_tpch::benchmark_constraints();
        if already_loaded {
            eprintln!("data dir is non-empty; skipping TPC-H seeding");
            let db = durable_db.ok_or("unreachable: already_loaded implies durable")?;
            return Ok((Arc::new(db), sigma));
        }
        eprintln!("generating TPC-H sf={sf} (p={})...", args.inconsistency);
        let workload = build_workload(&WorkloadConfig {
            scale_factor: sf,
            p: args.inconsistency,
            annotate: args.annotate,
            ..WorkloadConfig::default()
        });
        let Some(db) = durable_db else {
            return Ok((Arc::new(workload.db), workload.sigma));
        };
        // Copy the generated tables into the durable catalog (each copy is
        // logged as a snapshot record, so the load itself is durable).
        for name in workload.db.table_names() {
            let table = workload.db.table(&name).map_err(|e| e.to_string())?;
            db.register((*table).clone())
                .map_err(|e| format!("--data-dir: {e}"))?;
        }
        return Ok((Arc::new(db), workload.sigma));
    }

    let db = durable_db.unwrap_or_default();
    if let Some(path) = &args.script {
        if already_loaded {
            eprintln!("data dir is non-empty; skipping --script seeding");
        } else {
            let sql = std::fs::read_to_string(path).map_err(|e| format!("--script {path}: {e}"))?;
            db.run_script(&sql)
                .map_err(|e| format!("--script {path}: {e}"))?;
        }
    }
    let mut sigma = ConstraintSet::new();
    for (rel, cols) in &args.keys {
        sigma
            .add_key(rel.clone(), cols.iter().cloned())
            .map_err(|e| format!("--keys: {e}"))?;
    }
    Ok((Arc::new(db), sigma))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let (db, sigma) = match build_database(&args) {
        Ok(built) => built,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let config = ServerConfig {
        addr: format!("127.0.0.1:{}", args.port),
        max_sessions: args.max_sessions,
        max_concurrent: args.admit,
        queue_wait: Duration::from_millis(args.queue_wait_ms),
        io_threads: args.io_threads,
        cache_capacity: args.cache,
        metrics_addr: args.metrics_port.map(|p| format!("127.0.0.1:{p}")),
        slow_query_us: args.slow_query_us,
    };
    // Background checkpointer: folds the WAL into segments on an interval
    // and ticks the interval-sync policy. Dropped (stopped and joined)
    // after the server exits.
    let checkpointer = (db.is_durable() && args.checkpoint_interval_ms > 0).then(|| {
        Checkpointer::spawn(
            Arc::clone(&db),
            Duration::from_millis(args.checkpoint_interval_ms),
        )
    });
    let server = match serve(Arc::clone(&db), sigma, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.addr());
    if let Some(metrics_addr) = server.metrics_addr() {
        println!("metrics on {metrics_addr}");
    }
    server.wait();
    drop(checkpointer);
    // Graceful shutdown: fold everything into a checkpoint and fsync, so
    // the next boot replays nothing.
    if db.is_durable() {
        match db.checkpoint().and_then(|_| db.flush()) {
            Ok(()) => eprintln!("checkpointed on shutdown"),
            Err(e) => eprintln!("shutdown checkpoint failed: {e}"),
        }
    }
    eprintln!("server stopped");
    ExitCode::SUCCESS
}
