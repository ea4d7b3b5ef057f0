//! The per-connection session state machine.
//!
//! The event loop multiplexes many connections over a fixed pool of
//! threads, so session state (options, prepared statements, the current
//! strategy) lives in an explicit [`SessionState`] struct owned by the
//! connection, and the request logic is split by *where it may run*:
//!
//! * [`handle_control`] — cheap, never-blocking requests (`set`, `stats`,
//!   `ping`, traces, `close_statement`) answered inline on the IO driver
//!   that parsed the request. `stats`/`ping` never queue, so a loaded
//!   server stays observable.
//! * [`run_heavy`] — work that parses/plans/executes (`query`, `prepare`,
//!   `execute`, `script`); it waits in the run queue for a query worker
//!   and runs there, with a pre-created per-query [`CancellationToken`]
//!   the driver fires on disconnect.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use conquer_core::RewriteError;
use conquer_engine::{CancellationToken, EngineError, ExecOptions, Index, Rows};
use conquer_obs::{flight_recorder, Json, QueryTrace, TraceContext, TripSnapshot};

use crate::cache::{CachedStatement, Lookup};
use crate::error::ServeError;
use crate::protocol::{ErrorCode, QueryOutcome, Request, Response, Strategy};
use crate::server::Shared;

/// Wire-protocol version reported in the `Hello` frame.
pub const SERVER_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Everything a connection remembers between requests. One per
/// connection, mutated only by whichever thread is currently processing
/// that connection's single in-flight request (the protocol is strictly
/// request/response, so there is never more than one).
pub(crate) struct SessionState {
    pub id: u64,
    pub options: ExecOptions,
    pub strategy: Strategy,
    /// Prepared statements by id: each is its statement cache key, so the
    /// cache alone holds plans, bounded by its capacity.
    pub statements: HashMap<u64, (String, Strategy)>,
    pub next_statement: u64,
    /// Slow-query log threshold in microseconds (0 = disabled); starts at
    /// the server default, overridable with `SET slow_query_us`.
    pub slow_query_us: u64,
}

impl SessionState {
    pub fn new(shared: &Shared, id: u64) -> SessionState {
        SessionState {
            id,
            options: ExecOptions::default(),
            strategy: Strategy::default(),
            statements: HashMap::new(),
            next_statement: 1,
            slow_query_us: shared.slow_query_us,
        }
    }
}

/// The request class that runs on a query worker, with its inputs resolved
/// against the session (strategy defaults applied) so it can travel there
/// as plain data.
pub(crate) enum HeavyOp {
    Query { sql: String, strategy: Strategy },
    Prepare { sql: String, strategy: Strategy },
    Execute { statement: u64 },
    Script { sql: String },
}

/// Split a parsed request into the class that decides where it runs.
/// `Heavy` ops queue for a query worker; everything else is answered
/// inline.
pub(crate) enum RequestClass {
    Heavy(HeavyOp),
    Control(Request),
}

pub(crate) fn classify(request: Request, state: &SessionState) -> RequestClass {
    match request {
        Request::Query { sql, strategy } => RequestClass::Heavy(HeavyOp::Query {
            sql,
            strategy: strategy.unwrap_or(state.strategy),
        }),
        Request::Prepare { sql, strategy } => RequestClass::Heavy(HeavyOp::Prepare {
            sql,
            strategy: strategy.unwrap_or(state.strategy),
        }),
        Request::Execute { statement } => RequestClass::Heavy(HeavyOp::Execute { statement }),
        Request::Script { sql } => RequestClass::Heavy(HeavyOp::Script { sql }),
        other => RequestClass::Control(other),
    }
}

/// Answer a control request inline. Callers handle the connection-level
/// consequences of `Quit`/`Shutdown` (close after flush, server shutdown)
/// themselves; this only produces the response frame.
pub(crate) fn handle_control(
    shared: &Shared,
    state: &mut SessionState,
    request: &Request,
) -> Response {
    match request {
        Request::Ping | Request::Quit | Request::Shutdown => Response::Ok,
        Request::Set { name, value } => match set_option(state, name, value) {
            Ok(()) => Response::Ok,
            Err(e) => error_response(&e),
        },
        Request::CloseStatement { statement } => {
            if state.statements.remove(statement).is_some() {
                Response::Ok
            } else {
                error_response(&ServeError::UnknownStatement(*statement))
            }
        }
        Request::Stats => Response::Stats(stats_json(shared, state)),
        Request::TraceRecent { limit } => {
            let limit = limit.map_or(64, |n| n.min(1024)) as usize;
            Response::Traces(flight_recorder().to_json(limit))
        }
        Request::TraceGet { query_id } => match flight_recorder().get(*query_id) {
            Some(trace) => Response::Traces(trace.to_json()),
            None => Response::error(
                ErrorCode::Protocol,
                format!("no trace recorded for query id {query_id}"),
            ),
        },
        // Heavy ops never reach here (classify routes them to run_heavy).
        Request::Query { .. }
        | Request::Prepare { .. }
        | Request::Execute { .. }
        | Request::Script { .. } => Response::error(
            ErrorCode::Protocol,
            "internal: heavy request on the control path".to_string(),
        ),
    }
}

/// Run one heavy request to completion and produce its response.
///
/// `token` is the query's cancellation token — the driver holds it as the
/// connection's in-flight token and fires it on disconnect. `queued_at` is
/// when the request entered the run queue; a query's reported time counts
/// from there. `build` is what cache entries are built under: an entry is
/// shared by every session, so it is never the session's `SET` limits —
/// those govern execution only. A query adds its own cancellation token,
/// which never shapes a plan.
pub(crate) fn run_heavy(
    shared: &Shared,
    state: &mut SessionState,
    op: &HeavyOp,
    token: &CancellationToken,
    queued_at: Instant,
    build: &ExecOptions,
) -> Response {
    match op {
        HeavyOp::Query { sql, strategy } => {
            match run_query(shared, state, sql, *strategy, token, queued_at, build) {
                Ok(outcome) => Response::Rows(outcome),
                Err(e) => error_response(&e),
            }
        }
        HeavyOp::Prepare { sql, strategy } => match prepare(shared, state, sql, *strategy, build) {
            Ok(statement) => Response::Prepared { statement },
            Err(e) => error_response(&e),
        },
        HeavyOp::Execute { statement } => {
            let result = match state.statements.get(statement).cloned() {
                Some((sql, strategy)) => {
                    run_query(shared, state, &sql, strategy, token, queued_at, build)
                }
                None => Err(ServeError::UnknownStatement(*statement)),
            };
            match result {
                Ok(outcome) => Response::Rows(outcome),
                Err(e) => error_response(&e),
            }
        }
        HeavyOp::Script { sql } => match shared.db.run_script(sql) {
            Ok(_) => Response::Ok,
            Err(e) => error_response(&ServeError::Engine(e)),
        },
    }
}

fn run_query(
    shared: &Shared,
    state: &mut SessionState,
    sql: &str,
    strategy: Strategy,
    token: &CancellationToken,
    queued_at: Instant,
    build: &ExecOptions,
) -> Result<QueryOutcome, ServeError> {
    let start_unix_ms = unix_ms();
    let trace = TraceContext::new();
    let mut options = state.options.clone();
    options.cancellation = Some(token.clone());
    options.trace = Some(trace.clone());
    let build = ExecOptions {
        cancellation: Some(token.clone()),
        ..build.clone()
    };
    let result = (|| {
        // Installed here (not just via options.trace) so cache-build
        // spans — parse, rewrite, plan, optimize — are captured too.
        let _trace = trace.install();
        let (stmt, lookup) =
            shared
                .cache
                .get_or_build(&shared.db, &shared.sigma, sql, strategy, &build)?;
        let rows = shared
            .db
            .execute_plan_with(&stmt.plan, &options)
            .map_err(ServeError::Engine)?;
        Ok((stmt, rows, lookup))
    })();
    let elapsed_us = queued_at.elapsed().as_micros() as u64;
    finish_query(
        state,
        sql,
        strategy,
        &trace,
        start_unix_ms,
        elapsed_us,
        options.threads,
        &result,
    );
    let (_stmt, rows, lookup) = result?;
    Ok(QueryOutcome {
        rows,
        cached: lookup.is_hit(),
        elapsed_us,
    })
}

/// Preparation plans (and for rewritings, materializes CTEs) into the
/// cache, so it runs on a query worker like any other heavy work. The
/// session keeps only the key: `execute` resolves it through the cache like
/// any query, and reports that lookup as `cached`.
fn prepare(
    shared: &Shared,
    state: &mut SessionState,
    sql: &str,
    strategy: Strategy,
    build: &ExecOptions,
) -> Result<u64, ServeError> {
    shared
        .cache
        .get_or_build(&shared.db, &shared.sigma, sql, strategy, build)?;
    let id = state.next_statement;
    state.next_statement += 1;
    state.statements.insert(id, (sql.to_string(), strategy));
    Ok(id)
}

fn set_option(state: &mut SessionState, name: &str, value: &Json) -> Result<(), ServeError> {
    fn uint(value: &Json) -> Option<u64> {
        match value {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }
    let bad =
        |what: &str| ServeError::Protocol(format!("`set {name}` expects {what}, got {value:?}"));
    match name {
        "threads" => {
            let v = uint(value)
                .filter(|v| (1..=256).contains(v))
                .ok_or_else(|| bad("an integer in 1..=256"))?;
            state.options.threads = v as usize;
        }
        "timeout_ms" => {
            let v = uint(value).ok_or_else(|| bad("a non-negative integer (0 clears)"))?;
            state.options.limits.timeout = (v > 0).then(|| Duration::from_millis(v));
        }
        "mem_limit" => {
            let v = uint(value).ok_or_else(|| bad("a byte count (0 clears)"))?;
            state.options.limits.max_memory_bytes = (v > 0).then_some(v);
        }
        "max_rows" => {
            let v = uint(value).ok_or_else(|| bad("a row count (0 clears)"))?;
            state.options.limits.max_rows = (v > 0).then_some(v);
        }
        "strategy" => {
            let Json::Str(s) = value else {
                return Err(bad("one of original|rewritten|annotated"));
            };
            state.strategy =
                Strategy::parse(s).ok_or_else(|| bad("one of original|rewritten|annotated"))?;
        }
        "slow_query_us" => {
            let v = uint(value).ok_or_else(|| bad("a microsecond threshold (0 disables)"))?;
            state.slow_query_us = v;
        }
        _ => {
            return Err(ServeError::Protocol(format!(
                "unknown session option `{name}` (have threads, timeout_ms, mem_limit, \
                 max_rows, strategy, slow_query_us)"
            )))
        }
    }
    Ok(())
}

/// Close out a finished (or failed) query: global counters, per-phase
/// histograms, the flight-recorder entry, and the slow-query log.
#[allow(clippy::too_many_arguments)]
fn finish_query(
    state: &SessionState,
    sql: &str,
    strategy: Strategy,
    trace: &TraceContext,
    start_unix_ms: u64,
    elapsed_us: u64,
    threads: usize,
    result: &Result<(Arc<CachedStatement>, Rows, Lookup), ServeError>,
) {
    let spans = trace.take_records();
    record_query(elapsed_us);
    let registry = conquer_obs::registry();
    for (name, wall) in conquer_obs::phase_totals(&spans) {
        registry
            .histogram(&format!("serve.phase.{name}.us"))
            .record(wall.as_micros() as u64);
    }
    // A request that failed never got as far as being served from the cache.
    let miss = Lookup::Miss;
    let (status, error, lookup, rows_out, rows_in, est_rows, trip) = match result {
        Ok((stmt, rows, lookup)) => (
            "ok",
            None,
            lookup,
            rows.rows.len() as u64,
            stmt.base_rows,
            Some(stmt.est_rows),
            None,
        ),
        Err(e) => (
            e.code().label(),
            Some(e.to_string()),
            &miss,
            0,
            0,
            None,
            trip_snapshot(e),
        ),
    };
    let worker_spans = spans.iter().filter(|s| s.name == "worker").count() as u64;
    let recorded = flight_recorder().record(QueryTrace {
        query_id: trace.id().value(),
        session: state.id,
        sql_hash: conquer_obs::sql_hash(sql),
        sql: conquer_obs::sql_snippet(sql),
        strategy: strategy.label(),
        status,
        error,
        cached: lookup.is_hit(),
        cache: lookup.label(),
        elapsed_us,
        rows_out,
        rows_in,
        est_rows,
        threads,
        worker_spans,
        start_unix_ms,
        trip,
        spans,
    });
    if status != "ok" {
        registry.counter("serve.queries.error").inc();
    }
    let threshold = state.slow_query_us;
    if threshold > 0 && (elapsed_us >= threshold || status != "ok") {
        registry.counter("serve.slow_query.logged").inc();
        conquer_obs::log_slow_query(&recorded, threshold);
    }
}

fn stats_json(shared: &Shared, state: &SessionState) -> Json {
    let cache = shared.cache.stats();
    Json::obj([
        (
            "server",
            Json::obj([
                ("version", Json::from(SERVER_VERSION)),
                (
                    "active_sessions",
                    Json::UInt(shared.active_sessions() as u64),
                ),
                ("max_sessions", Json::UInt(shared.max_sessions as u64)),
                ("catalog_epoch", Json::UInt(shared.db.catalog_epoch())),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("entries", Json::UInt(cache.entries as u64)),
                ("capacity", Json::UInt(cache.capacity as u64)),
                ("hits", Json::UInt(cache.hits)),
                ("misses", Json::UInt(cache.misses)),
                ("invalidations", Json::UInt(cache.invalidations)),
                (
                    "invalidated_by",
                    Json::Obj(
                        cache
                            .invalidated_by
                            .iter()
                            .map(|(table, n)| (table.clone(), Json::UInt(*n)))
                            .collect(),
                    ),
                ),
                ("evictions", Json::UInt(cache.evictions)),
                ("hit_rate", Json::Float(cache.hit_rate())),
            ]),
        ),
        ("admission", shared.event.admission_json()),
        (
            "session",
            Json::obj([
                ("id", Json::UInt(state.id)),
                ("strategy", Json::from(state.strategy.label())),
                ("threads", Json::UInt(state.options.threads as u64)),
                (
                    "prepared_statements",
                    Json::UInt(state.statements.len() as u64),
                ),
            ]),
        ),
        (
            "storage",
            match shared.db.storage_status() {
                Some(status) => Json::obj([
                    ("durable", Json::Bool(true)),
                    ("generation", Json::UInt(status.generation)),
                    ("last_seq", Json::UInt(status.last_seq)),
                    ("wal_bytes", Json::UInt(status.wal_bytes)),
                    ("wal_unsynced_bytes", Json::UInt(status.wal_unsynced_bytes)),
                    ("segments", Json::UInt(status.segments)),
                ]),
                None => Json::obj([("durable", Json::Bool(false))]),
            },
        ),
        (
            "indexes",
            Json::arr(
                shared
                    .db
                    .index_status()
                    .into_iter()
                    .map(|(table, cols, built)| {
                        // What a built index holds, and the conflict set —
                        // its by-product: reported once built, never built
                        // for a report.
                        let index = built
                            .then(|| shared.db.built_index(&table, &cols))
                            .flatten();
                        let held = |f: fn(&Index) -> Json| index.as_deref().map_or(Json::Null, f);
                        Json::obj([
                            ("table", Json::from(table.as_str())),
                            ("columns", Json::from(cols.join(",").as_str())),
                            ("built", Json::Bool(built)),
                            ("bytes", held(|i| Json::UInt(i.bytes()))),
                            (
                                "distinct_keys",
                                held(|i| Json::UInt(i.distinct_keys() as u64)),
                            ),
                            ("conflicts", held(|i| conflicts_json(i.conflict_summary()))),
                        ])
                    }),
            ),
        ),
        (
            // Rows that crossed the row/column boundary, process-wide:
            // which way, not where — `EXPLAIN ANALYZE` has the operators.
            "pivots",
            Json::obj(["to_rows", "to_cols"].map(|dir| {
                let counter = conquer_obs::registry().counter(&format!("exec.pivot.{dir}"));
                (dir, Json::UInt(counter.get()))
            })),
        ),
        ("obs", conquer_obs::registry().snapshot_json()),
    ])
}

/// A table's observed inconsistency: the `p` and `n` of the paper's §6.1.
fn conflicts_json(c: conquer_engine::ConflictSummary) -> Json {
    Json::obj([
        ("violated_keys", Json::UInt(c.violated_keys)),
        (
            "tuples_in_violated_groups",
            Json::UInt(c.tuples_in_violated_groups),
        ),
        (
            "group_sizes",
            Json::arr(c.group_sizes.into_iter().map(|(size, groups)| {
                Json::obj([("size", Json::UInt(size)), ("groups", Json::UInt(groups))])
            })),
        ),
        ("null_key_rows", Json::UInt(c.null_key_rows)),
    ])
}

pub(crate) fn error_response(e: &ServeError) -> Response {
    Response::Error {
        code: e.code(),
        message: e.to_string(),
    }
}

fn record_query(elapsed_us: u64) {
    let registry = conquer_obs::registry();
    registry.counter("serve.queries").inc();
    registry.histogram("serve.query.us").record(elapsed_us);
}

/// Wall-clock milliseconds since the unix epoch (0 if the clock is before
/// the epoch, which only a badly skewed clock can produce).
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Governor-trip details for the flight recorder, when the failure was a
/// resource-limit trip (directly from execution, or surfaced through a
/// rewrite-time materialization).
fn trip_snapshot(e: &ServeError) -> Option<TripSnapshot> {
    let engine_error = match e {
        ServeError::Engine(e) => e,
        ServeError::Rewrite(RewriteError::Engine(e)) => e,
        _ => return None,
    };
    let (kind, trip) = match engine_error {
        EngineError::Timeout(t) => ("timeout", t),
        EngineError::MemoryExceeded(t) => ("memory", t),
        EngineError::RowLimitExceeded(t) => ("rows", t),
        EngineError::Cancelled(t) => ("cancelled", t),
        _ => return None,
    };
    Some(TripSnapshot {
        kind,
        operator: trip.operator.to_string(),
        elapsed_ms: trip.elapsed_ms,
        rows: trip.rows,
        mem_bytes: trip.mem_bytes,
    })
}
