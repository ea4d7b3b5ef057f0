//! Execution governance: resource limits and cooperative cancellation.
//!
//! A [`Governor`] is created once per query (covering parse → plan →
//! execute, including CTE materialization at plan time) from the
//! [`ResourceLimits`] and optional [`CancellationToken`] carried by
//! [`ExecOptions`](crate::plan::ExecOptions). Physical operators check it
//! cooperatively:
//!
//! * [`Governor::tick`] — called once per row (or per candidate pair) in
//!   every hot loop. It is one relaxed atomic increment; every 256 ticks it
//!   reads the clock and the cancellation flag, so a timeout or a token
//!   trip surfaces within a few hundred rows of work (well inside ~50 ms
//!   for any realistic row width).
//! * [`Governor::emit_row`] / [`Governor::add_rows`] — row-production
//!   accounting. `max_rows` bounds the *cumulative* rows produced by all
//!   operators (output plus intermediates), which is what actually blows up
//!   on a runaway join.
//! * [`Governor::reserve_mem`] — byte-level accounting for operator state:
//!   join hash tables, aggregation group tables, DISTINCT sets,
//!   materialized CTEs, and join output rows. Estimates reuse the same
//!   formulas as the `EXPLAIN ANALYZE` [`NodeStats`](crate::stats::NodeStats)
//!   memory counters; the budget is a cumulative allocation estimate, not a
//!   peak-RSS measurement.
//!
//! All counters are relaxed atomics and the governor is consulted by
//! shared reference, so one `Governor` is safely shared by every worker of
//! a morsel-parallel operator: workers `tick` and `emit_rows` concurrently
//! against the same budget, the first worker whose check trips returns the
//! structured error, and the executor's shared abort flag stops the
//! remaining workers at their next morsel boundary. Budgets are therefore
//! *global* across workers (a query does not get `N×` the memory budget at
//! `N` threads); the only thread-count sensitivity is which worker happens
//! to observe the trip first, never whether a trip occurs.
//!
//! A trip unwinds as one of the structured
//! [`EngineError::{Timeout, MemoryExceeded, RowLimitExceeded, Cancelled}`](crate::error::EngineError)
//! variants carrying a [`LimitTrip`] snapshot (operator, elapsed time, rows
//! and bytes accounted at the moment of the trip), and is recorded as a
//! `limit_trip` span event plus a `governor.trip.<kind>` metrics counter in
//! `conquer-obs`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{EngineError, Result};

/// How often `tick` reads the clock / cancellation flag, in ticks.
const CHECK_EVERY: u64 = 256;

/// Resource budget for one query. `None` fields are unlimited; the default
/// is fully unlimited (the ungoverned fast path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Wall-clock budget from query start (parse time included).
    pub timeout: Option<Duration>,
    /// Cumulative rows produced by all operators (output + intermediates).
    pub max_rows: Option<u64>,
    /// Estimated bytes of operator state (hash tables, group tables,
    /// DISTINCT sets, materialized CTEs, join outputs).
    pub max_memory_bytes: Option<u64>,
}

impl ResourceLimits {
    /// No limits at all (the `Default` value, spelled out).
    pub fn unlimited() -> ResourceLimits {
        ResourceLimits::default()
    }

    /// `true` when every field is `None`.
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none() && self.max_rows.is_none() && self.max_memory_bytes.is_none()
    }

    pub fn with_timeout(mut self, timeout: Duration) -> ResourceLimits {
        self.timeout = Some(timeout);
        self
    }

    pub fn with_max_rows(mut self, max_rows: u64) -> ResourceLimits {
        self.max_rows = Some(max_rows);
        self
    }

    pub fn with_max_memory_bytes(mut self, bytes: u64) -> ResourceLimits {
        self.max_memory_bytes = Some(bytes);
        self
    }
}

/// A shareable cancellation flag. Clone it, hand a copy to another thread,
/// and call [`CancellationToken::cancel`] to stop a running query: the
/// executor notices at its next cooperative check and unwinds with
/// [`EngineError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    pub fn new() -> CancellationToken {
        CancellationToken::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// What kind of limit tripped (for the metrics counter name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TripKind {
    Timeout,
    Memory,
    Rows,
    Cancelled,
}

impl TripKind {
    fn name(self) -> &'static str {
        match self {
            TripKind::Timeout => "timeout",
            TripKind::Memory => "memory",
            TripKind::Rows => "rows",
            TripKind::Cancelled => "cancelled",
        }
    }
}

/// Snapshot of governor state at the moment a limit tripped, carried inside
/// the corresponding [`EngineError`] variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LimitTrip {
    /// The operator whose cooperative check tripped (e.g. `"hash_join"`,
    /// `"cte.materialize"`).
    pub operator: &'static str,
    /// Wall-clock milliseconds since the governor was created.
    pub elapsed_ms: u64,
    /// Cumulative rows accounted when the trip fired.
    pub rows: u64,
    /// Cumulative estimated bytes reserved when the trip fired.
    pub mem_bytes: u64,
}

impl std::fmt::Display for LimitTrip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "at operator `{}` after {} ms ({} rows, ~{} bytes)",
            self.operator, self.elapsed_ms, self.rows, self.mem_bytes
        )
    }
}

/// Per-query governance state. Shared by reference through the executor and
/// the expression evaluator's [`Env`](crate::expr::Env) chain (so correlated
/// subqueries are governed too); all counters are atomics, making the
/// governor safe to consult from the thread running the query while another
/// thread cancels the token.
#[derive(Debug)]
pub struct Governor {
    limits: ResourceLimits,
    token: Option<CancellationToken>,
    started: Instant,
    deadline: Option<Instant>,
    /// Cooperative-check tick counter (rows / candidate pairs visited).
    work: AtomicU64,
    /// Cumulative rows produced by all operators.
    rows: AtomicU64,
    /// Cumulative estimated bytes of operator state.
    mem: AtomicU64,
}

impl Governor {
    pub fn new(limits: ResourceLimits, token: Option<CancellationToken>) -> Governor {
        let started = Instant::now();
        Governor {
            deadline: limits.timeout.map(|t| started + t),
            limits,
            token,
            started,
            work: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            mem: AtomicU64::new(0),
        }
    }

    /// Build a governor for the given options, or `None` when the options
    /// carry no limits and no token — the ungoverned fast path costs
    /// nothing per row.
    pub fn for_options(options: &crate::plan::ExecOptions) -> Option<Governor> {
        if options.limits.is_unlimited() && options.cancellation.is_none() {
            return None;
        }
        Some(Governor::new(options.limits, options.cancellation.clone()))
    }

    /// Rows accounted so far.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Estimated bytes reserved so far.
    pub fn mem_bytes(&self) -> u64 {
        self.mem.load(Ordering::Relaxed)
    }

    /// Bytes the memory budget has left, or `None` without a budget.
    pub fn mem_room(&self) -> Option<u64> {
        self.limits
            .max_memory_bytes
            .map(|max| max.saturating_sub(self.mem_bytes()))
    }

    /// Wall time since the governor was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// One unit of work in a hot loop. Cheap (a relaxed increment); every
    /// [`CHECK_EVERY`] ticks it performs the full timeout/cancellation
    /// check.
    #[inline]
    pub fn tick(&self, op: &'static str) -> Result<()> {
        let n = self.work.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(CHECK_EVERY) {
            self.check_now(op)?;
        }
        Ok(())
    }

    /// Bulk equivalent of [`tick`](Governor::tick) for vectorized kernels:
    /// account `n` units of work in one relaxed add and run the full check
    /// whenever the counter crosses a [`CHECK_EVERY`] boundary. A kernel
    /// that processes a whole morsel in a tight loop calls this once per
    /// morsel instead of once per row, with the same cancellation
    /// granularity the row path gets (morsels are ≤ 1024 rows, a few
    /// multiples of the check interval).
    #[inline]
    pub fn ticks(&self, n: u64, op: &'static str) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let before = self.work.fetch_add(n, Ordering::Relaxed);
        if before / CHECK_EVERY != before.saturating_add(n) / CHECK_EVERY {
            self.check_now(op)?;
        }
        Ok(())
    }

    /// Immediate timeout + cancellation check (used at operator entry and
    /// by `tick` on its check interval).
    pub fn check_now(&self, op: &'static str) -> Result<()> {
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                return Err(self.trip(TripKind::Cancelled, op));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.trip(TripKind::Timeout, op));
            }
        }
        Ok(())
    }

    /// Account `n` produced rows and fail if the row budget is exhausted.
    pub fn add_rows(&self, n: u64, op: &'static str) -> Result<()> {
        let total = self.rows.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        if let Some(max) = self.limits.max_rows {
            if total > max {
                return Err(self.trip(TripKind::Rows, op));
            }
        }
        Ok(())
    }

    /// Reserve `bytes` of estimated operator-state memory and fail if the
    /// budget is exhausted. The accounting is cumulative (never released):
    /// a budget, not an allocator measurement.
    pub fn reserve_mem(&self, bytes: u64, op: &'static str) -> Result<()> {
        let total = self
            .mem
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        if let Some(max) = self.limits.max_memory_bytes {
            if total > max {
                return Err(self.trip(TripKind::Memory, op));
            }
        }
        Ok(())
    }

    /// Account one emitted row of `bytes` estimated size — the per-emission
    /// check used inside join loops, where output can blow up well past the
    /// input sizes.
    #[inline]
    pub fn emit_row(&self, bytes: u64, op: &'static str) -> Result<()> {
        self.emit_rows(1, bytes, op)
    }

    /// Account `n` emitted rows of `bytes_per_row` estimated size each
    /// (joins use this both per emission and for bulk pass-throughs).
    #[inline]
    pub fn emit_rows(&self, n: u64, bytes_per_row: u64, op: &'static str) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        self.add_rows(n, op)?;
        if bytes_per_row > 0 {
            self.reserve_mem(n.saturating_mul(bytes_per_row), op)?;
        }
        Ok(())
    }

    /// Build the structured error for a trip, recording a `limit_trip` span
    /// event and bumping the matching metrics counter.
    fn trip(&self, kind: TripKind, op: &'static str) -> EngineError {
        let snapshot = LimitTrip {
            operator: op,
            elapsed_ms: self.started.elapsed().as_millis() as u64,
            rows: self.rows.load(Ordering::Relaxed),
            mem_bytes: self.mem.load(Ordering::Relaxed),
        };
        {
            // A zero-length span acts as a structured event in the trace.
            let _event = conquer_obs::span("limit_trip")
                .field("kind", kind.name())
                .field("operator", op)
                .field("elapsed_ms", snapshot.elapsed_ms)
                .field("rows", snapshot.rows)
                .field("mem_bytes", snapshot.mem_bytes);
        }
        conquer_obs::registry().counter("governor.trips").inc();
        conquer_obs::registry()
            .counter(match kind {
                TripKind::Timeout => "governor.trip.timeout",
                TripKind::Memory => "governor.trip.memory",
                TripKind::Rows => "governor.trip.rows",
                TripKind::Cancelled => "governor.trip.cancelled",
            })
            .inc();
        match kind {
            TripKind::Timeout => EngineError::Timeout(snapshot),
            TripKind::Memory => EngineError::MemoryExceeded(snapshot),
            TripKind::Rows => EngineError::RowLimitExceeded(snapshot),
            TripKind::Cancelled => EngineError::Cancelled(snapshot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_options_build_no_governor() {
        let options = crate::plan::ExecOptions::default();
        assert!(Governor::for_options(&options).is_none());
    }

    #[test]
    fn row_limit_trips_with_snapshot() {
        let gov = Governor::new(ResourceLimits::default().with_max_rows(10), None);
        assert!(gov.add_rows(10, "scan").is_ok());
        let err = gov.add_rows(1, "scan").unwrap_err();
        match err {
            EngineError::RowLimitExceeded(trip) => {
                assert_eq!(trip.operator, "scan");
                assert_eq!(trip.rows, 11);
            }
            other => panic!("expected RowLimitExceeded, got {other:?}"),
        }
    }

    #[test]
    fn memory_limit_trips() {
        let gov = Governor::new(ResourceLimits::default().with_max_memory_bytes(100), None);
        assert!(gov.reserve_mem(100, "hash_join").is_ok());
        assert!(matches!(
            gov.reserve_mem(1, "hash_join"),
            Err(EngineError::MemoryExceeded(_))
        ));
    }

    #[test]
    fn zero_timeout_trips_immediately() {
        let gov = Governor::new(ResourceLimits::default().with_timeout(Duration::ZERO), None);
        assert!(matches!(
            gov.check_now("filter"),
            Err(EngineError::Timeout(_))
        ));
    }

    #[test]
    fn cancellation_is_visible_across_clones() {
        let token = CancellationToken::new();
        let gov = Governor::new(ResourceLimits::default(), Some(token.clone()));
        assert!(gov.check_now("scan").is_ok());
        token.clone().cancel();
        assert!(matches!(
            gov.check_now("scan"),
            Err(EngineError::Cancelled(_))
        ));
    }

    #[test]
    fn concurrent_accounting_is_exact_and_trips_once_tripped() {
        // Eight threads hammer the same governor; the total must be the
        // exact sum of their contributions (no lost updates) and every
        // thread must observe the row budget as tripped once it is.
        let gov = Governor::new(ResourceLimits::default().with_max_rows(100_000), None);
        let errors: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let mut errs = 0;
                        for _ in 0..20_000 {
                            let _ = gov.tick("agg");
                            if gov.add_rows(1, "agg").is_err() {
                                errs += 1;
                            }
                        }
                        errs
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // 160k rows accounted against a 100k budget: every row is counted
        // exactly once, so exactly 60k of the add_rows calls failed.
        assert_eq!(gov.rows(), 160_000);
        assert_eq!(errors.iter().sum::<usize>(), 60_000);
        // Once over budget the governor stays tripped for everyone.
        assert!(matches!(
            gov.add_rows(1, "agg"),
            Err(EngineError::RowLimitExceeded(_))
        ));
    }

    #[test]
    fn concurrent_cancellation_reaches_all_workers() {
        let token = CancellationToken::new();
        let gov = Governor::new(ResourceLimits::default(), Some(token.clone()));
        let start = std::sync::Barrier::new(5);
        let cancelled_everywhere = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        // Spin until the cooperative check observes the
                        // token; CHECK_EVERY bounds the latency in ticks.
                        for _ in 0..1_000_000 {
                            if gov.tick("scan").is_err() {
                                return true;
                            }
                        }
                        false
                    })
                })
                .collect();
            token.cancel();
            start.wait();
            handles.into_iter().all(|h| h.join().unwrap())
        });
        assert!(cancelled_everywhere);
    }

    #[test]
    fn tick_checks_on_interval() {
        let token = CancellationToken::new();
        let gov = Governor::new(ResourceLimits::default(), Some(token.clone()));
        token.cancel();
        // The first tick (work == 0) performs the check immediately.
        assert!(gov.tick("scan").is_err());
    }
}
