//! Plan executor: materialized, operator-at-a-time evaluation.
//!
//! Operators exchange [`Batch`]es: either freshly-computed owned rows or a
//! shared reference to pre-materialized rows (base-table scans and
//! materialized CTEs). Read-only consumers — join build/probe sides,
//! aggregation inputs, filters — iterate shared batches without copying
//! them, so a scan feeding a join never clones the whole table.
//!
//! Every operator is governed: hot loops call [`Governor::tick`]
//! cooperatively, joins account each emitted row ([`Governor::emit_row`]),
//! hash tables / group tables / distinct sets reserve their estimated
//! footprint, and non-join operators batch-commit their output row counts.
//! Row and memory accounting is therefore *cumulative over intermediate
//! results* (a budget on total work), not an instantaneous peak.
//!
//! # Morsel-parallel execution
//!
//! When [`ExecOptions::threads`](crate::plan::ExecOptions) is above 1, the
//! row-at-a-time operator loops run *morsel-parallel* on scoped std
//! threads ([`std::thread::scope`] + atomics; no external crates): inputs
//! are split into fixed-size morsels ([`MORSEL_ROWS`] rows), workers claim
//! morsels from a shared atomic cursor, and per-morsel outputs are
//! reassembled in morsel order, so every operator reproduces the serial
//! processing order exactly. Hash joins partition the build side by key
//! hash into one table per worker and route probe lookups to the matching
//! partition; aggregation and DISTINCT over columnar input hash-partition
//! the *groups* across workers ([`crate::groupkey`]: nothing to merge,
//! groups come out ordered by first row), and over row-shaped input build
//! per-worker partial tables that are merged with SQL
//! NULL/three-valued-logic semantics preserved;
//! ORDER BY sorts per-worker runs and k-way merges them with the global
//! row index as tie-break, reproducing the serial stable sort. Float
//! SUM/AVG accumulate in an exact superaccumulator ([`crate::fsum`]), so
//! aggregates are bit-identical to serial at every thread count — there is
//! no floating-point divergence between the parallel and serial paths.
//!
//! The [`Governor`] is shared by all workers (its counters are atomics):
//! every worker loop calls `tick`, and the first trip or error aborts the
//! remaining workers at their next morsel boundary. When several workers
//! fail, the error from the lowest-numbered morsel wins, keeping failures
//! deterministic. Correlated subqueries evaluated inside worker loops stay
//! serial (no nested fan-out). Operators fall back to the serial path for
//! inputs under [`PAR_THRESHOLD`] rows, so small queries pay nothing.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::mem;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::col::{self, ColBatch, ColumnChunk, ColumnData};
use crate::error::{EngineError, Result};
use crate::expr::{BoundExpr, Env};
use crate::faults;
use crate::fsum::ExactSum;
use crate::governor::Governor;
use crate::groupkey::{AggInput, KeyCols, Partition};
use crate::kernels;
use crate::plan::{AggFunc, AggSpec, JoinType, Plan};
use crate::schema::Schema;
use crate::stats::NodeStats;
use crate::table::{Row, Rows};
use crate::value::{Key, KeyValue, Value};

/// An operator's output: owned rows, or a shared column batch plus the
/// schema it is viewed under (scans re-qualify the stored schema per
/// binding). Columnar operators hand batches down without pivoting; the
/// row view pivots lazily, once, through the batch's cache.
pub enum Batch {
    Owned(Rows),
    Col { cols: Arc<ColBatch>, schema: Schema },
}

impl Batch {
    pub fn schema(&self) -> &Schema {
        match self {
            Batch::Owned(r) => &r.schema,
            Batch::Col { schema, .. } => schema,
        }
    }

    /// Row view of the batch. For a columnar batch this pivots once into
    /// the batch's cached row vector (subsequent calls are free); the
    /// row-at-a-time operators consume batches through it.
    pub fn rows(&self) -> &[Row] {
        match self {
            Batch::Owned(r) => &r.rows,
            Batch::Col { cols, .. } => cols.rows(),
        }
    }

    /// The columnar view, when this batch is columnar.
    pub fn cols(&self) -> Option<&ColBatch> {
        match self {
            Batch::Owned(_) => None,
            Batch::Col { cols, .. } => Some(cols),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Batch::Owned(r) => r.rows.len(),
            Batch::Col { cols, .. } => cols.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Convert into owned rows, pivoting (or stealing the pivot cache)
    /// when columnar.
    pub fn into_rows(self) -> Rows {
        match self {
            Batch::Owned(r) => r,
            Batch::Col { cols, schema } => {
                let rows = match Arc::try_unwrap(cols) {
                    Ok(batch) => batch.into_rows(),
                    Err(shared) => shared.rows().to_vec(),
                };
                Rows { schema, rows }
            }
        }
    }

    /// Convert into `(schema, shared column batch)`, pivoting row-shaped
    /// output into fresh columns (CTE materialization adopts columnar
    /// operator output as-is).
    pub fn into_schema_cols(self) -> (Schema, Arc<ColBatch>) {
        match self {
            Batch::Col { cols, schema } => (schema, cols),
            Batch::Owned(r) => {
                let Rows { schema, rows } = r;
                let cols = ColBatch::from_rows(&schema, rows);
                (schema, Arc::new(cols))
            }
        }
    }
}

/// Shared execution context: the resource governor (if any), the
/// worker-thread budget for morsel-parallel operators, and whether the
/// vectorized columnar kernels may be used (`false` forces every operator
/// onto the row-at-a-time reference path).
#[derive(Clone, Copy)]
struct ExecCtx<'g> {
    gov: Option<&'g Governor>,
    threads: usize,
    columnar: bool,
}

/// Execute a plan to fully-owned rows. `outer` is the enclosing row
/// environment for correlated subquery plans; `None` at the top level. The
/// governor, if any, is inherited from `outer` — correlated subqueries stay
/// under the enclosing query's budget. Always serial: per-row subqueries
/// must not fan out nested thread pools.
pub fn execute(plan: &Plan, outer: Option<&Env<'_>>) -> Result<Rows> {
    let gov = outer.and_then(|e| e.gov);
    // Correlated subqueries inherit the enclosing query's row/columnar
    // mode, so a row-mode differential run stays row-mode all the way down.
    let columnar = outer.is_none_or(|e| e.columnar);
    let ctx = ExecCtx {
        gov,
        threads: 1,
        columnar,
    };
    Ok(execute_ctx(plan, outer, None, ctx)?.into_rows())
}

/// Execute a plan to fully-owned rows under an explicit resource governor
/// (serial).
pub fn execute_governed(
    plan: &Plan,
    outer: Option<&Env<'_>>,
    gov: Option<&Governor>,
) -> Result<Rows> {
    execute_governed_threads(plan, outer, gov, 1)
}

/// Execute a plan to fully-owned rows with up to `threads` morsel-parallel
/// workers. `threads <= 1` is exactly the serial path.
pub fn execute_governed_threads(
    plan: &Plan,
    outer: Option<&Env<'_>>,
    gov: Option<&Governor>,
    threads: usize,
) -> Result<Rows> {
    Ok(execute_columnar_threads(plan, outer, gov, threads, true)?.into_rows())
}

/// Execute a plan to a [`Batch`] with explicit thread and columnar-kernel
/// settings — the entry point `Database` query execution and CTE
/// materialization use (the latter adopts a columnar output batch without
/// pivoting).
pub fn execute_columnar_threads(
    plan: &Plan,
    outer: Option<&Env<'_>>,
    gov: Option<&Governor>,
    threads: usize,
    columnar: bool,
) -> Result<Batch> {
    let ctx = ExecCtx {
        gov,
        threads: threads.max(1),
        columnar,
    };
    execute_ctx(plan, outer, None, ctx)
}

/// Execute a plan, sharing pre-materialized rows where possible (serial).
pub fn execute_batch(plan: &Plan, outer: Option<&Env<'_>>) -> Result<Batch> {
    let gov = outer.and_then(|e| e.gov);
    execute_batch_stats(plan, outer, None, gov)
}

/// Execute a plan, additionally collecting per-operator runtime stats into
/// a [`NodeStats`] tree shaped like the plan (`EXPLAIN ANALYZE`; serial).
pub fn execute_traced(
    plan: &Plan,
    outer: Option<&Env<'_>>,
    gov: Option<&Governor>,
) -> Result<(Rows, NodeStats)> {
    execute_traced_threads(plan, outer, gov, 1, true)
}

/// [`execute_traced`] with up to `threads` morsel-parallel workers.
/// Per-worker counters are merged into the single stats node of each
/// operator, so the tree keeps the serial shape; `threads_used` records
/// the widest fan-out of each operator.
pub fn execute_traced_threads(
    plan: &Plan,
    outer: Option<&Env<'_>>,
    gov: Option<&Governor>,
    threads: usize,
    columnar: bool,
) -> Result<(Rows, NodeStats)> {
    let mut stats = NodeStats::for_plan(plan);
    let ctx = ExecCtx {
        gov,
        threads: threads.max(1),
        columnar,
    };
    let rows = execute_ctx(plan, outer, Some(&mut stats), ctx)?.into_rows();
    Ok((rows, stats))
}

/// Rough footprint of a materialized row set (used when reserving memory
/// for CTEs and join outputs).
pub fn rows_bytes(rows: &Rows) -> u64 {
    est_row_bytes(&rows.schema) * rows.rows.len() as u64
}

/// Estimated bytes for one row under `schema`, grounded in the columnar
/// batch layout ([`col::batch_row_bytes`]): fixed-width payloads per
/// column type, amortized dictionary bytes per `TEXT` column, and the
/// per-row share of the validity bitmaps. The same formula feeds the
/// governor's memory budget and the `est_mem_bytes` column of
/// `EXPLAIN ANALYZE`.
fn est_row_bytes(schema: &Schema) -> u64 {
    col::batch_row_bytes(schema) as u64
}

/// Execute a plan, filling `stats` (when present) for this operator and
/// everything below it. `stats` must mirror the plan's shape — build it
/// with [`NodeStats::for_plan`]. Serial entry point, kept for callers that
/// manage their own stats tree.
pub fn execute_batch_stats(
    plan: &Plan,
    outer: Option<&Env<'_>>,
    stats: Option<&mut NodeStats>,
    gov: Option<&Governor>,
) -> Result<Batch> {
    execute_ctx(
        plan,
        outer,
        stats,
        ExecCtx {
            gov,
            threads: 1,
            columnar: true,
        },
    )
}

/// The recursive executor: times the operator, runs it, and commits its
/// output rows to the governor.
fn execute_ctx(
    plan: &Plan,
    outer: Option<&Env<'_>>,
    mut stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Batch> {
    if let Some(g) = ctx.gov {
        g.check_now(op_name(plan))?;
    }
    let start = stats.as_ref().map(|_| Instant::now());
    let result = exec_node(plan, outer, &mut stats, ctx);
    if let (Some(s), Some(t)) = (stats, start) {
        s.invocations += 1;
        s.wall += t.elapsed();
        if let Ok(batch) = &result {
            s.rows_out += batch.len() as u64;
        }
    }
    // Joins already accounted each emitted row; everything else commits its
    // output batch here, so the row budget bounds cumulative intermediate
    // results no matter which operator inflates them.
    if let (Some(g), Ok(batch)) = (ctx.gov, &result) {
        if !matches!(plan, Plan::HashJoin { .. } | Plan::NestedLoopJoin { .. }) {
            g.add_rows(batch.len() as u64, op_name(plan))?;
        }
    }
    result
}

/// Stable operator name used in limit-trip reports and span events.
fn op_name(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan { .. } => "scan",
        Plan::IndexScan { .. } => "index_scan",
        Plan::Unit => "unit",
        Plan::Filter { .. } => "filter",
        Plan::Project { .. } => "project",
        Plan::Rename { .. } => "rename",
        Plan::HashJoin { .. } => "hash_join",
        Plan::NestedLoopJoin { .. } => "nested_loop_join",
        Plan::Aggregate { .. } => "aggregate",
        Plan::Distinct { .. } => "distinct",
        Plan::UnionAll { .. } => "union_all",
        Plan::Sort { .. } => "sort",
        Plan::Limit { .. } => "limit",
    }
}

/// Cooperative cancellation/timeout check for hot loops; free when
/// ungoverned.
#[inline]
fn tick(gov: Option<&Governor>, op: &'static str) -> Result<()> {
    match gov {
        Some(g) => g.tick(op),
        None => Ok(()),
    }
}

/// Bulk [`tick`] for vectorized kernels: one governor call per morsel
/// instead of one per row.
#[inline]
fn ticks(gov: Option<&Governor>, n: u64, op: &'static str) -> Result<()> {
    match gov {
        Some(g) => g.ticks(n, op),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Morsel-parallel primitives
// ---------------------------------------------------------------------------

/// Rows per morsel: large enough to amortize the atomic cursor claim,
/// small enough that work stealing balances skewed operators.
const MORSEL_ROWS: usize = 1024;

/// Inputs below this many rows run serially even when `threads > 1`: the
/// thread-spawn cost outweighs any parallel win on small batches.
const PAR_THRESHOLD: usize = 4 * MORSEL_ROWS;

/// Effective worker count for an operator over `n` input rows: 1 (serial)
/// for small inputs or a serial context, otherwise capped by the morsel
/// count so no worker is spawned without work.
fn par_workers(n: usize, threads: usize) -> usize {
    if threads <= 1 || n < PAR_THRESHOLD {
        1
    } else {
        threads.min(n.div_ceil(MORSEL_ROWS))
    }
}

/// A worker error tagged with the morsel it occurred in, so the coordinator
/// can pick a deterministic winner when several workers fail at once.
struct MorselError {
    morsel: usize,
    error: EngineError,
}

/// Map an unwound worker into a structured error. Workers are panic-free
/// by policy (`deny(unwrap_used)`), so this is defense in depth.
fn join_worker<T>(res: std::thread::Result<T>) -> Result<T> {
    res.map_err(|_| EngineError::Execution("parallel worker panicked".into()))
}

/// Of all worker failures, return the one from the lowest-numbered morsel:
/// the failure the serial path would have hit first.
fn first_error(errors: Vec<MorselError>) -> Option<EngineError> {
    errors.into_iter().min_by_key(|e| e.morsel).map(|e| e.error)
}

/// Run `f` once per morsel of `0..n` on `workers` scoped threads and
/// return the per-morsel results *in morsel order* — callers that
/// concatenate them observe exactly the serial processing order. Workers
/// claim morsels from a shared atomic cursor (dynamic work stealing); the
/// first error flips an abort flag that stops the other workers at their
/// next morsel boundary, and the error from the lowest morsel wins.
fn parallel_morsels<T, F>(n: usize, workers: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> Result<T> + Sync,
{
    type WorkerOut<T> = (Vec<(usize, T)>, Option<MorselError>);
    let morsels = n.div_ceil(MORSEL_ROWS);
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // Workers adopt the spawning thread's trace so their spans land in the
    // query's collectors (a no-op when nothing is being traced).
    let trace = conquer_obs::current_trace();
    let worker_results: Vec<WorkerOut<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let trace = &trace;
                let cursor = &cursor;
                let abort = &abort;
                let f = &f;
                scope.spawn(move || {
                    let _trace = trace.adopt_worker(w);
                    let mut out: Vec<(usize, T)> = Vec::new();
                    let mut failed = None;
                    while !abort.load(Ordering::Relaxed) {
                        let m = cursor.fetch_add(1, Ordering::Relaxed);
                        if m >= morsels {
                            break;
                        }
                        let lo = m * MORSEL_ROWS;
                        let hi = n.min(lo + MORSEL_ROWS);
                        match f(m, lo..hi) {
                            Ok(t) => out.push((m, t)),
                            Err(error) => {
                                abort.store(true, Ordering::Relaxed);
                                failed = Some(MorselError { morsel: m, error });
                                break;
                            }
                        }
                    }
                    (out, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| join_worker(h.join()))
            .collect::<Result<Vec<_>>>()
    })?;

    let mut errors = Vec::new();
    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(morsels);
    for (out, failed) in worker_results {
        tagged.extend(out);
        errors.extend(failed);
    }
    if let Some(e) = first_error(errors) {
        return Err(e);
    }
    tagged.sort_unstable_by_key(|(m, _)| *m);
    Ok(tagged.into_iter().map(|(_, t)| t).collect())
}

/// Like [`parallel_morsels`], but each *worker* carries one accumulator
/// across all the morsels it claims (per-worker partial hash tables for
/// aggregation/DISTINCT). Returns the per-worker accumulators in no
/// particular order — the fold must be merge-order-insensitive, which the
/// callers guarantee by tracking global first-seen row indexes.
fn parallel_fold<T, I, F>(n: usize, workers: usize, init: I, step: F) -> Result<Vec<T>>
where
    T: Send,
    I: Fn() -> T + Sync,
    F: Fn(&mut T, Range<usize>) -> Result<()> + Sync,
{
    let morsels = n.div_ceil(MORSEL_ROWS);
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let trace = conquer_obs::current_trace();
    let worker_results: Vec<(T, Option<MorselError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let trace = &trace;
                let cursor = &cursor;
                let abort = &abort;
                let init = &init;
                let step = &step;
                scope.spawn(move || {
                    let _trace = trace.adopt_worker(w);
                    let mut acc = init();
                    let mut failed = None;
                    while !abort.load(Ordering::Relaxed) {
                        let m = cursor.fetch_add(1, Ordering::Relaxed);
                        if m >= morsels {
                            break;
                        }
                        let lo = m * MORSEL_ROWS;
                        let hi = n.min(lo + MORSEL_ROWS);
                        if let Err(error) = step(&mut acc, lo..hi) {
                            abort.store(true, Ordering::Relaxed);
                            failed = Some(MorselError { morsel: m, error });
                            break;
                        }
                    }
                    (acc, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| join_worker(h.join()))
            .collect::<Result<Vec<_>>>()
    })?;

    let mut errors = Vec::new();
    let mut accs = Vec::with_capacity(workers);
    for (acc, failed) in worker_results {
        accs.push(acc);
        errors.extend(failed);
    }
    if let Some(e) = first_error(errors) {
        return Err(e);
    }
    Ok(accs)
}

/// Run one independent task per element of `inputs` on scoped threads
/// (hash-join partition builds, per-run sorts). Task index is the
/// deterministic error tie-break.
fn parallel_tasks<T, U, F>(inputs: Vec<T>, f: F) -> Result<Vec<U>>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> Result<U> + Sync,
{
    let trace = conquer_obs::current_trace();
    let results: Vec<(usize, Result<U>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| {
                let f = &f;
                let trace = &trace;
                scope.spawn(move || {
                    let _trace = trace.adopt_worker(i);
                    (i, f(i, input))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| join_worker(h.join()))
            .collect::<Result<Vec<_>>>()
    })?;
    let mut errors = Vec::new();
    let mut out: Vec<(usize, U)> = Vec::with_capacity(results.len());
    for (i, res) in results {
        match res {
            Ok(u) => out.push((i, u)),
            Err(error) => errors.push(MorselError { morsel: i, error }),
        }
    }
    if let Some(e) = first_error(errors) {
        return Err(e);
    }
    out.sort_unstable_by_key(|(i, _)| *i);
    Ok(out.into_iter().map(|(_, u)| u).collect())
}

/// Record the fan-out an operator ran with.
fn note_threads(stats: &mut Option<&mut NodeStats>, workers: usize) {
    if let Some(s) = stats.as_deref_mut() {
        s.threads_used = s.threads_used.max(workers as u64);
    }
}

/// The untimed operator dispatch. Children are executed through
/// [`execute_ctx`] with the matching child stats node, so timing nests
/// correctly; operator-internal counters are filled in by the `exec_*`
/// helpers. Fault points (`faults::trip`) sit at operator entry on the
/// coordinating thread, so an armed fault fires identically at any thread
/// count (the schedule is thread-local).
fn exec_node(
    plan: &Plan,
    outer: Option<&Env<'_>>,
    stats: &mut Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Batch> {
    let gov = ctx.gov;
    match plan {
        Plan::Scan { cols, schema } => {
            faults::trip("scan")?;
            Ok(Batch::Col {
                cols: Arc::clone(cols),
                schema: schema.clone(),
            })
        }
        Plan::IndexScan {
            cols,
            schema,
            index,
            access,
        } => {
            // An index scan is still a scan for fault purposes: the same
            // point fires whichever access path the optimizer picked.
            faults::trip("scan")?;
            let sel = index.select(access);
            conquer_obs::registry().counter("index.probe").inc();
            ticks(gov, sel.len() as u64, "index_scan")?;
            Ok(Batch::Col {
                cols: Arc::new(cols.gather(&sel)),
                schema: schema.clone(),
            })
        }
        Plan::Unit => Ok(Batch::Owned(Rows {
            schema: plan.schema().clone(),
            rows: vec![Vec::new()],
        })),
        Plan::Filter { input, predicate } => {
            faults::trip("filter")?;
            let child = execute_ctx(input, outer, child_stats(stats, 0), ctx)?;
            // Kernel path: compile the predicate against the child's column
            // layout, evaluate it morsel-at-a-time into selection vectors,
            // and gather the passing rows into a fresh columnar batch — the
            // output stays columnar for the operators above. Predicates the
            // compiler rejects (subqueries, outer references, arithmetic,
            // demoted columns) fall through to the row loop below.
            if ctx.columnar {
                if let Batch::Col { cols, schema } = &child {
                    if let Some(pred) = kernels::compile_predicate(predicate, cols) {
                        let n = cols.len();
                        let workers = par_workers(n, ctx.threads);
                        note_threads(stats, workers);
                        let sel: Vec<u32> = if workers == 1 {
                            ticks(gov, n as u64, "filter")?;
                            let mut sel = Vec::new();
                            pred.select_into(cols, 0..n, &mut sel)?;
                            sel
                        } else {
                            parallel_morsels(n, workers, |_, range| {
                                ticks(gov, range.len() as u64, "filter")?;
                                let mut sel = Vec::new();
                                pred.select_into(cols, range, &mut sel)?;
                                Ok(sel)
                            })?
                            .concat()
                        };
                        return Ok(Batch::Col {
                            cols: Arc::new(cols.gather(&sel)),
                            schema: schema.clone(),
                        });
                    }
                }
            }
            let rows = child.rows();
            let workers = par_workers(rows.len(), ctx.threads);
            note_threads(stats, workers);
            let filter_morsel = |range: Range<usize>| -> Result<Vec<Row>> {
                let mut out = Vec::new();
                for row in &rows[range] {
                    tick(gov, "filter")?;
                    if eval_predicate_on_row(predicate, row, outer, ctx)? == Some(true) {
                        out.push(row.clone());
                    }
                }
                Ok(out)
            };
            let out = if workers == 1 {
                filter_morsel(0..rows.len())?
            } else {
                concat_rows(parallel_morsels(rows.len(), workers, |_, range| {
                    filter_morsel(range)
                })?)
            };
            Ok(Batch::Owned(Rows {
                schema: child.schema().clone(),
                rows: out,
            }))
        }
        Plan::Project {
            input,
            exprs,
            schema,
        } => {
            faults::trip("project")?;
            let child = execute_ctx(input, outer, child_stats(stats, 0), ctx)?;
            // Kernel path: a compiled projection shares the chunks of plain
            // column picks (no copy) and computes the rest column at a
            // time. A value-level error surfaces as `None`: the attempt is
            // dropped and the row loop below replays it.
            if ctx.columnar {
                if let Batch::Col { cols, .. } = &child {
                    if let Some(projection) = kernels::compile_projection(exprs, cols) {
                        ticks(gov, cols.len() as u64, "project")?;
                        if let Some(chunks) = projection.eval(cols) {
                            return Ok(Batch::Col {
                                cols: Arc::new(ColBatch::from_chunks(cols.len(), chunks)),
                                schema: schema.clone(),
                            });
                        }
                    }
                }
            }
            let rows = child.rows();
            let workers = par_workers(rows.len(), ctx.threads);
            note_threads(stats, workers);
            let project_morsel = |range: Range<usize>| -> Result<Vec<Row>> {
                let mut out = Vec::with_capacity(range.len());
                for row in &rows[range] {
                    tick(gov, "project")?;
                    out.push(project_row(row, exprs, outer, ctx)?);
                }
                Ok(out)
            };
            let out = if workers == 1 {
                project_morsel(0..rows.len())?
            } else {
                concat_rows(parallel_morsels(rows.len(), workers, |_, range| {
                    project_morsel(range)
                })?)
            };
            Ok(Batch::Owned(Rows {
                schema: schema.clone(),
                rows: out,
            }))
        }
        Plan::Rename { input, schema } => {
            faults::trip("rename")?;
            let child = execute_ctx(input, outer, child_stats(stats, 0), ctx)?;
            Ok(match child {
                Batch::Owned(r) => Batch::Owned(Rows {
                    schema: schema.clone(),
                    rows: r.rows,
                }),
                Batch::Col { cols, .. } => Batch::Col {
                    cols,
                    schema: schema.clone(),
                },
            })
        }
        Plan::HashJoin {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
            build_index,
            schema,
        } => {
            let l = execute_ctx(left, outer, child_stats(stats, 0), ctx)?;
            let r = execute_ctx(right, outer, child_stats(stats, 1), ctx)?;
            exec_hash_join(
                l,
                r,
                *kind,
                left_keys,
                right_keys,
                residual.as_ref(),
                build_index.as_ref(),
                schema,
                outer,
                stats.as_deref_mut(),
                ctx,
            )
        }
        Plan::NestedLoopJoin {
            left,
            right,
            kind,
            on,
            schema,
        } => {
            faults::trip("nested_loop")?;
            let l = execute_ctx(left, outer, child_stats(stats, 0), ctx)?;
            let r = execute_ctx(right, outer, child_stats(stats, 1), ctx)?;
            Ok(Batch::Owned(exec_nested_loop_join(
                l,
                r,
                *kind,
                on.as_ref(),
                schema,
                outer,
                stats.as_deref_mut(),
                ctx,
            )?))
        }
        Plan::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
        } => {
            faults::trip("aggregate.group")?;
            let child = execute_ctx(input, outer, child_stats(stats, 0), ctx)?;
            exec_aggregate(
                child,
                group_exprs,
                aggs,
                schema,
                outer,
                stats.as_deref_mut(),
                ctx,
            )
        }
        Plan::Distinct { input } => {
            faults::trip("distinct")?;
            let child = execute_ctx(input, outer, child_stats(stats, 0), ctx)?;
            let workers = par_workers(child.len(), ctx.threads);
            note_threads(stats, workers);
            // Kernel path: every column is a key column; the output is the
            // first row of each group, gathered (or the input itself when
            // nothing repeats).
            if ctx.columnar {
                if let Batch::Col { cols, schema } = &child {
                    let all: Vec<usize> = (0..cols.width()).collect();
                    if let Some(g) = group_kernel(cols, &all, &[], workers, gov, "distinct")? {
                        if let Some(s) = stats.as_deref_mut() {
                            s.build_rows += cols.len() as u64;
                            s.est_mem_bytes += g.mem_bytes;
                        }
                        if g.first_rows.len() == cols.len() {
                            return Ok(child);
                        }
                        return Ok(Batch::Col {
                            cols: Arc::new(cols.gather(&g.first_rows)),
                            schema: schema.clone(),
                        });
                    }
                }
            }
            let (out, set_bytes) = exec_distinct(&child, workers, gov)?;
            if let Some(s) = stats.as_deref_mut() {
                s.build_rows += child.len() as u64;
                s.est_mem_bytes += set_bytes;
            }
            Ok(Batch::Owned(Rows {
                schema: child.schema().clone(),
                rows: out,
            }))
        }
        Plan::UnionAll { left, right } => {
            faults::trip("union")?;
            let l = execute_ctx(left, outer, child_stats(stats, 0), ctx)?;
            let r = execute_ctx(right, outer, child_stats(stats, 1), ctx)?;
            // Kernel path: with a columnar side, concatenate chunks (a
            // row-shaped other side is pivoted into columns first); an
            // empty side passes the other one through untouched.
            if ctx.columnar && (l.cols().is_some() || r.cols().is_some()) {
                let schema = l.schema().clone();
                let cols = if r.is_empty() {
                    l.into_schema_cols().1
                } else if l.is_empty() {
                    r.into_schema_cols().1
                } else {
                    let (l, r) = (l.into_schema_cols().1, r.into_schema_cols().1);
                    Arc::new(l.concat(&r))
                };
                return Ok(Batch::Col { cols, schema });
            }
            let mut rows = l.into_rows();
            rows.rows.extend(r.into_rows().rows);
            Ok(Batch::Owned(rows))
        }
        Plan::Sort { input, keys } => {
            faults::trip("sort")?;
            let child = execute_ctx(input, outer, child_stats(stats, 0), ctx)?.into_rows();
            let workers = par_workers(child.rows.len(), ctx.threads);
            note_threads(stats, workers);
            Ok(Batch::Owned(exec_sort(child, keys, outer, ctx, workers)?))
        }
        Plan::Limit { input, n } => {
            faults::trip("limit")?;
            let child = execute_ctx(input, outer, child_stats(stats, 0), ctx)?;
            let take = (*n as usize).min(child.len());
            if take == child.len() {
                return Ok(child);
            }
            if ctx.columnar {
                if let Batch::Col { cols, schema } = &child {
                    return Ok(Batch::Col {
                        cols: Arc::new(cols.head(take)),
                        schema: schema.clone(),
                    });
                }
            }
            let rows = child.rows()[..take].to_vec();
            Ok(Batch::Owned(Rows {
                schema: child.schema().clone(),
                rows,
            }))
        }
    }
}

/// Concatenate per-morsel output chunks (already in morsel order).
fn concat_rows(chunks: Vec<Vec<Row>>) -> Vec<Row> {
    let total = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// DISTINCT on the row path: serial for one worker; otherwise workers
/// pre-deduplicate the morsels they claim against a per-worker set (each
/// worker's morsels are claimed in increasing order, so a worker always
/// keeps its earliest occurrence), and a sequential pass over the
/// surviving rows in global row order picks the true first occurrence of
/// each key — the same row, with the same payload, the serial path keeps.
/// Returns the output rows and the bytes charged for the dedup sets and
/// the rows kept: table slots as the sets grow, and per kept key its
/// `width` heap cells plus the output row cloned beside it.
fn exec_distinct(child: &Batch, workers: usize, gov: Option<&Governor>) -> Result<(Vec<Row>, u64)> {
    let rows = child.rows();
    let width = child.schema().len();
    let key_heap = (width * mem::size_of::<KeyValue>()) as u64;
    let row_bytes = (mem::size_of::<Row>() + width * mem::size_of::<Value>()) as u64;
    let slot_bytes = mem::size_of::<Key>() as u64;
    let reserve = |bytes: u64| match gov {
        Some(g) => g.reserve_mem(bytes, "distinct"),
        None => Ok(()),
    };
    if workers == 1 {
        let mut seen: HashSet<Key> = HashSet::with_capacity(rows.len());
        reserve(seen.capacity() as u64 * slot_bytes)?;
        let mut out = Vec::new();
        for row in rows {
            tick(gov, "distinct")?;
            if seen.insert(Key::from_values(row)) {
                reserve(key_heap + row_bytes)?;
                out.push(row.clone());
            }
        }
        let bytes = seen.capacity() as u64 * slot_bytes + out.len() as u64 * (key_heap + row_bytes);
        return Ok((out, bytes));
    }

    struct DistinctPartial {
        seen: HashSet<Key>,
        /// Surviving `(global row index, key)` pairs, per-worker-deduped.
        survivors: Vec<(usize, Key)>,
        reserved_cap: usize,
    }
    let partials = parallel_fold(
        rows.len(),
        workers,
        || DistinctPartial {
            seen: HashSet::new(),
            survivors: Vec::new(),
            reserved_cap: 0,
        },
        |acc, range| {
            for idx in range {
                tick(gov, "distinct")?;
                let key = Key::from_values(&rows[idx]);
                if acc.seen.insert(key.clone()) {
                    // One copy of the key in the set, one with the survivor.
                    reserve(2 * key_heap)?;
                    acc.survivors.push((idx, key));
                }
                if acc.seen.capacity() > acc.reserved_cap {
                    reserve((acc.seen.capacity() - acc.reserved_cap) as u64 * slot_bytes)?;
                    acc.reserved_cap = acc.seen.capacity();
                }
            }
            Ok(())
        },
    )?;

    let mut bytes: u64 = partials
        .iter()
        .map(|p| p.seen.capacity() as u64 * slot_bytes + p.survivors.len() as u64 * 2 * key_heap)
        .sum();
    let mut survivors: Vec<(usize, Key)> = partials.into_iter().flat_map(|p| p.survivors).collect();
    survivors.sort_unstable_by_key(|(idx, _)| *idx);
    let mut global: HashSet<Key> = HashSet::with_capacity(survivors.len());
    let mut out = Vec::new();
    for (idx, key) in survivors {
        if global.insert(key) {
            reserve(row_bytes)?;
            out.push(rows[idx].clone());
        }
    }
    bytes += out.len() as u64 * row_bytes;
    Ok((out, bytes))
}

/// Reborrow the stats node for child `i` of the current operator, keeping
/// the `Option` shape `execute_batch_stats` expects.
fn child_stats<'a>(stats: &'a mut Option<&mut NodeStats>, i: usize) -> Option<&'a mut NodeStats> {
    stats.as_deref_mut().map(|s| &mut s.children[i])
}

/// Evaluate an expression for a given current row, chaining outer scopes.
/// The governor rides along in the environment so correlated subqueries
/// launched from expression evaluation stay governed.
fn eval_on_row(
    expr: &BoundExpr,
    row: &[Value],
    outer: Option<&Env<'_>>,
    ctx: ExecCtx<'_>,
) -> Result<Value> {
    match outer {
        Some(parent) => expr.eval(&Env::push(row, parent)),
        None => expr.eval(&Env::exec(row, ctx.gov, ctx.columnar)),
    }
}

fn eval_predicate_on_row(
    expr: &BoundExpr,
    row: &[Value],
    outer: Option<&Env<'_>>,
    ctx: ExecCtx<'_>,
) -> Result<Option<bool>> {
    match outer {
        Some(parent) => expr.eval_predicate(&Env::push(row, parent)),
        None => expr.eval_predicate(&Env::exec(row, ctx.gov, ctx.columnar)),
    }
}

fn project_row(
    row: &[Value],
    exprs: &[BoundExpr],
    outer: Option<&Env<'_>>,
    ctx: ExecCtx<'_>,
) -> Result<Row> {
    let mut out = Vec::with_capacity(exprs.len());
    for e in exprs {
        out.push(eval_on_row(e, row, outer, ctx)?);
    }
    Ok(out)
}

/// The build side of a hash join, hash-partitioned into `parts.len()`
/// disjoint tables. Build and probe route a key to its partition through
/// the same shared [`RandomState`], so lookups hit exactly one table. One
/// partition (serial build) degenerates to the classic single hash table.
struct PartitionedTable {
    hasher: RandomState,
    parts: Vec<HashMap<Key, Vec<usize>>>,
}

impl PartitionedTable {
    fn route(&self, key: &Key) -> usize {
        if self.parts.len() == 1 {
            0
        } else {
            (self.hasher.hash_one(key) as usize) % self.parts.len()
        }
    }

    fn get(&self, key: &Key) -> Option<&Vec<usize>> {
        self.parts[self.route(key)].get(key)
    }

    fn is_empty(&self) -> bool {
        self.parts.iter().all(HashMap::is_empty)
    }

    fn bytes(&self) -> u64 {
        self.parts.iter().map(hash_table_bytes).sum()
    }
}

/// The probe target of a hash join: either a hash table built for this
/// query, or a prebuilt secondary [`Index`](crate::index::Index) attached
/// by the optimizer. Both expose the same postings contract — per-key row
/// indices in ascending build-row order with NULL keys absent — so every
/// probe and emission path downstream is identical.
enum JoinTable<'a> {
    Built(PartitionedTable),
    Indexed(&'a crate::index::Index),
}

impl JoinTable<'_> {
    fn get(&self, key: &Key) -> Option<&Vec<usize>> {
        match self {
            JoinTable::Built(t) => t.get(key),
            JoinTable::Indexed(idx) => idx.get(key),
        }
    }

    /// Bytes this join *allocated*: a prebuilt index is a shared,
    /// database-resident structure, so it costs the query nothing.
    fn query_bytes(&self) -> u64 {
        match self {
            JoinTable::Built(t) => t.bytes(),
            JoinTable::Indexed(_) => 0,
        }
    }
}

/// Key extractor for one join side: either direct reads from the key
/// column chunks of a columnar batch (the hash-key kernel — no per-row
/// expression evaluation, and no pivot of the non-key columns), or bound
/// key expressions evaluated over the pivoted rows.
enum KeySource<'a> {
    Cols(Vec<&'a ColumnChunk>),
    Rows {
        rows: &'a [Row],
        keys: &'a [BoundExpr],
    },
}

impl<'a> KeySource<'a> {
    /// Pick the extraction strategy for `input`: column chunks when the
    /// keys are plain depth-0 columns over a columnar batch and the
    /// kernels are enabled, pivoted rows otherwise.
    fn for_batch(input: &'a Batch, keys: &'a [BoundExpr], ctx: ExecCtx<'_>) -> KeySource<'a> {
        if ctx.columnar {
            if let (Some(cb), Some(idxs)) = (input.cols(), kernels::column_indices(keys)) {
                return KeySource::Cols(idxs.iter().map(|&i| &*cb.cols()[i]).collect());
            }
        }
        KeySource::Rows {
            rows: input.rows(),
            keys,
        }
    }

    fn key_at(&self, i: usize, outer: Option<&Env<'_>>, ctx: ExecCtx<'_>) -> Result<Key> {
        match self {
            KeySource::Cols(chunks) => {
                let vals: Vec<Value> = chunks.iter().map(|c| c.value_at(i)).collect();
                Ok(Key::from_values(&vals))
            }
            KeySource::Rows { rows, keys } => {
                Ok(Key::from_values(&project_row(&rows[i], keys, outer, ctx)?))
            }
        }
    }
}

/// Build the join hash table over the build side, partitioned across
/// `workers` threads when above the parallel threshold. Workers extract
/// keys per morsel and route `(key, row index)` pairs into per-partition
/// buckets; a morsel-order transpose then hands each partition's pairs —
/// in global row order — to one builder thread, so every key's index list
/// is identical to the serial build's. NULL keys are skipped (SQL equality
/// never matches them).
fn build_join_table(
    input: &Batch,
    keys: &[BoundExpr],
    workers: usize,
    outer: Option<&Env<'_>>,
    ctx: ExecCtx<'_>,
) -> Result<PartitionedTable> {
    let gov = ctx.gov;
    let n = input.len();
    let source = KeySource::for_batch(input, keys, ctx);
    let hasher = RandomState::new();
    if workers == 1 {
        let mut table: HashMap<Key, Vec<usize>> = HashMap::with_capacity(n);
        for i in 0..n {
            tick(gov, "hash_join")?;
            let key = source.key_at(i, outer, ctx)?;
            if key.has_null() {
                continue;
            }
            table.entry(key).or_default().push(i);
        }
        return Ok(PartitionedTable {
            hasher,
            parts: vec![table],
        });
    }

    let nparts = workers;
    let morsel_buckets: Vec<Vec<Vec<(Key, usize)>>> = parallel_morsels(n, workers, |_, range| {
        let mut buckets: Vec<Vec<(Key, usize)>> = (0..nparts).map(|_| Vec::new()).collect();
        for idx in range {
            tick(gov, "hash_join")?;
            let key = source.key_at(idx, outer, ctx)?;
            if key.has_null() {
                continue;
            }
            let p = (hasher.hash_one(&key) as usize) % nparts;
            buckets[p].push((key, idx));
        }
        Ok(buckets)
    })?;
    // Transpose morsel-major to partition-major; iterating morsels in order
    // keeps each partition's pairs in global row order.
    let mut per_part: Vec<Vec<(Key, usize)>> = (0..nparts).map(|_| Vec::new()).collect();
    for buckets in morsel_buckets {
        for (p, bucket) in buckets.into_iter().enumerate() {
            per_part[p].extend(bucket);
        }
    }
    let parts = parallel_tasks(per_part, |_, entries| {
        let mut table: HashMap<Key, Vec<usize>> = HashMap::with_capacity(entries.len());
        for (key, idx) in entries {
            tick(gov, "hash_join")?;
            table.entry(key).or_default().push(idx);
        }
        Ok(table)
    })?;
    Ok(PartitionedTable { hasher, parts })
}

#[allow(clippy::too_many_arguments)]
fn exec_hash_join(
    left: Batch,
    right: Batch,
    kind: JoinType,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
    residual: Option<&BoundExpr>,
    build_index: Option<&Arc<crate::index::Index>>,
    schema: &Schema,
    outer: Option<&Env<'_>>,
    mut stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Batch> {
    let gov = ctx.gov;
    // A prebuilt index is only sound if the right child still produced the
    // exact batch the index was built over (snapshot semantics); anything
    // else — pivoted rows, a different epoch's batch — falls back to
    // building a table for this query.
    let prebuilt: Option<&crate::index::Index> = build_index
        .filter(|idx| match &right {
            Batch::Col { cols, .. } => Arc::ptr_eq(cols, idx.batch()),
            Batch::Owned(_) => false,
        })
        .map(Arc::as_ref);
    if let Some(s) = stats.as_deref_mut() {
        s.build_rows += right.len() as u64;
        s.probe_rows += left.len() as u64;
    }
    let row_bytes = est_row_bytes(schema);
    // Joins are the unbounded row generators, so they account output rows
    // (and their bytes) one emission at a time.
    let emit = |n: usize| -> Result<()> {
        match gov {
            Some(g) => g.emit_rows(n as u64, row_bytes, "hash_join"),
            None => Ok(()),
        }
    };
    // Early outs for empty sides: an inner join with an empty input is
    // empty; a semi join against nothing is empty; an anti join against
    // nothing passes everything through. (The annotation-aware Filter often
    // has an empty candidates side on nearly-consistent databases.)
    if right.is_empty() {
        return Ok(match kind {
            JoinType::Inner | JoinType::Semi => Batch::Owned(Rows {
                schema: schema.clone(),
                rows: Vec::new(),
            }),
            JoinType::Anti => {
                emit(left.len())?;
                // Pass-through: keep the left batch's representation
                // (columnar stays columnar), re-viewed under the join's
                // schema.
                match left {
                    Batch::Col { cols, .. } => Batch::Col {
                        cols,
                        schema: schema.clone(),
                    },
                    Batch::Owned(r) => Batch::Owned(Rows {
                        schema: schema.clone(),
                        rows: r.rows,
                    }),
                }
            }
            JoinType::LeftOuter => {
                emit(left.len())?;
                let right_width = right.schema().len();
                let rows = left
                    .rows()
                    .iter()
                    .map(|l| {
                        let mut row = l.clone();
                        row.extend(std::iter::repeat_n(Value::Null, right_width));
                        row
                    })
                    .collect();
                Batch::Owned(Rows {
                    schema: schema.clone(),
                    rows,
                })
            }
        });
    }
    if left.is_empty() {
        return Ok(Batch::Owned(Rows {
            schema: schema.clone(),
            rows: Vec::new(),
        }));
    }

    // Inner joins build the hash table on the smaller side; the output
    // column order (left ++ right) is preserved when emitting. An attached
    // index pins the build to the right side: probing a prebuilt structure
    // beats re-hashing the smaller input.
    if kind == JoinType::Inner
        && left.len() < right.len()
        && residual.is_none()
        && prebuilt.is_none()
    {
        return Ok(Batch::Owned(exec_hash_join_inner_swapped(
            right, left, right_keys, left_keys, schema, outer, stats, ctx,
        )?));
    }

    // Build on the right side, hash-partitioned across workers when large —
    // unless the optimizer attached a prebuilt index, which skips the build
    // entirely. Both paths fire the `join.build` fault point.
    faults::trip("join.build")?;
    let (table, build_workers) = match prebuilt {
        Some(idx) => (JoinTable::Indexed(idx), 1),
        None => {
            let workers = par_workers(right.len(), ctx.threads);
            let built = build_join_table(&right, right_keys, workers, outer, ctx)?;
            (JoinTable::Built(built), workers)
        }
    };
    if let Some(g) = gov {
        g.reserve_mem(table.query_bytes(), "hash_join")?;
    }
    if let Some(s) = stats.as_deref_mut() {
        s.est_mem_bytes += table.query_bytes();
    }
    if matches!(table, JoinTable::Indexed(_)) {
        conquer_obs::registry().counter("index.probe").inc();
    }

    faults::trip("join.probe")?;
    let probe_workers = par_workers(left.len(), ctx.threads);
    if let Some(s) = stats.as_deref_mut() {
        s.threads_used = s.threads_used.max(build_workers.max(probe_workers) as u64);
    }
    let left_source = KeySource::for_batch(&left, left_keys, ctx);

    // Kernel path for semi/anti joins without residuals: probe straight
    // off the key chunks, collect the surviving left row indices, and
    // gather them into a columnar output — neither side is pivoted. This
    // is the hot shape of ConQuer's rewritings (decorrelated EXISTS /
    // NOT EXISTS).
    if matches!(kind, JoinType::Semi | JoinType::Anti) && residual.is_none() && ctx.columnar {
        if let Some(lcols) = left.cols() {
            let probe_sel = |range: Range<usize>| -> Result<(Vec<u32>, u64)> {
                let mut comparisons = 0u64;
                let mut out = Vec::new();
                for i in range {
                    tick(gov, "hash_join")?;
                    let key = left_source.key_at(i, outer, ctx)?;
                    let matched = if key.has_null() {
                        false
                    } else if table.get(&key).is_some() {
                        // The serial row path inspects exactly one
                        // candidate before the semi/anti short-circuit.
                        comparisons += 1;
                        true
                    } else {
                        false
                    };
                    if matched == (kind == JoinType::Semi) {
                        emit(1)?;
                        out.push(i as u32);
                    }
                }
                Ok((out, comparisons))
            };
            let (sel, comparisons) = if probe_workers == 1 {
                probe_sel(0..left.len())?
            } else {
                let chunks =
                    parallel_morsels(left.len(), probe_workers, |_, range| probe_sel(range))?;
                let comparisons = chunks.iter().map(|(_, c)| c).sum();
                (
                    chunks
                        .into_iter()
                        .flat_map(|(sel, _)| sel)
                        .collect::<Vec<u32>>(),
                    comparisons,
                )
            };
            if let Some(s) = stats {
                s.comparisons += comparisons;
            }
            return Ok(Batch::Col {
                cols: Arc::new(lcols.gather(&sel)),
                schema: schema.clone(),
            });
        }
    }

    // Inner/outer output rows splice in right-side values; semi/anti with
    // a residual evaluate it over the concatenated pair. Either way both
    // sides pivot here (once, cached).
    let left_rows = left.rows();
    let right_rows = right.rows();
    let right_width = right.schema().len();
    // One probe morsel: the per-row matching logic is identical at any
    // thread count, and morsel outputs concatenate back to the serial
    // emission order (probe rows in order; per-key build indexes in global
    // build order).
    let probe_morsel = |range: Range<usize>| -> Result<(Vec<Row>, u64)> {
        let mut comparisons = 0u64;
        let mut out = Vec::new();
        for li in range {
            let lrow = &left_rows[li];
            tick(gov, "hash_join")?;
            let key = left_source.key_at(li, outer, ctx)?;
            let matches = if key.has_null() {
                None
            } else {
                table.get(&key)
            };
            let mut matched = false;
            if let Some(idxs) = matches {
                for &ri in idxs {
                    comparisons += 1;
                    // Residual conditions are part of the ON clause: they
                    // decide whether this candidate pair is a match.
                    let pass = match residual {
                        None => true,
                        Some(res) => {
                            let mut combined = lrow.clone();
                            combined.extend(right_rows[ri].iter().cloned());
                            eval_predicate_on_row(res, &combined, outer, ctx)? == Some(true)
                        }
                    };
                    if !pass {
                        continue;
                    }
                    matched = true;
                    match kind {
                        JoinType::Inner | JoinType::LeftOuter => {
                            emit(1)?;
                            let mut combined = lrow.clone();
                            combined.extend(right_rows[ri].iter().cloned());
                            out.push(combined);
                        }
                        JoinType::Semi | JoinType::Anti => break,
                    }
                }
            }
            match kind {
                JoinType::LeftOuter if !matched => {
                    emit(1)?;
                    let mut combined = lrow.clone();
                    combined.extend(std::iter::repeat_n(Value::Null, right_width));
                    out.push(combined);
                }
                JoinType::Semi if matched => {
                    emit(1)?;
                    out.push(lrow.clone());
                }
                JoinType::Anti if !matched => {
                    emit(1)?;
                    out.push(lrow.clone());
                }
                _ => {}
            }
        }
        Ok((out, comparisons))
    };
    let (out, comparisons) = if probe_workers == 1 {
        probe_morsel(0..left_rows.len())?
    } else {
        let chunks = parallel_morsels(left_rows.len(), probe_workers, |_, range| {
            probe_morsel(range)
        })?;
        let comparisons = chunks.iter().map(|(_, c)| c).sum();
        (
            concat_rows(chunks.into_iter().map(|(rows, _)| rows).collect()),
            comparisons,
        )
    };
    if let Some(s) = stats {
        s.comparisons += comparisons;
    }
    Ok(Batch::Owned(Rows {
        schema: schema.clone(),
        rows: out,
    }))
}

/// Rough footprint of a join hash table: map entry overhead plus one
/// row index per build row.
fn hash_table_bytes(table: &HashMap<Key, Vec<usize>>) -> u64 {
    let entry = mem::size_of::<Key>() + mem::size_of::<Vec<usize>>();
    let indices: usize = table.values().map(Vec::len).sum();
    (table.capacity() * entry + indices * mem::size_of::<usize>()) as u64
}

/// Inner hash join probing with the *larger* side: `probe` is the original
/// right input, `build` the original left. Output rows still lay out
/// original-left columns first.
///
/// Note the emission-order divergence from the unswapped shape: rows come
/// out in probe (original-right) order. The parallel path reproduces
/// exactly this order, morsel by morsel.
#[allow(clippy::too_many_arguments)]
fn exec_hash_join_inner_swapped(
    probe: Batch,
    build: Batch,
    probe_keys: &[BoundExpr],
    build_keys: &[BoundExpr],
    schema: &Schema,
    outer: Option<&Env<'_>>,
    mut stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Rows> {
    let gov = ctx.gov;
    faults::trip("join.build")?;
    let row_bytes = est_row_bytes(schema);
    let build_workers = par_workers(build.len(), ctx.threads);
    let table = build_join_table(&build, build_keys, build_workers, outer, ctx)?;
    let build_rows = build.rows();
    if let Some(g) = gov {
        g.reserve_mem(table.bytes(), "hash_join")?;
    }
    if let Some(s) = stats.as_deref_mut() {
        s.est_mem_bytes += table.bytes();
    }
    if table.is_empty() {
        return Ok(Rows {
            schema: schema.clone(),
            rows: Vec::new(),
        });
    }
    faults::trip("join.probe")?;
    let probe_source = KeySource::for_batch(&probe, probe_keys, ctx);
    let probe_rows = probe.rows();
    let probe_workers = par_workers(probe_rows.len(), ctx.threads);
    if let Some(s) = stats.as_deref_mut() {
        s.threads_used = s.threads_used.max(build_workers.max(probe_workers) as u64);
    }
    let probe_morsel = |range: Range<usize>| -> Result<(Vec<Row>, u64)> {
        let mut comparisons = 0u64;
        let mut out = Vec::new();
        for pi in range {
            let prow = &probe_rows[pi];
            tick(gov, "hash_join")?;
            let key = probe_source.key_at(pi, outer, ctx)?;
            if key.has_null() {
                continue;
            }
            if let Some(idxs) = table.get(&key) {
                for &bi in idxs {
                    comparisons += 1;
                    if let Some(g) = gov {
                        g.emit_rows(1, row_bytes, "hash_join")?;
                    }
                    let mut combined = Vec::with_capacity(build_rows[bi].len() + prow.len());
                    combined.extend(build_rows[bi].iter().cloned());
                    combined.extend(prow.iter().cloned());
                    out.push(combined);
                }
            }
        }
        Ok((out, comparisons))
    };
    let (out, comparisons) = if probe_workers == 1 {
        probe_morsel(0..probe_rows.len())?
    } else {
        let chunks = parallel_morsels(probe_rows.len(), probe_workers, |_, range| {
            probe_morsel(range)
        })?;
        let comparisons = chunks.iter().map(|(_, c)| c).sum();
        (
            concat_rows(chunks.into_iter().map(|(rows, _)| rows).collect()),
            comparisons,
        )
    };
    if let Some(s) = stats {
        s.comparisons += comparisons;
    }
    Ok(Rows {
        schema: schema.clone(),
        rows: out,
    })
}

/// Nested-loop join. The outer (left) loop is morsel-parallel: each probe
/// row's inner scan is independent, and concatenating morsel outputs
/// reproduces the serial emission order for every join kind.
#[allow(clippy::too_many_arguments)]
fn exec_nested_loop_join(
    left: Batch,
    right: Batch,
    kind: JoinType,
    on: Option<&BoundExpr>,
    schema: &Schema,
    outer: Option<&Env<'_>>,
    mut stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Rows> {
    let gov = ctx.gov;
    let row_bytes = est_row_bytes(schema);
    let emit = |n: u64| -> Result<()> {
        match gov {
            Some(g) => g.emit_rows(n, row_bytes, "nested_loop_join"),
            None => Ok(()),
        }
    };
    let left_rows = left.rows();
    let right_rows = right.rows();
    let right_width = right.schema().len();
    // Gate on the total pair count (the actual work), but the split
    // granularity is left-side morsels — a left under one morsel runs
    // serially regardless of how large the right side is.
    let pairs = left_rows.len().saturating_mul(right_rows.len());
    let workers = if ctx.threads <= 1 || pairs < PAR_THRESHOLD {
        1
    } else {
        ctx.threads.min(left_rows.len().div_ceil(MORSEL_ROWS))
    };
    let outer_morsel = |range: Range<usize>| -> Result<(Vec<Row>, u64)> {
        let mut comparisons = 0u64;
        let mut out = Vec::new();
        for lrow in &left_rows[range] {
            let mut matched = false;
            for rrow in right_rows {
                tick(gov, "nested_loop_join")?;
                comparisons += 1;
                let mut combined = lrow.clone();
                combined.extend(rrow.iter().cloned());
                let pass = match on {
                    None => true,
                    Some(cond) => eval_predicate_on_row(cond, &combined, outer, ctx)? == Some(true),
                };
                if !pass {
                    continue;
                }
                matched = true;
                match kind {
                    JoinType::Inner | JoinType::LeftOuter => {
                        emit(1)?;
                        out.push(combined);
                    }
                    JoinType::Semi | JoinType::Anti => break,
                }
            }
            match kind {
                JoinType::LeftOuter if !matched => {
                    emit(1)?;
                    let mut combined = lrow.clone();
                    combined.extend(std::iter::repeat_n(Value::Null, right_width));
                    out.push(combined);
                }
                JoinType::Semi if matched => {
                    emit(1)?;
                    out.push(lrow.clone());
                }
                JoinType::Anti if !matched => {
                    emit(1)?;
                    out.push(lrow.clone());
                }
                _ => {}
            }
        }
        Ok((out, comparisons))
    };
    if let Some(s) = stats.as_deref_mut() {
        s.threads_used = s.threads_used.max(workers as u64);
    }
    let (out, comparisons) = if workers == 1 {
        outer_morsel(0..left_rows.len())?
    } else {
        let chunks = parallel_morsels(left_rows.len(), workers, |_, range| outer_morsel(range))?;
        let comparisons = chunks.iter().map(|(_, c)| c).sum();
        (
            concat_rows(chunks.into_iter().map(|(rows, _)| rows).collect()),
            comparisons,
        )
    };
    if let Some(s) = stats {
        s.build_rows += right.len() as u64;
        s.probe_rows += left.len() as u64;
        s.comparisons += comparisons;
    }
    Ok(Rows {
        schema: schema.clone(),
        rows: out,
    })
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Accumulator for one aggregate within one group.
///
/// Float sums use [`ExactSum`], so SUM/AVG results depend only on the input
/// multiset — never on accumulation or merge order.
#[derive(Debug, Clone)]
pub(crate) enum Accumulator {
    Count(i64),
    SumInt { sum: i64, seen: bool },
    SumFloat { sum: Box<ExactSum>, seen: bool },
    MinMax { best: Option<Value>, is_min: bool },
    Avg { sum: Box<ExactSum>, count: i64 },
}

impl Accumulator {
    pub(crate) fn new(func: AggFunc) -> Accumulator {
        match func {
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::Sum => Accumulator::SumInt {
                sum: 0,
                seen: false,
            },
            AggFunc::Min => Accumulator::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => Accumulator::MinMax {
                best: None,
                is_min: false,
            },
            AggFunc::Avg => Accumulator::Avg {
                sum: Box::new(ExactSum::new()),
                count: 0,
            },
        }
    }

    pub(crate) fn update(&mut self, value: &Value) -> Result<()> {
        if value.is_null() {
            // SQL aggregates skip NULL inputs (COUNT(e) counts non-NULL).
            return Ok(());
        }
        match self {
            Accumulator::Count(n) => *n += 1,
            Accumulator::SumInt { sum, seen } => match value {
                Value::Int(v) => {
                    *sum = sum
                        .checked_add(*v)
                        .ok_or_else(|| EngineError::Eval("integer overflow in SUM".into()))?;
                    *seen = true;
                }
                Value::Float(v) => {
                    let mut promoted = Box::new(ExactSum::new());
                    promoted.add_i64(*sum);
                    promoted.add(*v);
                    *self = Accumulator::SumFloat {
                        sum: promoted,
                        seen: true,
                    };
                }
                other => {
                    return Err(EngineError::TypeError(format!(
                        "SUM over {}",
                        other.type_name()
                    )))
                }
            },
            Accumulator::SumFloat { sum, seen } => {
                match value {
                    Value::Int(v) => sum.add_i64(*v),
                    other => {
                        let Some(v) = other.as_f64()? else {
                            return Ok(()); // non-null checked above; defensive
                        };
                        sum.add(v);
                    }
                }
                *seen = true;
            }
            Accumulator::MinMax { best, is_min } => {
                let replace = match best {
                    None => true,
                    Some(b) => {
                        let ord = value.sql_cmp(b)?.ok_or_else(|| {
                            EngineError::TypeError("incomparable values in MIN/MAX".into())
                        })?;
                        if *is_min {
                            ord.is_lt()
                        } else {
                            ord.is_gt()
                        }
                    }
                };
                if replace {
                    *best = Some(value.clone());
                }
            }
            Accumulator::Avg { sum, count } => {
                match value {
                    Value::Int(v) => sum.add_i64(*v),
                    other => {
                        let Some(v) = other.as_f64()? else {
                            return Ok(());
                        };
                        sum.add(v);
                    }
                }
                *count += 1;
            }
        }
        Ok(())
    }

    fn count_row(&mut self) {
        if let Accumulator::Count(n) = self {
            *n += 1;
        }
    }

    /// Bulk `COUNT(*)`: every input row counts, NULL or not.
    fn count_rows(&mut self, n: i64) {
        if let Accumulator::Count(c) = self {
            *c += n;
        }
    }

    /// Fold `range` of a column chunk into the accumulator — the
    /// vectorized inner loop of global aggregation. Typed loops cover the
    /// hot combinations (COUNT over anything, SUM/MIN/MAX/AVG over integer
    /// columns, AVG over float columns); everything else falls back to
    /// per-value [`Accumulator::update`] over the chunk, which is still
    /// pivot-free. Value-level semantics (NULL skipping, overflow, the
    /// Int→Float SUM promotion) match the row path exactly.
    fn update_column(&mut self, chunk: &ColumnChunk, range: Range<usize>) -> Result<()> {
        match (&mut *self, &chunk.data) {
            (Accumulator::Count(c), _) => {
                let nulls = chunk.null_count_range(range.start, range.end);
                *c += (range.len() - nulls) as i64;
                return Ok(());
            }
            (Accumulator::SumInt { sum, seen }, ColumnData::Int(vals)) => {
                for i in range {
                    if chunk.is_null(i) {
                        continue;
                    }
                    *sum = sum
                        .checked_add(vals[i])
                        .ok_or_else(|| EngineError::Eval("integer overflow in SUM".into()))?;
                    *seen = true;
                }
                return Ok(());
            }
            (Accumulator::Avg { sum, count }, ColumnData::Int(vals)) => {
                for i in range {
                    if chunk.is_null(i) {
                        continue;
                    }
                    sum.add_i64(vals[i]);
                    *count += 1;
                }
                return Ok(());
            }
            (Accumulator::Avg { sum, count }, ColumnData::Float(vals)) => {
                for i in range {
                    if chunk.is_null(i) {
                        continue;
                    }
                    sum.add(vals[i]);
                    *count += 1;
                }
                return Ok(());
            }
            (Accumulator::MinMax { best, is_min }, ColumnData::Int(vals))
                if matches!(best, None | Some(Value::Int(_))) =>
            {
                let mut cur: Option<i64> = match best {
                    Some(Value::Int(b)) => Some(*b),
                    _ => None,
                };
                for i in range {
                    if chunk.is_null(i) {
                        continue;
                    }
                    let v = vals[i];
                    cur = Some(match cur {
                        None => v,
                        Some(b) => {
                            if *is_min {
                                b.min(v)
                            } else {
                                b.max(v)
                            }
                        }
                    });
                }
                if let Some(b) = cur {
                    *best = Some(Value::Int(b));
                }
                return Ok(());
            }
            _ => {}
        }
        for i in range {
            if chunk.is_null(i) {
                continue;
            }
            self.update(&chunk.value_at(i))?;
        }
        Ok(())
    }

    /// Fold another partial state for the same aggregate spec into `self`
    /// (morsel-parallel aggregation). NULL-skipping semantics are encoded
    /// in the partial states already (`seen` flags, `count`s), so merging
    /// is pure arithmetic; mixed Int/Float SUM partials promote to float
    /// exactly as the serial accumulator does on its first float input.
    /// Float SUM/AVG partials merge exactly ([`ExactSum`]), so the merge
    /// order never changes the result.
    fn merge(&mut self, other: Accumulator) -> Result<()> {
        match (&mut *self, other) {
            (Accumulator::Count(a), Accumulator::Count(b)) => {
                *a += b;
            }
            (Accumulator::SumInt { sum, seen }, Accumulator::SumInt { sum: s2, seen: e2 }) => {
                *sum = sum
                    .checked_add(s2)
                    .ok_or_else(|| EngineError::Eval("integer overflow in SUM".into()))?;
                *seen |= e2;
            }
            (
                Accumulator::SumInt { sum, seen },
                Accumulator::SumFloat {
                    sum: mut f,
                    seen: e2,
                },
            ) => {
                f.add_i64(*sum);
                *self = Accumulator::SumFloat {
                    sum: f,
                    seen: *seen || e2,
                };
            }
            (Accumulator::SumFloat { sum, seen }, Accumulator::SumInt { sum: i, seen: e2 }) => {
                sum.add_i64(i);
                *seen |= e2;
            }
            (Accumulator::SumFloat { sum, seen }, Accumulator::SumFloat { sum: f, seen: e2 }) => {
                sum.merge(&f);
                *seen |= e2;
            }
            (Accumulator::MinMax { best, is_min }, Accumulator::MinMax { best: b2, .. }) => {
                if let Some(v) = b2 {
                    let replace = match best {
                        None => true,
                        Some(cur) => {
                            let ord = v.sql_cmp(cur)?.ok_or_else(|| {
                                EngineError::TypeError("incomparable values in MIN/MAX".into())
                            })?;
                            if *is_min {
                                ord.is_lt()
                            } else {
                                ord.is_gt()
                            }
                        }
                    };
                    if replace {
                        *best = Some(v);
                    }
                }
            }
            (Accumulator::Avg { sum, count }, Accumulator::Avg { sum: s2, count: c2 }) => {
                sum.merge(&s2);
                *count += c2;
            }
            // Partials for one spec always share a variant family; reaching
            // here is an executor bug, reported as an error, never a panic.
            _ => {
                return Err(EngineError::Execution(
                    "mismatched accumulator variants in parallel merge".into(),
                ))
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            Accumulator::Count(n) => Value::Int(n),
            Accumulator::SumInt { sum, seen } => {
                if seen {
                    Value::Int(sum)
                } else {
                    Value::Null
                }
            }
            Accumulator::SumFloat { mut sum, seen } => {
                if seen {
                    Value::Float(sum.to_f64())
                } else {
                    Value::Null
                }
            }
            Accumulator::MinMax { best, .. } => best.unwrap_or(Value::Null),
            Accumulator::Avg { mut sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    // One exact sum, one rounding, one division: the result
                    // is a pure function of the input multiset.
                    Value::Float(sum.to_f64() / count as f64)
                }
            }
        }
    }
}

/// State for one group: accumulators plus per-aggregate distinct filters.
struct GroupState {
    accs: Vec<Accumulator>,
    distinct_seen: Vec<Option<HashSet<KeyValue>>>,
}

impl GroupState {
    fn new(aggs: &[AggSpec]) -> GroupState {
        GroupState {
            accs: aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
            distinct_seen: aggs
                .iter()
                .map(|a| {
                    if a.distinct {
                        Some(HashSet::new())
                    } else {
                        None
                    }
                })
                .collect(),
        }
    }

    fn update(
        &mut self,
        aggs: &[AggSpec],
        row: &[Value],
        outer: Option<&Env<'_>>,
        ctx: ExecCtx<'_>,
    ) -> Result<()> {
        for (i, spec) in aggs.iter().enumerate() {
            match &spec.arg {
                None => self.accs[i].count_row(),
                Some(arg) => {
                    let v = eval_on_row(arg, row, outer, ctx)?;
                    if let Some(seen) = &mut self.distinct_seen[i] {
                        if v.is_null() || !seen.insert(KeyValue::from(&v)) {
                            continue;
                        }
                    }
                    self.accs[i].update(&v)?;
                }
            }
        }
        Ok(())
    }
}

fn exec_aggregate(
    input: Batch,
    group_exprs: &[BoundExpr],
    aggs: &[AggSpec],
    schema: &Schema,
    outer: Option<&Env<'_>>,
    mut stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Batch> {
    let workers = par_workers(input.len(), ctx.threads);
    if let Some(s) = stats.as_deref_mut() {
        s.threads_used = s.threads_used.max(workers as u64);
    }
    // Kernel path: plain-column group keys and aggregate arguments over a
    // columnar input run without pivoting. `None` means not applicable —
    // or a value-level error, which replays on the row path so the
    // reported error is the one the serial row-major scan hits first.
    if ctx.columnar {
        if let Some(cols) = input.cols() {
            let out = exec_aggregate_columnar(
                cols,
                group_exprs,
                aggs,
                schema,
                stats.as_deref_mut(),
                ctx,
                workers,
            )?;
            if let Some(out) = out {
                return Ok(out);
            }
        }
    }
    let rows = input.rows();
    let out = if workers > 1 {
        aggregate_parallel(rows, workers, group_exprs, aggs, schema, outer, stats, ctx)?
    } else {
        aggregate_serial(rows, group_exprs, aggs, schema, outer, stats, ctx)?
    };
    Ok(Batch::Owned(out))
}

/// Serial grouped aggregation on the row path. Group output order is
/// first-seen order.
fn aggregate_serial(
    rows: &[Row],
    group_exprs: &[BoundExpr],
    aggs: &[AggSpec],
    schema: &Schema,
    outer: Option<&Env<'_>>,
    stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Rows> {
    let gov = ctx.gov;
    let mut groups: HashMap<Key, (Row, GroupState)> = HashMap::new();
    // Preserve first-seen group order for deterministic output.
    let mut order: Vec<Key> = Vec::new();
    let per_group = group_footprint(aggs, group_exprs.len());
    // Reserve memory as the group table grows, so a high-cardinality GROUP
    // BY trips the budget while building rather than after.
    let mut reserved_cap = 0usize;

    for row in rows {
        tick(gov, "aggregate")?;
        let group_vals = project_row(row, group_exprs, outer, ctx)?;
        let key = Key::from_values(&group_vals);
        match groups.entry(key.clone()) {
            Entry::Occupied(mut e) => e.get_mut().1.update(aggs, row, outer, ctx)?,
            Entry::Vacant(e) => {
                let mut state = GroupState::new(aggs);
                state.update(aggs, row, outer, ctx)?;
                e.insert((group_vals, state));
                order.push(key);
            }
        }
        if groups.capacity() > reserved_cap {
            if let Some(g) = gov {
                g.reserve_mem(
                    ((groups.capacity() - reserved_cap) * per_group) as u64,
                    "aggregate",
                )?;
            }
            reserved_cap = groups.capacity();
        }
    }

    if let Some(s) = stats {
        s.build_rows += rows.len() as u64;
        s.est_mem_bytes += (groups.capacity() * per_group) as u64;
    }

    // A global aggregate (no GROUP BY) over zero rows yields one row of
    // "empty" aggregate values.
    if group_exprs.is_empty() && groups.is_empty() {
        return Ok(Rows {
            schema: schema.clone(),
            rows: vec![empty_aggregate_row(aggs)],
        });
    }

    let mut out = Vec::with_capacity(groups.len());
    for key in order {
        let Some((group_vals, state)) = groups.remove(&key) else {
            continue; // defensive: order and groups are built in lockstep
        };
        let mut row = group_vals;
        row.extend(state.accs.into_iter().map(Accumulator::finish));
        out.push(row);
    }
    Ok(Rows {
        schema: schema.clone(),
        rows: out,
    })
}

/// The columnar aggregation dispatch: `Ok(None)` means "run the row path"
/// (a group key or aggregate argument that is not a plain column, or a
/// value-level error to replay).
fn exec_aggregate_columnar(
    cols: &ColBatch,
    group_exprs: &[BoundExpr],
    aggs: &[AggSpec],
    schema: &Schema,
    mut stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
    workers: usize,
) -> Result<Option<Batch>> {
    let gov = ctx.gov;
    let Some(gidx) = kernels::column_indices(group_exprs) else {
        return Ok(None);
    };
    let mut inputs: Vec<AggInput> = Vec::with_capacity(aggs.len());
    for spec in aggs {
        let col = match &spec.arg {
            None => None,
            Some(BoundExpr::Column { depth: 0, index }) => Some(*index),
            Some(_) => return Ok(None),
        };
        inputs.push(AggInput {
            func: spec.func,
            col,
            distinct: spec.distinct,
        });
    }
    let n = cols.len();

    // Global aggregates without DISTINCT: one typed bulk pass per argument
    // column ([`Accumulator::update_column`]), morsel-parallel partials
    // merged exactly like the row path's. Value-level errors replay.
    if gidx.is_empty() && aggs.iter().all(|a| !a.distinct) {
        let run = |accs: &mut Vec<Accumulator>, range: Range<usize>| -> Result<()> {
            ticks(gov, range.len() as u64, "aggregate")?;
            for (acc, input) in accs.iter_mut().zip(&inputs) {
                match input.col {
                    None => acc.count_rows(range.len() as i64),
                    Some(ci) => acc.update_column(cols.col(ci), range.clone())?,
                }
            }
            Ok(())
        };
        let fresh =
            || -> Vec<Accumulator> { aggs.iter().map(|a| Accumulator::new(a.func)).collect() };
        let folded = if workers == 1 {
            let mut accs = fresh();
            run(&mut accs, 0..n).map(|()| accs)
        } else {
            parallel_fold(n, workers, fresh, |acc, range| run(acc, range)).and_then(|partials| {
                let mut accs = fresh();
                for partial in partials {
                    for (acc, part) in accs.iter_mut().zip(partial) {
                        acc.merge(part)?;
                    }
                }
                Ok(accs)
            })
        };
        let accs = match folded {
            Ok(accs) => accs,
            Err(EngineError::TypeError(_) | EngineError::Eval(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        if let Some(s) = stats.as_deref_mut() {
            s.build_rows += n as u64;
        }
        let row: Row = accs.into_iter().map(Accumulator::finish).collect();
        // Over zero rows the fresh accumulators finish to exactly the
        // "empty" aggregate row the row path emits.
        return Ok(Some(Batch::Owned(Rows {
            schema: schema.clone(),
            rows: vec![row],
        })));
    }

    // Grouped (or DISTINCT) aggregation: the group-key kernel. Key columns
    // come out as a gather of each group's first row, aggregate columns
    // typed from the kernel's state vectors — the result stays columnar.
    let Some(g) = group_kernel(cols, &gidx, &inputs, workers, gov, "aggregate")? else {
        return Ok(None);
    };
    if let Some(s) = stats {
        s.build_rows += n as u64;
        s.est_mem_bytes += g.mem_bytes;
    }
    let mut chunks: Vec<Arc<ColumnChunk>> = gidx
        .iter()
        .map(|&c| Arc::new(cols.col(c).gather(&g.first_rows)))
        .collect();
    chunks.extend(g.agg_cols.into_iter().map(Arc::new));
    Ok(Some(Batch::Col {
        cols: Arc::new(ColBatch::from_chunks(g.groups, chunks)),
        schema: schema.clone(),
    }))
}

/// What [`group_kernel`] hands back: per group, in first-seen order, the
/// row its key values live at and one value per aggregate.
struct Grouped {
    /// First input row of each group, ascending. Empty for a global
    /// aggregate (no key columns), which is one group all the same.
    first_rows: Vec<u32>,
    groups: usize,
    agg_cols: Vec<ColumnChunk>,
    /// Bytes of table and state charged to the governor.
    mem_bytes: u64,
}

/// Drive the typed group-key kernel ([`crate::groupkey`]) over `cols`:
/// group on `key_idx`, fold `aggs`. Serially one [`Partition`] sees every
/// row, a morsel at a time. With `workers > 1` the key hashes are computed
/// morsel-parallel, then worker `p` folds — in row order — exactly the
/// rows whose hash routes to partition `p`; partitions never share a
/// group, so there is nothing to merge, only to order by first row.
/// `Ok(None)` is a value-level error: replay on the row path.
fn group_kernel(
    cols: &ColBatch,
    key_idx: &[usize],
    aggs: &[AggInput],
    workers: usize,
    gov: Option<&Governor>,
    op: &'static str,
) -> Result<Option<Grouped>> {
    let n = cols.len();
    if u32::try_from(n).is_err() || (key_idx.is_empty() && aggs.is_empty()) {
        return Ok(None);
    }
    let keys = KeyCols::new(cols, key_idx);
    // One partition's whole fold. `hashes` are precomputed for all rows in
    // a parallel run and computed per morsel in a serial one.
    let fold = |part: Option<(usize, usize)>, hashes: Option<&[u64]>| {
        let mut partition = Partition::new(&keys, cols, aggs);
        let mut scratch = Vec::new();
        let mut charged = 0u64;
        for lo in (0..n).step_by(MORSEL_ROWS) {
            let block = lo..n.min(lo + MORSEL_ROWS);
            let block_hashes = match hashes {
                Some(all) => &all[block.clone()],
                None => {
                    if !keys.is_empty() {
                        keys.hash_range(block.clone(), &mut scratch);
                    }
                    &scratch[..]
                }
            };
            let Some(folded) = partition.consume(block, block_hashes, part) else {
                return Ok(None);
            };
            ticks(gov, folded as u64, op)?;
            // Charge table and state as they grow, so a high-cardinality
            // key trips the budget while building rather than after.
            if let Some(g) = gov {
                let now = partition.bytes();
                g.reserve_mem(now - charged, op)?;
                charged = now;
            }
        }
        Ok(Some((partition.bytes(), partition.finish())))
    };

    if workers == 1 || keys.is_empty() {
        let Some((mem_bytes, out)) = fold(None, None)? else {
            return Ok(None);
        };
        return Ok(Some(Grouped {
            groups: if keys.is_empty() {
                1
            } else {
                out.first_rows.len()
            },
            first_rows: out.first_rows,
            agg_cols: out.agg_cols,
            mem_bytes,
        }));
    }

    let hashes: Vec<u64> = parallel_morsels(n, workers, |_, range| {
        ticks(gov, range.len() as u64, op)?;
        let mut out = Vec::new();
        keys.hash_range(range, &mut out);
        Ok(out)
    })?
    .concat();
    let parts = parallel_tasks((0..workers).collect(), |_, p| {
        fold(Some((p, workers)), Some(&hashes))
    })?;
    let Some(parts) = parts.into_iter().collect::<Option<Vec<_>>>() else {
        return Ok(None);
    };
    // Order the partitions' groups by first row: `order[k]` is the k-th
    // group's (first row, index into the partitions laid end to end).
    let mut order: Vec<(u32, u32)> = Vec::new();
    for (_, part) in &parts {
        let base = order.len() as u32;
        order.extend(
            part.first_rows
                .iter()
                .zip(base..)
                .map(|(&row, at)| (row, at)),
        );
    }
    order.sort_unstable();
    let perm: Vec<u32> = order.iter().map(|&(_, at)| at).collect();
    let agg_cols = (0..aggs.len())
        .map(|a| {
            let per_part: Vec<&ColumnChunk> = parts.iter().map(|(_, p)| &p.agg_cols[a]).collect();
            ColumnChunk::concat(&per_part).gather(&perm)
        })
        .collect();
    Ok(Some(Grouped {
        groups: order.len(),
        first_rows: order.iter().map(|&(row, _)| row).collect(),
        agg_cols,
        mem_bytes: parts.iter().map(|(bytes, _)| bytes).sum(),
    }))
}

/// Row-path group table footprint: per-group key and group values (each
/// with its `group_cols` heap cells), and accumulators.
fn group_footprint(aggs: &[AggSpec], group_cols: usize) -> usize {
    mem::size_of::<Key>()
        + mem::size_of::<(Row, GroupState)>()
        + group_cols * (mem::size_of::<KeyValue>() + mem::size_of::<Value>())
        + aggs.len() * mem::size_of::<Accumulator>()
}

/// The one output row of a global aggregate over zero input rows.
fn empty_aggregate_row(aggs: &[AggSpec]) -> Row {
    GroupState::new(aggs)
        .accs
        .into_iter()
        .map(Accumulator::finish)
        .collect()
}

/// One group's partial state on one worker.
struct PartialGroup {
    /// Global index of the first input row seen for this group — the merge
    /// key for both output ordering (serial first-seen order) and picking
    /// the representative group values.
    first_idx: usize,
    group_vals: Row,
    accs: Vec<Accumulator>,
    /// For DISTINCT aggregates: distinct input value -> (global index of
    /// its first occurrence, that first value). The accumulator for such a
    /// spec stays untouched until [`finish_partial_group`] replays the
    /// merged distinct values in first-occurrence order — reproducing the
    /// serial fold exactly (including which of `2` / `2.0` survives).
    distinct: Vec<Option<HashMap<KeyValue, (usize, Value)>>>,
}

impl PartialGroup {
    fn new(first_idx: usize, group_vals: Row, aggs: &[AggSpec]) -> PartialGroup {
        PartialGroup {
            first_idx,
            group_vals,
            accs: aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
            distinct: aggs
                .iter()
                .map(|a| {
                    if a.distinct {
                        Some(HashMap::new())
                    } else {
                        None
                    }
                })
                .collect(),
        }
    }

    fn update(
        &mut self,
        aggs: &[AggSpec],
        row: &[Value],
        row_idx: usize,
        outer: Option<&Env<'_>>,
        ctx: ExecCtx<'_>,
    ) -> Result<()> {
        for (i, spec) in aggs.iter().enumerate() {
            match &spec.arg {
                None => self.accs[i].count_row(),
                Some(arg) => {
                    let v = eval_on_row(arg, row, outer, ctx)?;
                    if let Some(seen) = &mut self.distinct[i] {
                        if !v.is_null() {
                            // First occurrence wins; a worker's row indexes
                            // are increasing, so entry() keeps the earliest.
                            seen.entry(KeyValue::from(&v)).or_insert((row_idx, v));
                        }
                    } else {
                        self.accs[i].update(&v)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Fold `other` (same group, another worker) into `self`.
    fn merge(&mut self, other: PartialGroup) -> Result<()> {
        if other.first_idx < self.first_idx {
            self.first_idx = other.first_idx;
            self.group_vals = other.group_vals;
        }
        for (acc, o) in self.accs.iter_mut().zip(other.accs) {
            acc.merge(o)?;
        }
        for (mine, theirs) in self.distinct.iter_mut().zip(other.distinct) {
            if let (Some(m), Some(t)) = (mine, theirs) {
                for (kv, (idx, v)) in t {
                    match m.entry(kv) {
                        Entry::Occupied(mut e) => {
                            if idx < e.get().0 {
                                e.insert((idx, v));
                            }
                        }
                        Entry::Vacant(e) => {
                            e.insert((idx, v));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Finish a merged group: replay DISTINCT values in global first-seen
/// order into their accumulators, then finalize all of them.
fn finish_partial_group(mut pg: PartialGroup) -> Result<Row> {
    for (i, seen) in pg.distinct.iter_mut().enumerate() {
        if let Some(seen) = seen.take() {
            let mut vals: Vec<(usize, Value)> = seen.into_values().collect();
            vals.sort_unstable_by_key(|(idx, _)| *idx);
            for (_, v) in vals {
                pg.accs[i].update(&v)?;
            }
        }
    }
    let mut row = pg.group_vals;
    row.extend(pg.accs.into_iter().map(Accumulator::finish));
    Ok(row)
}

/// Morsel-parallel aggregation on the row path: each worker folds the
/// morsels it claims into a private partial group table; the coordinator
/// merges the partial tables ([`Accumulator::merge`]) and emits groups
/// ordered by global first-seen row index — the exact group order of the
/// serial path.
#[allow(clippy::too_many_arguments)]
fn aggregate_parallel(
    rows: &[Row],
    workers: usize,
    group_exprs: &[BoundExpr],
    aggs: &[AggSpec],
    schema: &Schema,
    outer: Option<&Env<'_>>,
    stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Rows> {
    let gov = ctx.gov;
    let n = rows.len();
    let per_group = group_footprint(aggs, group_exprs.len());

    struct WorkerTable {
        groups: HashMap<Key, PartialGroup>,
        reserved_cap: usize,
    }
    let tables = parallel_fold(
        n,
        workers,
        || WorkerTable {
            groups: HashMap::new(),
            reserved_cap: 0,
        },
        |acc, range| {
            for idx in range {
                tick(gov, "aggregate")?;
                let row = &rows[idx];
                let group_vals = project_row(row, group_exprs, outer, ctx)?;
                let key = Key::from_values(&group_vals);
                match acc.groups.entry(key) {
                    Entry::Occupied(mut e) => {
                        e.get_mut().update(aggs, row, idx, outer, ctx)?;
                    }
                    Entry::Vacant(e) => {
                        let pg = e.insert(PartialGroup::new(idx, group_vals, aggs));
                        pg.update(aggs, row, idx, outer, ctx)?;
                    }
                }
                if acc.groups.capacity() > acc.reserved_cap {
                    if let Some(g) = gov {
                        g.reserve_mem(
                            ((acc.groups.capacity() - acc.reserved_cap) * per_group) as u64,
                            "aggregate",
                        )?;
                    }
                    acc.reserved_cap = acc.groups.capacity();
                }
            }
            Ok(())
        },
    )?;

    let est_mem: u64 = tables
        .iter()
        .map(|t| (t.groups.capacity() * per_group) as u64)
        .sum();
    if let Some(s) = stats {
        s.build_rows += n as u64;
        s.est_mem_bytes += est_mem;
    }

    // Merge worker tables; first-seen indexes make the merge order
    // irrelevant.
    let mut merged: HashMap<Key, PartialGroup> = HashMap::new();
    for table in tables {
        for (key, pg) in table.groups {
            match merged.entry(key) {
                Entry::Occupied(mut e) => e.get_mut().merge(pg)?,
                Entry::Vacant(e) => {
                    e.insert(pg);
                }
            }
        }
    }

    if group_exprs.is_empty() && merged.is_empty() {
        return Ok(Rows {
            schema: schema.clone(),
            rows: vec![empty_aggregate_row(aggs)],
        });
    }

    let mut groups: Vec<PartialGroup> = merged.into_values().collect();
    groups.sort_unstable_by_key(|pg| pg.first_idx);
    let mut out = Vec::with_capacity(groups.len());
    for pg in groups {
        out.push(finish_partial_group(pg)?);
    }
    Ok(Rows {
        schema: schema.clone(),
        rows: out,
    })
}

/// ORDER BY key comparison: NULLs sort last regardless of direction,
/// otherwise [`Value::total_cmp`] per key, descending keys reversed.
fn cmp_key_vecs(a: &[Value], b: &[Value], keys: &[(BoundExpr, bool)]) -> std::cmp::Ordering {
    for (i, (_, desc)) in keys.iter().enumerate() {
        let ord = match (a[i].is_null(), b[i].is_null()) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => std::cmp::Ordering::Greater,
            (false, true) => std::cmp::Ordering::Less,
            (false, false) => {
                let ord = a[i].total_cmp(&b[i]);
                if *desc {
                    ord.reverse()
                } else {
                    ord
                }
            }
        };
        if !ord.is_eq() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Sort rows by the ORDER BY keys. Keys are evaluated once per row
/// up front (decorate–sort–undecorate), so the comparator never re-runs
/// key expressions.
///
/// With `workers > 1` the decoration is morsel-parallel and the sort runs
/// as per-worker `sort_unstable_by` over contiguous runs followed by a
/// k-way merge. The comparator is extended with the original row index as
/// the final tie-break, which makes the unstable per-run sorts and the
/// merge reproduce the serial *stable* sort bit for bit.
fn exec_sort(
    mut input: Rows,
    keys: &[(BoundExpr, bool)],
    outer: Option<&Env<'_>>,
    ctx: ExecCtx<'_>,
    workers: usize,
) -> Result<Rows> {
    let gov = ctx.gov;
    if workers == 1 {
        let mut decorated: Vec<(Vec<Value>, Row)> = Vec::with_capacity(input.rows.len());
        for row in input.rows.drain(..) {
            tick(gov, "sort")?;
            let mut kv = Vec::with_capacity(keys.len());
            for (expr, _) in keys {
                kv.push(eval_on_row(expr, &row, outer, ctx)?);
            }
            decorated.push((kv, row));
        }
        decorated.sort_by(|(a, _), (b, _)| cmp_key_vecs(a, b, keys));
        input.rows = decorated.into_iter().map(|(_, r)| r).collect();
        return Ok(input);
    }

    // Evaluate the key vectors in parallel, then decorate each row with
    // (keys, original index) — the index doubles as the stability
    // tie-break below.
    let rows = mem::take(&mut input.rows);
    let chunks = parallel_morsels(rows.len(), workers, |_, range| {
        let mut out = Vec::with_capacity(range.len());
        for idx in range {
            tick(gov, "sort")?;
            let mut kv = Vec::with_capacity(keys.len());
            for (expr, _) in keys {
                kv.push(eval_on_row(expr, &rows[idx], outer, ctx)?);
            }
            out.push(kv);
        }
        Ok(out)
    })?;
    type Decorated = (Vec<Value>, usize, Row);
    let decorated: Vec<Decorated> = chunks
        .into_iter()
        .flatten()
        .zip(rows)
        .enumerate()
        .map(|(idx, (kv, row))| (kv, idx, row))
        .collect();

    // Split into contiguous runs and sort each on its own thread. The
    // (keys, index) comparator is a total order, so unstable sorting is
    // deterministic.
    let run_len = decorated.len().div_ceil(workers).max(1);
    let mut runs: Vec<Vec<Decorated>> = Vec::with_capacity(workers);
    let mut rest = decorated;
    while rest.len() > run_len {
        let tail = rest.split_off(run_len);
        runs.push(rest);
        rest = tail;
    }
    if !rest.is_empty() {
        runs.push(rest);
    }
    let mut sorted_runs: Vec<Vec<Decorated>> = parallel_tasks(runs, |_, mut run| {
        run.sort_unstable_by(|(a, ai, _), (b, bi, _)| cmp_key_vecs(a, b, keys).then(ai.cmp(bi)));
        Ok(run)
    })?;

    // K-way merge via iterated pairwise merges (k is small: <= workers).
    while sorted_runs.len() > 1 {
        let b = sorted_runs.pop().unwrap_or_default();
        let a = sorted_runs.pop().unwrap_or_default();
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut ia, mut ib) = (a.into_iter().peekable(), b.into_iter().peekable());
        loop {
            match (ia.peek(), ib.peek()) {
                (Some((ka, na, _)), Some((kb, nb, _))) => {
                    let take_a = cmp_key_vecs(ka, kb, keys).then(na.cmp(nb)).is_le();
                    if take_a {
                        merged.extend(ia.next());
                    } else {
                        merged.extend(ib.next());
                    }
                }
                (Some(_), None) => merged.extend(ia.by_ref()),
                (None, Some(_)) => merged.extend(ib.by_ref()),
                (None, None) => break,
            }
        }
        sorted_runs.push(merged);
    }
    input.rows = sorted_runs
        .pop()
        .unwrap_or_default()
        .into_iter()
        .map(|(_, _, r)| r)
        .collect();
    Ok(input)
}
