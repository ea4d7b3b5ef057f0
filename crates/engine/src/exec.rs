//! Plan executor: materialized, operator-at-a-time evaluation.
//!
//! Operators exchange [`Batch`]es: either freshly-computed owned rows or a
//! shared reference to pre-materialized rows (base-table scans and
//! materialized CTEs). Read-only consumers — join build/probe sides,
//! aggregation inputs, filters — iterate shared batches without copying
//! them, so a scan feeding a join never clones the whole table.
//!
//! Every operator is governed: hot loops call [`Governor::tick`]
//! cooperatively (kernels once per morsel, [`Governor::ticks`]), joins
//! account the rows they emit as they emit them ([`Governor::emit_rows`]),
//! join postings reserve their footprint once built, group tables as they
//! grow, and non-join operators batch-commit their output row counts.
//! Row and memory accounting is therefore *cumulative over intermediate
//! results* (a budget on total work), not an instantaneous peak.
//!
//! # One body per operator, one morsel driver
//!
//! Every operator loop is written once, as a closure over a range of input
//! rows, and handed to the morsel driver ([`fold_morsels`], [`for_morsels`],
//! [`fan_out`]) together with the operator's worker count
//! ([`par_workers`]: 1 for inputs under [`PAR_THRESHOLD`] rows or
//! [`ExecOptions::threads`](crate::plan::ExecOptions) `= 1`). With **one
//! worker the driver calls the closure once over `0..n` on the calling
//! thread** — no scoped thread, no atomic cursor, no per-morsel vectors.
//! With more, the input is split into [`MORSEL_ROWS`]-row morsels that
//! workers claim from a shared atomic cursor — the calling thread is worker
//! 0, the others are scoped std threads — and per-morsel outputs are
//! reassembled in morsel order. There is no second,
//! "serial" copy of any operator: `threads = 1` is the one-worker case of
//! the same code, so answers, errors and budget accounting cannot drift
//! between thread counts.
//!
//! What each operator does so that its result does not depend on how the
//! input was split: a hash join's build side is built serially — an inner
//! or left join's as row-id postings ([`crate::groupkey::Postings`], or
//! lent by the key index), a semi/anti join's as the set of its distinct
//! keys ([`crate::groupkey::KeySet`]) — and probe morsels only read it;
//! DISTINCT, and aggregation over columnar input, grouped or global, run
//! the group-key kernel ([`group_kernel`]), which folds on one worker where
//! each row is about its own group and otherwise merges morsel-local
//! partials in first-row order ([`crate::groupkey`]; over a `UNION ALL`
//! each branch is folded so, and the branches' partial states merged in
//! branch order); aggregation over row-shaped input folds per-worker
//! partial tables keyed by global first-seen row index, merged with SQL
//! NULL/three-valued-logic semantics preserved. A fold whose integer SUM
//! could overflow in some order of its rows, or that meets a value-level
//! error, runs on one worker: only it sees the running sums in row order.
//! ORDER BY evaluates its keys on the morsel driver and sorts once,
//! stably, on the calling thread. Float SUM/AVG accumulate in an exact
//! superaccumulator ([`crate::fsum`]), so aggregates are bit-identical at
//! every thread count.
//!
//! The [`Governor`] is shared by all workers (its counters are atomics):
//! every worker loop calls `tick`, and the first trip or error aborts the
//! remaining workers at their next morsel boundary. When several workers
//! fail, the error from the lowest-numbered morsel wins, keeping failures
//! deterministic. Correlated subqueries evaluated inside worker loops run
//! with one worker (no nested fan-out).

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::mem;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::col::{self, Bitmap, ColBatch, ColumnChunk, ColumnData};
use crate::error::{EngineError, Result};
use crate::expr::{BoundExpr, Env};
use crate::faults;
use crate::fsum::ExactSum;
use crate::governor::Governor;
use crate::groupkey::{
    self, AggInput, AggOutput, KeyCols, KeySet, PartOut, Partition, PostingRows, Postings,
};
use crate::index::{Index, IndexAccess};
use crate::kernels;
use crate::plan::{AggFunc, AggSpec, JoinType, Plan};
use crate::schema::Schema;
use crate::stats::{GroupPlan, JoinSide, NodeStats};
use crate::table::{Row, Rows};
use crate::value::{Key, KeyValue, Value};
use conquer_obs::Counter;

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

/// Shared execution context: the resource governor (if any) and the
/// worker-thread budget for morsel-parallel operators.
#[derive(Clone, Copy)]
struct ExecCtx<'g> {
    gov: Option<&'g Governor>,
    threads: usize,
}

/// Execute a correlated subquery plan to fully-owned rows. `outer` is the
/// enclosing row environment; the governor is inherited from it, so a
/// subquery stays under the enclosing query's budget. One worker: per-row
/// subqueries must not fan out nested thread pools.
pub fn execute(plan: &Plan, outer: Option<&Env<'_>>) -> Result<Rows> {
    let gov = outer.and_then(|e| e.gov);
    Ok(execute_plan(plan, outer, gov, 1, None)?.into_rows())
}

/// Execute a plan to a [`Batch`] with up to `threads` morsel workers per
/// operator — the entry point of `Database` query execution, CTE
/// materialization (which adopts a columnar output batch without
/// pivoting) and `EXPLAIN ANALYZE`. `stats`, when present, must mirror
/// the plan's shape ([`NodeStats::for_plan`]) and is filled with
/// per-operator runtime counters; per-worker counters are merged into
/// the single node of each operator, and `threads_used` records the
/// widest fan-out each one ran with.
pub fn execute_plan(
    plan: &Plan,
    outer: Option<&Env<'_>>,
    gov: Option<&Governor>,
    threads: usize,
    stats: Option<&mut NodeStats>,
) -> Result<Batch> {
    let ctx = ExecCtx {
        gov,
        threads: threads.max(1),
    };
    execute_ctx(plan, outer, stats, ctx)
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

/// The recursive executor: times the operator, runs it, and commits its
/// output rows to the governor.
fn execute_ctx(
    plan: &Plan,
    outer: Option<&Env<'_>>,
    stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Batch> {
    run_node(plan, stats, ctx, |stats| {
        let batch = exec_node(plan, outer, stats, ctx)?;
        let rows = batch.len();
        Ok((batch, rows))
    })
}

/// What every operator pays around its body, which returns its output and
/// how many rows that is: the governor's check at entry, the time and rows
/// in its stats node, and the rows committed to the governor.
fn run_node<T>(
    plan: &Plan,
    mut stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
    body: impl FnOnce(&mut Option<&mut NodeStats>) -> Result<(T, usize)>,
) -> Result<T> {
    if let Some(g) = ctx.gov {
        g.check_now(op_name(plan))?;
    }
    let start = stats.as_ref().map(|_| Instant::now());
    let result = body(&mut stats);
    if let (Some(s), Some(t)) = (stats, start) {
        s.invocations += 1;
        s.wall += t.elapsed();
        if let Ok((_, rows)) = &result {
            s.rows_out += *rows as u64;
        }
    }
    // Joins already accounted each emitted row; everything else commits its
    // output batch here, so the row budget bounds cumulative intermediate
    // results no matter which operator inflates them.
    if let (Some(g), Ok((_, rows))) = (ctx.gov, &result) {
        if !matches!(plan, Plan::HashJoin { .. } | Plan::NestedLoopJoin { .. }) {
            g.add_rows(*rows as u64, op_name(plan))?;
        }
    }
    result.map(|(out, _)| out)
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
// The morsel driver
// ---------------------------------------------------------------------------

/// Rows per morsel: large enough to amortize the atomic cursor claim,
/// small enough that work stealing balances skewed operators.
const MORSEL_ROWS: usize = 1024;

/// The most the one-worker group plan sizes its partial for at a time, as
/// a multiple of the groups it holds: five doublings, so that the head
/// morsel's estimate covers ~32 k groups at once and the next one ~1 M.
const RESERVE_GROWTH: usize = 32;

/// Inputs below this many rows run on one worker even when `threads > 1`:
/// the thread-spawn cost outweighs any parallel win on small batches.
const PAR_THRESHOLD: usize = 4 * MORSEL_ROWS;

/// Worker count for an operator over `n` input rows: 1 (run inline) for
/// small inputs or `threads = 1`, otherwise capped by the morsel count so
/// no worker is spawned without work.
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

/// Registry handles for the fan-out counters, resolved once: the driver is
/// the only place a query leaves its calling thread, so these count every
/// thread the executor ever spawns.
struct FanoutMetrics {
    /// [`fan_out`] calls that spawned (more than one worker).
    fanouts: Arc<Counter>,
    /// Scoped threads those calls spawned: one fewer than their workers,
    /// since the calling thread runs worker 0 itself.
    workers_spawned: Arc<Counter>,
}

fn fanout_metrics() -> &'static FanoutMetrics {
    static METRICS: OnceLock<FanoutMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = conquer_obs::registry();
        FanoutMetrics {
            fanouts: registry.counter("exec.morsel.fanouts"),
            workers_spawned: registry.counter("exec.morsel.workers_spawned"),
        }
    })
}

/// Run `body` once per element of `inputs` and return the results in input
/// order; of several failures the lowest-numbered input's wins. A single
/// input runs inline on the calling thread. With more, the calling thread
/// runs input 0 itself — under a `worker` span, its collectors already
/// installed — while every other input gets a scoped thread — the only
/// `thread::scope` in the executor — which adopts the calling thread's
/// trace so worker spans land in the query's collectors (a no-op when
/// nothing is being traced).
fn fan_out<It, W, F>(inputs: It, body: F) -> Result<Vec<W>>
where
    It: IntoIterator,
    It::IntoIter: ExactSizeIterator,
    It::Item: Send,
    W: Send,
    F: Fn(It::Item) -> Result<W> + Sync,
{
    let mut inputs = inputs.into_iter();
    if inputs.len() <= 1 {
        return inputs.map(body).collect();
    }
    let metrics = fanout_metrics();
    metrics.fanouts.inc();
    metrics.workers_spawned.add(inputs.len() as u64 - 1);
    let trace = conquer_obs::current_trace();
    // Workers are panic-free by policy (`deny(unwrap_used)`); mapping an
    // unwound one to a structured error is defense in depth.
    let panicked = |_| EngineError::Execution("parallel worker panicked".into());
    std::thread::scope(|scope| {
        let first = inputs.next();
        let handles: Vec<_> = inputs
            .enumerate()
            .map(|(w, input)| {
                let (trace, body) = (&trace, &body);
                scope.spawn(move || {
                    let _trace = trace.adopt_worker(w + 1);
                    body(input)
                })
            })
            .collect();
        let mine = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = trace
                .is_active()
                .then(|| conquer_obs::span("worker").field("worker", 0usize));
            first.map(&body)
        }));
        // Join every worker before looking at any result.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        let mine = mine.map_err(panicked)?.into_iter();
        mine.chain(joined.into_iter().map(|res| res.map_err(panicked)?))
            .collect()
    })
}

/// Fold `step` over the rows `0..n` into one accumulator per worker and
/// return the accumulators — the primitive every operator loop runs on.
///
/// One worker: `step` is called once, over `0..n`, on the calling thread.
/// More: workers claim [`MORSEL_ROWS`]-row morsels from a shared atomic
/// cursor (dynamic work stealing), each folding the morsels it claims — in
/// increasing order — into its own accumulator; the first error flips an
/// abort flag that stops the others at their next morsel boundary, and the
/// error from the lowest morsel wins. Accumulators come back in no
/// particular order, so what callers do with them must not depend on which
/// worker saw which morsel; they guarantee that by tracking global row
/// indexes.
fn fold_morsels<T, I, F>(n: usize, workers: usize, init: I, step: F) -> Result<Vec<T>>
where
    T: Send,
    I: Fn() -> T + Sync,
    F: Fn(&mut T, Range<usize>) -> Result<()> + Sync,
{
    if workers == 1 {
        let mut acc = init();
        step(&mut acc, 0..n)?;
        return Ok(vec![acc]);
    }
    let morsels = n.div_ceil(MORSEL_ROWS);
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let results = fan_out(0..workers, |_| {
        let mut acc = init();
        let mut failed = None;
        while !abort.load(Ordering::Relaxed) {
            let m = cursor.fetch_add(1, Ordering::Relaxed);
            if m >= morsels {
                break;
            }
            let lo = m * MORSEL_ROWS;
            if let Err(error) = step(&mut acc, lo..n.min(lo + MORSEL_ROWS)) {
                abort.store(true, Ordering::Relaxed);
                failed = Some(MorselError { morsel: m, error });
                break;
            }
        }
        Ok((acc, failed))
    })?;
    let (accs, errors): (Vec<T>, Vec<Option<MorselError>>) = results.into_iter().unzip();
    match errors.into_iter().flatten().min_by_key(|e| e.morsel) {
        Some(first) => Err(first.error),
        None => Ok(accs),
    }
}

/// Map `f` over the morsels of `0..n` and return the per-morsel results
/// *in row order* (one result, over `0..n`, with one worker) — callers
/// that concatenate them observe exactly the order a single pass produces.
fn for_morsels<T, F>(n: usize, workers: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(Range<usize>) -> Result<T> + Sync,
{
    let mut tagged: Vec<(usize, T)> = fold_morsels(n, workers, Vec::new, |out, range| {
        out.push((range.start, f(range)?));
        Ok(())
    })?
    .into_iter()
    .flatten()
    .collect();
    tagged.sort_unstable_by_key(|(start, _)| *start);
    Ok(tagged.into_iter().map(|(_, t)| t).collect())
}

/// Concatenate per-morsel output chunks (already in row order); a single
/// chunk — the one-worker case — passes through uncopied.
fn concat<T>(mut chunks: Vec<Vec<T>>) -> Vec<T> {
    if chunks.len() == 1 {
        return chunks.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// [`concat`] for morsel outputs that carry a counter beside their rows.
fn concat_counted<T>(chunks: Vec<(Vec<T>, u64)>) -> (Vec<T>, u64) {
    let count = chunks.iter().map(|(_, c)| c).sum();
    (
        concat(chunks.into_iter().map(|(out, _)| out).collect()),
        count,
    )
}

/// Record what a group-key kernel run over `rows` input rows did: its
/// fan-out, plan, groups and bytes.
fn note_grouping<T>(stats: &mut Option<&mut NodeStats>, g: &Grouped<T>, rows: usize) {
    note_threads(stats, g.workers);
    if let Some(s) = stats.as_deref_mut() {
        s.build_rows += rows as u64;
        s.est_mem_bytes += g.mem_bytes;
        s.group_plan = s.group_plan.max(Some(g.plan));
        s.groups += g.groups as u64;
    }
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
            ticks(gov, sel.len() as u64, "index_scan")?;
            let gathered = match access {
                // Index-only: the selection is one row per violated key,
                // and only its key columns are read.
                IndexAccess::Conflicts { project, .. } => {
                    conquer_obs::registry().counter("index.conflict_scan").inc();
                    let chunks = project
                        .iter()
                        .map(|&c| Arc::new(cols.col(c).gather(&sel)))
                        .collect();
                    ColBatch::from_chunks(sel.len(), chunks)
                }
                IndexAccess::Eq(_) | IndexAccess::Range { .. } => {
                    conquer_obs::registry().counter("index.probe").inc();
                    cols.gather(&sel)
                }
            };
            Ok(Batch::Col {
                cols: Arc::new(gathered),
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
            if let Batch::Col { cols, schema } = &child {
                if let Some(pred) = kernels::compile_predicate(predicate, cols) {
                    let n = cols.len();
                    let workers = par_workers(n, ctx.threads);
                    note_threads(stats, workers);
                    let sel: Vec<u32> = concat(for_morsels(n, workers, |range| {
                        ticks(gov, range.len() as u64, "filter")?;
                        let mut sel = Vec::new();
                        pred.select_into(cols, range, &mut sel)?;
                        Ok(sel)
                    })?);
                    return Ok(Batch::Col {
                        cols: Arc::new(cols.gather(&sel)),
                        schema: schema.clone(),
                    });
                }
            }
            let rows = child.rows();
            let workers = par_workers(rows.len(), ctx.threads);
            note_threads(stats, workers);
            let out = concat(for_morsels(rows.len(), workers, |range| {
                let mut out = Vec::new();
                for row in &rows[range] {
                    tick(gov, "filter")?;
                    if eval_predicate_on_row(predicate, row, outer, ctx)? == Some(true) {
                        out.push(row.clone());
                    }
                }
                Ok(out)
            })?);
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
            let rows = child.rows();
            let workers = par_workers(rows.len(), ctx.threads);
            note_threads(stats, workers);
            let out = concat(for_morsels(rows.len(), workers, |range| {
                let mut out = Vec::with_capacity(range.len());
                for row in &rows[range] {
                    tick(gov, "project")?;
                    out.push(project_row(row, exprs, outer, ctx)?);
                }
                Ok(out)
            })?);
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
            // An attached index stands in for the build only while it
            // describes the build side: the right child produced the exact
            // batch its postings were built over (snapshot semantics).
            // Anything else — pivoted rows, a different version's batch —
            // falls back to building a table for this query.
            let prebuilt = build_index.as_deref().filter(|idx| match &r {
                Batch::Col { cols, .. } => Arc::ptr_eq(cols, idx.batch()),
                Batch::Owned(_) => false,
            });
            exec_hash_join(
                l,
                r,
                *kind,
                left_keys,
                right_keys,
                residual.as_ref(),
                prebuilt,
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
            // An aggregate over a `UNION ALL` folds the branches one by one
            // and concatenates them only when that cannot be done.
            let child = if is_union_spine(input) {
                let mut branches = Vec::new();
                exec_union_branches(input, outer, child_stats(stats, 0), ctx, &mut branches)?;
                let folded = exec_aggregate_union(
                    &branches,
                    group_exprs,
                    aggs,
                    schema,
                    stats.as_deref_mut(),
                    ctx,
                )?;
                if let Some(out) = folded {
                    return Ok(out);
                }
                conquer_obs::registry()
                    .counter("exec.agg.union_concat")
                    .inc();
                let union = branches.into_iter().reduce(union_all);
                union.ok_or_else(|| EngineError::Execution("a union without branches".into()))?
            } else {
                execute_ctx(input, outer, child_stats(stats, 0), ctx)?
            };
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
            // The group-key kernel, every column a key column: the output
            // is the first row of each group, gathered (or the input itself
            // when nothing repeats). A row-shaped input becomes columns
            // first.
            let (schema, cols) = child.into_schema_cols();
            let all: Vec<usize> = (0..cols.width()).collect();
            let keys = KeyCols::new(&cols, &all);
            let kernel =
                group_kernel::<ColumnChunk>(&cols, &keys, &[], ctx.threads, gov, "distinct");
            let g = kernel?
                .ok_or_else(|| EngineError::Execution("DISTINCT cannot fail on a value".into()))?;
            note_grouping(stats, &g, cols.len());
            let cols = if g.first_rows.len() == cols.len() {
                cols
            } else {
                Arc::new(cols.gather(&g.first_rows))
            };
            Ok(Batch::Col { cols, schema })
        }
        Plan::UnionAll { left, right } => {
            faults::trip("union")?;
            let l = execute_ctx(left, outer, child_stats(stats, 0), ctx)?;
            let r = execute_ctx(right, outer, child_stats(stats, 1), ctx)?;
            Ok(union_all(l, r))
        }
        Plan::Sort { input, keys } => exec_sort(input, keys, None, outer, stats, ctx),
        Plan::Limit { input, n } => {
            faults::trip("limit")?;
            // A Sort right below runs as a top-N: it sorts only the rows
            // the limit keeps.
            let child = match &**input {
                Plan::Sort {
                    input: sorted,
                    keys,
                } => run_node(input, child_stats(stats, 0), ctx, |stats| {
                    let out = exec_sort(sorted, keys, Some(*n as usize), outer, stats, ctx)?;
                    let rows = out.len();
                    Ok((out, rows))
                })?,
                _ => execute_ctx(input, outer, child_stats(stats, 0), ctx)?,
            };
            let take = (*n as usize).min(child.len());
            if take == child.len() {
                return Ok(child);
            }
            if let Batch::Col { cols, schema } = &child {
                return Ok(Batch::Col {
                    cols: Arc::new(cols.head(take)),
                    schema: schema.clone(),
                });
            }
            let rows = child.rows()[..take].to_vec();
            Ok(Batch::Owned(Rows {
                schema: child.schema().clone(),
                rows,
            }))
        }
    }
}

/// Reborrow the stats node for child `i` of the current operator, keeping
/// the `Option` shape [`execute_ctx`] expects.
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
        None => expr.eval(&Env::governed(row, ctx.gov)),
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
        None => expr.eval_predicate(&Env::governed(row, ctx.gov)),
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

/// Key expressions over a batch read as key columns — a join side's keys,
/// ORDER BY's: columns `idx` of `batch`, row for row the batch's rows.
struct KeyColumns {
    batch: Arc<ColBatch>,
    idx: Vec<usize>,
    /// Bytes of the chunks evaluated for these keys; 0 when they are the
    /// batch's own.
    evaluated_bytes: u64,
}

/// `keys` over `side` as key columns: the batch's own chunks when the keys
/// are plain columns of a `Col` side; the compiled projection's chunks when
/// they compile against it and evaluate without a value-level error;
/// otherwise the key expressions evaluated once per row, in row order (on
/// the morsel driver, so the lowest row's error wins), into fresh chunks.
/// The evaluation ticks the governor under `op`.
fn key_columns(
    side: &Batch,
    keys: &[&BoundExpr],
    op: &'static str,
    outer: Option<&Env<'_>>,
    stats: &mut Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<KeyColumns> {
    let evaluated = |chunks: Vec<Arc<ColumnChunk>>, own: &[Arc<ColumnChunk>]| {
        let fresh = chunks
            .iter()
            .filter(|c| !own.iter().any(|o| Arc::ptr_eq(o, c)));
        KeyColumns {
            evaluated_bytes: fresh.map(|c| c.byte_size() as u64).sum(),
            batch: Arc::new(ColBatch::from_chunks(side.len(), chunks)),
            idx: (0..keys.len()).collect(),
        }
    };
    if let Batch::Col { cols, .. } = side {
        if let Some(idx) = kernels::column_indices(keys.iter().copied()) {
            return Ok(KeyColumns {
                batch: Arc::clone(cols),
                idx,
                evaluated_bytes: 0,
            });
        }
        if let Some(projection) = kernels::compile_projection(keys.iter().copied(), cols) {
            ticks(ctx.gov, cols.len() as u64, op)?;
            if let Some(chunks) = projection.eval(cols) {
                return Ok(evaluated(chunks, cols.cols()));
            }
        }
    }
    let rows = side.rows();
    let workers = par_workers(rows.len(), ctx.threads);
    note_threads(stats, workers);
    let mut morsels = for_morsels(rows.len(), workers, |range| {
        let mut vals: Vec<Vec<Value>> = keys
            .iter()
            .map(|_| Vec::with_capacity(range.len()))
            .collect();
        for row in &rows[range] {
            tick(ctx.gov, op)?;
            for (col, key) in vals.iter_mut().zip(keys) {
                col.push(eval_on_row(key, row, outer, ctx)?);
            }
        }
        Ok(vals)
    })?;
    let chunks: Vec<Arc<ColumnChunk>> = (0..keys.len())
        .map(|k| {
            let vals = morsels.iter_mut().flat_map(|m| mem::take(&mut m[k]));
            Arc::new(ColumnChunk::from_values(vals))
        })
        .collect();
    Ok(evaluated(chunks, &[]))
}

/// [`key_columns`] for a hash join's side.
fn join_keys(
    side: &Batch,
    keys: &[BoundExpr],
    outer: Option<&Env<'_>>,
    stats: &mut Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<KeyColumns> {
    let keys: Vec<&BoundExpr> = keys.iter().collect();
    key_columns(side, &keys, "hash_join", outer, stats, ctx)
}

/// The build side of a hash join: row-id postings over its key columns
/// ([`Postings`]) — built for this query, or lent with its batch and key
/// columns by a prebuilt [`Index`] the optimizer attached. Either way a
/// key's rows come out ascending, NULL keys absent, so every probe and
/// emission path downstream is identical.
struct JoinTable<'a> {
    postings: Cow<'a, Postings>,
    keys: KeyColumns,
}

impl JoinTable<'_> {
    /// The build rows holding `key`, which has no NULL component.
    fn get(&self, key: &[KeyValue]) -> Option<PostingRows<'_>> {
        let g = self.postings.find(&self.keys.batch, &self.keys.idx, key)?;
        Some(self.postings.rows(g))
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_hash_join(
    left: Batch,
    right: Batch,
    kind: JoinType,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
    residual: Option<&BoundExpr>,
    prebuilt: Option<&Index>,
    schema: &Schema,
    outer: Option<&Env<'_>>,
    mut stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Batch> {
    let gov = ctx.gov;
    let existence = matches!(kind, JoinType::Semi | JoinType::Anti);
    if existence && residual.is_some() {
        // The planner makes existence joins of key equalities alone, and
        // their body tests nothing else.
        return Err(EngineError::Execution(
            "a semi/anti hash join with a residual condition".into(),
        ));
    }
    // The table is built over the right side and probed with the left —
    // except that an inner join builds on the smaller side, residual or
    // not: a candidate pair is laid out left ++ right whichever side was
    // probed, so the residual reads the same row either way. Swapped, rows
    // come out in original-right (probe) order. An attached index pins the
    // build to the right side: probing a prebuilt structure beats
    // re-hashing the smaller input. This is the one place a build side is
    // chosen.
    let swap = kind == JoinType::Inner && left.len() < right.len() && prebuilt.is_none();
    if let Some(s) = stats.as_deref_mut() {
        let (built, probed) = if swap {
            (&left, &right)
        } else {
            (&right, &left)
        };
        s.build_rows += built.len() as u64;
        s.probe_rows += probed.len() as u64;
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

    // Every build — key set, postings or prebuilt — fires `join.build`.
    faults::trip("join.build")?;
    if let Some(s) = stats.as_deref_mut() {
        s.build_side = Some(if swap {
            JoinSide::Left
        } else {
            JoinSide::Right
        });
    }

    // Existence joins (decorrelated EXISTS / NOT EXISTS, the hot shape of
    // ConQuer's rewritings) have one body, whatever their keys and sides;
    // it asks of a key only whether it is there, so it has no use for an
    // index's postings.
    if existence {
        return exec_existence_join(
            (left, left_keys),
            (&right, right_keys),
            kind == JoinType::Semi,
            schema,
            outer,
            &emit,
            stats,
            ctx,
        );
    }

    // An inner or left join, built on the side chosen above.
    let (build, build_keys, probe, probe_keys) = if swap {
        (&left, left_keys, &right, right_keys)
    } else {
        (&right, right_keys, &left, left_keys)
    };

    // The optimizer's prebuilt index lends its postings; otherwise they are
    // built, in one serial pass over the build side's key columns, and
    // charged with any key chunks evaluated for them. A database-resident
    // index costs the query nothing.
    let table = match prebuilt {
        Some(index) => {
            conquer_obs::registry().counter("index.probe").inc();
            JoinTable {
                postings: Cow::Borrowed(index.postings()),
                keys: KeyColumns {
                    batch: Arc::clone(index.batch()),
                    idx: index.cols().to_vec(),
                    evaluated_bytes: 0,
                },
            }
        }
        None => {
            if u32::try_from(build.len()).is_err() {
                return Err(EngineError::Execution(format!(
                    "a hash join's build side of {} rows does not fit u32 row ids",
                    build.len()
                )));
            }
            let keys = join_keys(build, build_keys, outer, &mut stats, ctx)?;
            ticks(gov, build.len() as u64, "hash_join")?;
            let postings = Postings::build(&keys.batch, &keys.idx);
            let bytes = postings.bytes() + keys.evaluated_bytes;
            if let Some(g) = gov {
                g.reserve_mem(bytes, "hash_join")?;
            }
            if let Some(s) = stats.as_deref_mut() {
                s.est_mem_bytes += bytes;
            }
            conquer_obs::registry().counter("exec.join.built").inc();
            JoinTable {
                postings: Cow::Owned(postings),
                keys,
            }
        }
    };

    faults::trip("join.probe")?;
    let probe_workers = par_workers(probe.len(), ctx.threads);
    note_threads(&mut stats, probe_workers);
    let probe_keys = join_keys(probe, probe_keys, outer, &mut stats, ctx)?;
    let probe_cols: Vec<&ColumnChunk> = probe_keys
        .idx
        .iter()
        .map(|&c| probe_keys.batch.col(c))
        .collect();

    // The probe side is read through its row view (pivoted once, cached).
    // A build row is read only for a candidate pair — the join emits it,
    // a residual is evaluated over it — its cells written straight from
    // the build batch's columns into the pair, so a join served by a base
    // table's index costs the rows it touches, not a pivot of the table.
    let probe_rows = probe.rows();
    let build_width = build.schema().len();
    // A candidate pair laid out left ++ right, whichever side was probed.
    let pair = |prow: &Row, bi: usize| -> Row {
        let mut combined = Vec::with_capacity(prow.len() + build_width);
        if !swap {
            combined.extend_from_slice(prow);
        }
        match build {
            Batch::Owned(r) => combined.extend_from_slice(&r.rows[bi]),
            Batch::Col { cols, .. } => combined.extend(cols.cols().iter().map(|c| c.value_at(bi))),
        }
        if swap {
            combined.extend_from_slice(prow);
        }
        combined
    };
    // The per-row matching logic is the same at any worker count, and
    // morsel outputs concatenate back to one pass's emission order (probe
    // rows in order; per-key build indexes in global build order).
    let chunks = for_morsels(probe_rows.len(), probe_workers, |range| {
        let mut comparisons = 0u64;
        let mut out = Vec::new();
        let mut key = Vec::with_capacity(probe_cols.len());
        for pi in range {
            let prow = &probe_rows[pi];
            tick(gov, "hash_join")?;
            key.clear();
            key.extend(probe_cols.iter().map(|c| KeyValue::from(&c.value_at(pi))));
            let matches = if key.contains(&KeyValue::Null) {
                None
            } else {
                table.get(&key)
            };
            let mut matched = false;
            for bi in matches.into_iter().flatten() {
                comparisons += 1;
                let combined = pair(prow, bi as usize);
                // Residual conditions are part of the ON clause: they
                // decide whether this candidate pair is a match.
                if let Some(res) = residual {
                    if eval_predicate_on_row(res, &combined, outer, ctx)? != Some(true) {
                        continue;
                    }
                }
                matched = true;
                emit(1)?;
                out.push(combined);
            }
            if kind == JoinType::LeftOuter && !matched {
                emit(1)?;
                let mut combined = prow.clone();
                combined.extend(std::iter::repeat_n(Value::Null, build_width));
                out.push(combined);
            }
        }
        Ok((out, comparisons))
    })?;
    let (out, comparisons) = concat_counted(chunks);
    if build.cols().is_some() {
        // Every candidate pair read one build row out of its columns.
        col::note_pivot("exec.pivot.to_rows", comparisons as usize);
    }
    if let Some(s) = stats {
        s.comparisons += comparisons;
    }
    Ok(Batch::Owned(Rows {
        schema: schema.clone(),
        rows: out,
    }))
}

/// The existence-join body, every semi/anti hash join's: which rows of the
/// probe side have (`keep_matched`, a semi join) or lack (an anti join) a
/// row of the build side with an equal non-NULL key. Both sides' keys are
/// read as key columns ([`join_keys`]). The build side's distinct keys go
/// into one [`KeySet`], folded serially a morsel at a time and charged as
/// it grows — 20 B a key, the keys staying in their columns — so whether a
/// budget trips does not depend on the thread count. Probe morsels are
/// then hashed under the set's seed and looked up, and the surviving rows
/// picked: gathered from a columnar probe side (the batch itself when
/// every row survives), taken from a row-shaped one. Governor work is per
/// morsel: one `ticks`, one `emit`. A probe row that finds its key counts
/// one comparison.
#[allow(clippy::too_many_arguments)]
fn exec_existence_join(
    (probe, probe_keys): (Batch, &[BoundExpr]),
    (build, build_keys): (&Batch, &[BoundExpr]),
    keep_matched: bool,
    schema: &Schema,
    outer: Option<&Env<'_>>,
    emit: &(impl Fn(usize) -> Result<()> + Sync),
    mut stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Batch> {
    let gov = ctx.gov;
    conquer_obs::registry().counter("exec.join.kernel").inc();
    let (n, nb) = (probe.len(), build.len());
    if u32::try_from(n.max(nb)).is_err() {
        return Err(EngineError::Execution(format!(
            "an existence join's sides of {n} and {nb} rows do not fit u32 row ids"
        )));
    }
    let build_keys = join_keys(build, build_keys, outer, &mut stats, ctx)?;
    let keys = KeyCols::new(&build_keys.batch, &build_keys.idx);
    let (mut set, mut charged) = (KeySet::new(&keys), 0);
    for lo in (0..nb).step_by(MORSEL_ROWS) {
        let block = lo..nb.min(lo + MORSEL_ROWS);
        ticks(gov, block.len() as u64, "hash_join")?;
        set.consume(block);
        charge(set.bytes(), &mut charged, gov, "hash_join")?;
    }
    if let Some(s) = stats.as_deref_mut() {
        s.est_mem_bytes += set.bytes();
    }

    faults::trip("join.probe")?;
    let probe_keys = join_keys(&probe, probe_keys, outer, &mut stats, ctx)?;
    let probe_cols = keys.seeded_like(&probe_keys.batch, &probe_keys.idx);
    let workers = par_workers(n, ctx.threads);
    note_threads(&mut stats, workers);
    let chunks = for_morsels(n, workers, |range| {
        let (mut sel, mut hashes, mut comparisons) = (Vec::new(), Vec::new(), 0);
        for lo in range.clone().step_by(MORSEL_ROWS) {
            let block = lo..range.end.min(lo + MORSEL_ROWS);
            ticks(gov, block.len() as u64, "hash_join")?;
            probe_cols.hash_range(block.clone(), &mut hashes);
            let kept = sel.len();
            comparisons += set.select_into(&probe_cols, block, &hashes, keep_matched, &mut sel);
            emit(sel.len() - kept)?;
        }
        Ok((sel, comparisons))
    })?;
    let (sel, comparisons) = concat_counted(chunks);
    if let Some(s) = stats {
        s.comparisons += comparisons;
    }
    let schema = schema.clone();
    Ok(match probe {
        Batch::Col { cols, .. } if sel.len() == n => Batch::Col { cols, schema },
        Batch::Col { cols, .. } => Batch::Col {
            cols: Arc::new(cols.gather(&sel)),
            schema,
        },
        Batch::Owned(Rows { mut rows, .. }) => {
            if sel.len() < n {
                // `sel` ascends, so each row is taken once.
                rows = sel
                    .iter()
                    .map(|&i| mem::take(&mut rows[i as usize]))
                    .collect();
            }
            Batch::Owned(Rows { schema, rows })
        }
    })
}

/// Nested-loop join. The outer (left) loop is what the morsel driver
/// splits: each left row's inner scan is independent, and concatenating
/// morsel outputs gives one pass's emission order for every join kind.
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
    // granularity is left-side morsels — a left under one morsel runs on
    // one worker regardless of how large the right side is.
    let pairs = left_rows.len().saturating_mul(right_rows.len());
    let workers = par_workers(pairs, ctx.threads).min(left_rows.len().div_ceil(MORSEL_ROWS).max(1));
    note_threads(&mut stats, workers);
    let chunks = for_morsels(left_rows.len(), workers, |range| {
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
    })?;
    let (out, comparisons) = concat_counted(chunks);
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
    SumFloat { sum: ExactSum, seen: bool },
    MinMax { best: Option<Value>, is_min: bool },
    Avg { sum: ExactSum, count: i64 },
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
                sum: ExactSum::new(),
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
                    let mut promoted = ExactSum::new();
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

    /// Fold another worker's partial state for the same aggregate spec
    /// into `self`. NULL-skipping semantics are encoded in the partial
    /// states already (`seen` flags, `count`s), so merging is pure
    /// arithmetic; mixed Int/Float SUM partials promote to float exactly
    /// as [`Accumulator::update`] does on its first float input.
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

    /// [`merge`](Accumulator::merge) for partials whose rows interleave —
    /// morsels that workers claimed — rather than follow each other: a
    /// MIN/MAX tie between two representations of one value (`2` and
    /// `2.0`, `-0.0` and `0.0`) has no row order left to keep the first
    /// by, so it is a value-level error, which the caller replays on one
    /// worker.
    pub(crate) fn merge_unordered(&mut self, other: Accumulator) -> Result<()> {
        if let (
            Accumulator::MinMax { best: Some(a), .. },
            Accumulator::MinMax { best: Some(b), .. },
        ) = (&*self, &other)
        {
            let same = match (a, b) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => mem::discriminant(a) == mem::discriminant(b),
            };
            if !same && a.sql_cmp(b)?.is_some_and(|o| o.is_eq()) {
                return Err(EngineError::Eval("MIN/MAX tie across partials".into()));
            }
        }
        self.merge(other)
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
            Accumulator::SumFloat { sum, seen } => {
                if seen {
                    Value::Float(sum.to_f64())
                } else {
                    Value::Null
                }
            }
            Accumulator::MinMax { best, .. } => best.unwrap_or(Value::Null),
            Accumulator::Avg { sum, count } => {
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

fn exec_aggregate(
    input: Batch,
    group_exprs: &[BoundExpr],
    aggs: &[AggSpec],
    schema: &Schema,
    outer: Option<&Env<'_>>,
    mut stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Batch> {
    // Kernel path: plain-column group keys and aggregate arguments over a
    // columnar input run without pivoting. `None` is a value-level error,
    // which replays on the row path so the reported error is the one a
    // row-major scan hits first.
    if let (Some(cols), Some((gidx, inputs))) = (input.cols(), kernel_inputs(group_exprs, aggs)) {
        let out = exec_aggregate_columnar(cols, (&gidx, &inputs), schema, &mut stats, ctx)?;
        if let Some(out) = out {
            return Ok(out);
        }
    }
    let out = aggregate_rows(
        input.rows(),
        group_exprs,
        aggs,
        schema,
        outer,
        &mut stats,
        ctx,
    )?;
    Ok(Batch::Owned(out))
}

/// The group-key kernel's view of an aggregate: its key columns and one
/// [`AggInput`] per aggregate, or `None` when a key or an argument is not a
/// plain column.
fn kernel_inputs(
    group_exprs: &[BoundExpr],
    aggs: &[AggSpec],
) -> Option<(Vec<usize>, Vec<AggInput>)> {
    let gidx = kernels::column_indices(group_exprs)?;
    let inputs = aggs.iter().map(|spec| {
        let col = match &spec.arg {
            None => None,
            Some(BoundExpr::Column { depth: 0, index }) => Some(*index),
            Some(_) => return None,
        };
        Some(AggInput {
            func: spec.func,
            col,
            distinct: spec.distinct,
        })
    });
    Some((gidx, inputs.collect::<Option<_>>()?))
}

/// Aggregation over columnar input, grouped or global, on the group-key
/// kernel. Key columns come out as a gather of each group's first row,
/// aggregate columns typed from the kernel's state vectors — the result
/// stays columnar. `Ok(None)` is a value-level error to replay on the row
/// path.
fn exec_aggregate_columnar(
    cols: &ColBatch,
    (gidx, inputs): (&[usize], &[AggInput]),
    schema: &Schema,
    stats: &mut Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Option<Batch>> {
    let keys = KeyCols::new(cols, gidx);
    let kernel =
        group_kernel::<ColumnChunk>(cols, &keys, inputs, ctx.threads, ctx.gov, "aggregate");
    let Some(g) = kernel? else {
        return Ok(None);
    };
    note_grouping(stats, &g, cols.len());
    let mut chunks: Vec<Arc<ColumnChunk>> = gidx
        .iter()
        .map(|&c| Arc::new(cols.col(c).gather(&g.first_rows)))
        .collect();
    chunks.extend(g.aggs.into_iter().map(Arc::new));
    Ok(Some(Batch::Col {
        cols: Arc::new(ColBatch::from_chunks(g.groups, chunks)),
        schema: schema.clone(),
    }))
}

/// Workers a fold of `inputs` over `cols` may split its rows across:
/// [`par_workers`]'s, or one when an integer SUM could overflow in some
/// order of the rows ([`int_sum_reach`]) — only one worker sees the
/// running sums in row order, which decide whether it does.
fn fold_workers(cols: &ColBatch, inputs: &[AggInput], threads: usize) -> usize {
    let workers = par_workers(cols.len(), threads);
    let reach = |input| int_sum_reach(cols, input) > i64::MAX as u128;
    if workers > 1 && inputs.iter().any(reach) {
        1
    } else {
        workers
    }
}

/// `Ok(None)` for a value-level error (what the kernels replay elsewhere),
/// the result or any other error as it is.
fn value_error_as_none<T>(result: Result<T>) -> Result<Option<T>> {
    match result {
        Ok(t) => Ok(Some(t)),
        Err(EngineError::TypeError(_) | EngineError::Eval(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Is `plan` a `UNION ALL`, possibly under renames: an input an aggregate
/// can fold branch by branch ([`exec_aggregate_union`])?
fn is_union_spine(plan: &Plan) -> bool {
    match plan {
        Plan::UnionAll { .. } => true,
        Plan::Rename { input, .. } => is_union_spine(input),
        _ => false,
    }
}

/// Execute the branches of a union spine ([`is_union_spine`]) in order,
/// nested unions flattened, into `out`: the batches its `UnionAll`s would
/// have concatenated. The renames and unions run nothing, but each keeps
/// what [`execute_ctx`] does for an operator — governor check, fault
/// point, stats, the rows it commits.
fn exec_union_branches(
    plan: &Plan,
    outer: Option<&Env<'_>>,
    stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
    out: &mut Vec<Batch>,
) -> Result<()> {
    let (point, children) = match plan {
        Plan::UnionAll { left, right } => ("union", vec![&**left, &**right]),
        Plan::Rename { input, .. } if is_union_spine(input) => ("rename", vec![&**input]),
        _ => {
            out.push(execute_ctx(plan, outer, stats, ctx)?);
            return Ok(());
        }
    };
    run_node(plan, stats, ctx, |stats| {
        faults::trip(point)?;
        let first = out.len();
        for (i, child) in children.into_iter().enumerate() {
            exec_union_branches(child, outer, child_stats(stats, i), ctx, out)?;
        }
        Ok(((), out[first..].iter().map(Batch::len).sum()))
    })
}

/// `left UNION ALL right`. With a columnar side the chunks are
/// concatenated (a row-shaped other side is pivoted into columns first);
/// an empty side passes the other one through untouched.
fn union_all(left: Batch, right: Batch) -> Batch {
    if left.cols().is_none() && right.cols().is_none() {
        let mut rows = left.into_rows();
        rows.rows.extend(right.into_rows().rows);
        return Batch::Owned(rows);
    }
    let schema = left.schema().clone();
    let cols = if right.is_empty() {
        left.into_schema_cols().1
    } else if left.is_empty() {
        right.into_schema_cols().1
    } else {
        let (l, r) = (left.into_schema_cols().1, right.into_schema_cols().1);
        Arc::new(l.concat(&r))
    };
    Batch::Col { cols, schema }
}

/// GROUP BY — grouped or global — straight over the branches of a `UNION
/// ALL`: each branch is folded in its own column layout, never
/// concatenated, by the kernel its batch would get ([`group_kernel`]) into
/// one partial [`Accumulator`] per group. Groups are
/// matched across branches by the kernel's key equality
/// ([`groupkey::match_groups`]) and their partials merged in branch order
/// ([`Accumulator::merge`], which promotes an integer sum meeting a float
/// one exactly as [`Accumulator::update`] does), so groups come out in the
/// concatenation's first-seen order holding what one fold over it holds.
///
/// `Ok(None)` hands the branches back to be concatenated and aggregated
/// like any input: a key or argument that is not a plain column, a
/// DISTINCT aggregate, a row-shaped branch, a value-level error in a
/// branch, and an integer sum whose partials do not prove that one fold
/// would not overflow part-way through a later branch ([`int_sum_reach`]).
fn exec_aggregate_union(
    branches: &[Batch],
    group_exprs: &[BoundExpr],
    aggs: &[AggSpec],
    schema: &Schema,
    mut stats: Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Option<Batch>> {
    let Some((gidx, inputs)) = kernel_inputs(group_exprs, aggs) else {
        return Ok(None);
    };
    let Some(cols) = branches.iter().map(Batch::cols).collect::<Option<Vec<_>>>() else {
        return Ok(None);
    };
    if aggs.iter().any(|a| a.distinct) {
        return Ok(None);
    }
    // Every branch's keys hash under one seed, so that equal keys hash
    // alike across branches whatever their layouts.
    let first = KeyCols::new(cols[0], &gidx);
    let mut keys: Vec<KeyCols> = cols[1..]
        .iter()
        .map(|b| first.seeded_like(b, &gidx))
        .collect();
    keys.insert(0, first);
    // Per branch: its partials, [aggregate][group], and its groups' first
    // rows and key hashes.
    let (mut partials, mut groups_of, mut mem_bytes) = (Vec::new(), Vec::new(), 0);
    let mut way = GroupPlan::OneWorker;
    for (b, &batch) in cols.iter().enumerate() {
        let kernel = group_kernel::<Vec<Accumulator>>(
            batch,
            &keys[b],
            &inputs,
            ctx.threads,
            ctx.gov,
            "aggregate",
        )?;
        let Some(g) = kernel else {
            return Ok(None);
        };
        note_threads(&mut stats, g.workers);
        way = way.max(g.plan);
        mem_bytes += g.mem_bytes;
        partials.push(g.aggs);
        groups_of.push((g.first_rows, g.hashes));
    }
    let groups: Vec<(&[u32], &[u64])> = groups_of.iter().map(|(r, h)| (&r[..], &h[..])).collect();
    let ids = groupkey::match_groups(&keys, &groups);

    // Merge in branch order. `merged[a][g]`: aggregate `a` of group `g`.
    let mut merged: Vec<Vec<Accumulator>> = aggs.iter().map(|_| Vec::new()).collect();
    let (mut groups, mut new_keys) = (0, Vec::new());
    for (b, (branch, ids)) in partials.into_iter().zip(&ids).enumerate() {
        for ((a, accs), input) in branch.into_iter().enumerate().zip(&inputs) {
            let reach = if b == 0 {
                0
            } else {
                int_sum_reach(cols[b], input)
            };
            for (partial, &g) in accs.into_iter().zip(ids) {
                let Some(acc) = merged[a].get_mut(g as usize) else {
                    merged[a].push(partial);
                    continue;
                };
                if let Accumulator::SumInt { sum, seen: true } = acc {
                    if u128::from(sum.unsigned_abs()) + reach > i64::MAX as u128 {
                        return Ok(None);
                    }
                }
                if value_error_as_none(acc.merge(partial))?.is_none() {
                    return Ok(None);
                }
            }
        }
        // The first rows of this branch's groups that no branch before it
        // holds: where the output's new keys are.
        let firsts: Vec<u32> = groups_of[b]
            .0
            .iter()
            .zip(ids)
            .filter(|&(_, &g)| g as usize >= groups)
            .map(|(&row, _)| row)
            .collect();
        groups += firsts.len();
        new_keys.push((cols[b], firsts));
    }

    conquer_obs::registry()
        .counter("exec.agg.union_parts")
        .inc();
    if let Some(s) = stats {
        s.build_rows += cols.iter().map(|c| c.len() as u64).sum::<u64>();
        s.est_mem_bytes += mem_bytes;
        s.union_parts = cols.len() as u64;
        s.group_plan = s.group_plan.max(Some(way));
        s.groups += groups as u64;
    }
    let mut chunks: Vec<Arc<ColumnChunk>> = gidx
        .iter()
        .map(|&c| {
            let parts: Vec<ColumnChunk> = new_keys
                .iter()
                .map(|(b, rows)| b.col(c).gather(rows))
                .collect();
            Arc::new(ColumnChunk::concat(&parts.iter().collect::<Vec<_>>()))
        })
        .collect();
    chunks.extend(merged.into_iter().map(|accs| Arc::new(finish_column(accs))));
    Ok(Some(Batch::Col {
        cols: Arc::new(ColBatch::from_chunks(groups, chunks)),
        schema: schema.clone(),
    }))
}

/// One aggregate's merged partials, finished into its output column. Float
/// sums and averages — NULL where they met no value — round straight into
/// a `Float` column; anything else goes through [`ColumnChunk::from_values`],
/// which lays out the same column for them.
fn finish_column(accs: Vec<Accumulator>) -> ColumnChunk {
    let float = |acc: &Accumulator| match acc {
        Accumulator::SumFloat { sum, seen: true } => Some(Some(sum.to_f64())),
        Accumulator::SumFloat { seen: false, .. }
        | Accumulator::SumInt { seen: false, .. }
        | Accumulator::Avg { count: 0, .. } => Some(None),
        // One exact sum, one rounding, one division.
        Accumulator::Avg { sum, count } => Some(Some(sum.to_f64() / *count as f64)),
        _ => None,
    };
    let floats: Option<Vec<Option<f64>>> = accs.iter().map(float).collect();
    match floats {
        Some(xs) if xs.iter().any(Option::is_some) => {
            let valid: Vec<bool> = xs.iter().map(Option::is_some).collect();
            ColumnChunk {
                data: ColumnData::Float(xs.into_iter().map(|x| x.unwrap_or(0.0)).collect()),
                validity: Bitmap::from_flags(&valid),
            }
        }
        _ => ColumnChunk::from_values(accs.into_iter().map(Accumulator::finish)),
    }
}

/// How far the integers a SUM reads in `batch` can move one group's running
/// sum: its rows times the largest magnitude among them. An integer running
/// sum at least this far from overflowing cannot overflow while this
/// batch's integers are added to it, in whatever order and split into
/// whatever partials, so merged partials are what one fold in row order
/// computes; closer, that fold might overflow part-way through, and only
/// it can say. From a zero start: a reach within `i64` lets workers split
/// the batch ([`fold_workers`], [`group_kernel`]).
fn int_sum_reach(batch: &ColBatch, input: &AggInput) -> u128 {
    let (AggFunc::Sum, Some(c)) = (input.func, input.col) else {
        return 0;
    };
    let largest = match &batch.col(c).data {
        ColumnData::Int(xs) => xs.iter().map(|x| x.unsigned_abs()).max(),
        ColumnData::Any(vs) => vs
            .iter()
            .filter_map(|v| match v {
                Value::Int(x) => Some(x.unsigned_abs()),
                _ => None,
            })
            .max(),
        _ => None,
    };
    u128::from(largest.unwrap_or(0)) * batch.len() as u128
}

/// What [`group_kernel`] hands back: per group, in first-seen order, the
/// row its key values live at and one output per aggregate — a column
/// ([`ColumnChunk`]) or per-group partials (`Vec<Accumulator>`).
struct Grouped<T> {
    /// First input row of each group, ascending. A global aggregate (no
    /// key columns) is one group at row 0, even over no rows.
    first_rows: Vec<u32>,
    /// Each group's key hash, under the seed of the keys it was folded by.
    hashes: Vec<u64>,
    groups: usize,
    aggs: Vec<T>,
    /// Bytes of table and state charged to the governor.
    mem_bytes: u64,
    /// Workers the rows were folded on: 1 for the one-worker plan.
    workers: usize,
    plan: GroupPlan,
}

/// Drive the typed group-key kernel ([`crate::groupkey`]) over `cols`:
/// group on `keys` (key columns of `cols`) and fold `aggs` on up to
/// `threads` workers. The calling thread folds morsel 0 into its own
/// partial first, and what that shows picks one of two plans:
///
/// - **One worker** where splitting would not pay or could not be exact:
///   more groups than half the morsel's rows (each row about its own
///   group, so partials would reduce nothing and only be merged), a
///   DISTINCT aggregate, an integer SUM that could overflow in some order
///   of the rows ([`fold_workers`]), an input under the parallel
///   threshold. The caller folds the rest into the same partial: exactly
///   what `threads = 1` computes. With many groups, the caller sizes that
///   partial ahead as it folds rather than letting it double its way up
///   ([`fold_alone`]); the governor is still charged per group held.
/// - **Morsel-local partials** otherwise: the other morsels go to
///   [`fold_morsels`]' shared cursor, each worker folding the ones it
///   claims into a partial of its own, and those are merged into the
///   caller's in first-row order ([`Partition::merge`]).
///
/// Only the caller's partial charges the governor, as it grows (groupkey
/// invariant 5). `exec.agg.one_worker` / `exec.agg.partials` count the
/// plan taken where more than one worker could have run. `Ok(None)` is a
/// value-level error: replay on the row path.
fn group_kernel<T: AggOutput>(
    cols: &ColBatch,
    keys: &KeyCols<'_>,
    aggs: &[AggInput],
    threads: usize,
    gov: Option<&Governor>,
    op: &'static str,
) -> Result<Option<Grouped<T>>> {
    let n = cols.len();
    if u32::try_from(n).is_err() || (keys.is_empty() && aggs.is_empty()) {
        return Ok(None);
    }
    let (mut grouped, mut charged) = (Partition::new(keys, cols, aggs), 0);
    let head = n.min(MORSEL_ROWS);
    if fold_alone(&mut grouped, 0..head, false, &mut charged, gov, op)?.is_none() {
        return Ok(None);
    }
    let many = grouped.groups() * 2 > head;
    let alone = many || aggs.iter().any(|a| a.distinct);
    let workers = if alone || n == head {
        1
    } else {
        fold_workers(cols, aggs, threads).min((n - head).div_ceil(MORSEL_ROWS))
    };
    let plan = if workers == 1 {
        if fold_alone(&mut grouped, head..n, many, &mut charged, gov, op)?.is_none() {
            return Ok(None);
        }
        GroupPlan::OneWorker
    } else {
        let partials = fold_morsels(
            n - head,
            workers,
            || Partition::new(keys, cols, aggs),
            |part, morsel| {
                ticks(gov, morsel.len() as u64, op)?;
                let rows = head + morsel.start..head + morsel.end;
                part.consume(rows)
                    .ok_or_else(|| EngineError::Eval("a value-level error in a partial".into()))
            },
        );
        let Some(partials) = value_error_as_none(partials)? else {
            return Ok(None);
        };
        if grouped.merge(partials).is_none() {
            return Ok(None);
        }
        charge(grouped.bytes(), &mut charged, gov, op)?;
        GroupPlan::Partials
    };
    if par_workers(n, threads) > 1 {
        let counter = match plan {
            GroupPlan::OneWorker => "exec.agg.one_worker",
            GroupPlan::Partials => "exec.agg.partials",
        };
        conquer_obs::registry().counter(counter).inc();
    }
    let (groups, mem_bytes) = (grouped.groups(), grouped.bytes());
    let out: PartOut<T> = grouped.finish();
    Ok(Some(Grouped {
        first_rows: out.first_rows,
        hashes: out.hashes,
        groups,
        aggs: out.aggs,
        mem_bytes,
        workers,
        plan,
    }))
}

/// Fold `rows` into `part` on the calling thread a morsel at a time,
/// ticking per morsel and charging what the partial grew by. With `size`,
/// while the partial holds about a group per row folded, it is sized ahead
/// whenever the next morsel could outgrow it: for the groups the rest of
/// the input brings at the rate so far, when that at least doubles its
/// room, but at most [`RESERVE_GROWTH`]× the groups it holds and within
/// what the memory budget has left ([`Partition::reserve`]). `Ok(None)` is
/// a value-level error.
fn fold_alone(
    part: &mut Partition<'_>,
    rows: Range<usize>,
    size: bool,
    charged: &mut u64,
    gov: Option<&Governor>,
    op: &'static str,
) -> Result<Option<()>> {
    for lo in rows.clone().step_by(MORSEL_ROWS) {
        let block = lo..rows.end.min(lo + MORSEL_ROWS);
        let (groups, capacity) = (part.groups(), part.capacity());
        if size && lo > 0 && groups * 2 > lo && groups + block.len() > capacity {
            let estimate = (groups * rows.end / lo).min(groups * RESERVE_GROWTH);
            // At least a doubling, as a vector grows by itself: an estimate
            // creeping up block by block must not reallocate every block.
            if estimate >= 2 * capacity {
                part.reserve(estimate, gov.and_then(Governor::mem_room));
            }
        }
        ticks(gov, block.len() as u64, op)?;
        if part.consume(block).is_none() {
            return Ok(None);
        }
        charge(part.bytes(), charged, gov, op)?;
    }
    Ok(Some(()))
}

/// Bring what a growing structure has charged the governor, `charged`, up
/// to the bytes it holds `now`.
fn charge(now: u64, charged: &mut u64, gov: Option<&Governor>, op: &'static str) -> Result<()> {
    if let Some(g) = gov {
        g.reserve_mem(now.saturating_sub(*charged), op)?;
    }
    *charged = now;
    Ok(())
}

/// Row-path group table footprint: per-group key and group values (each
/// with its `group_cols` heap cells), and accumulators.
fn group_footprint(aggs: &[AggSpec], group_cols: usize) -> usize {
    mem::size_of::<Key>()
        + mem::size_of::<PartialGroup>()
        + group_cols * (mem::size_of::<KeyValue>() + mem::size_of::<Value>())
        + aggs.len() * mem::size_of::<Accumulator>()
}

/// One untouched accumulator per aggregate. Finished as they are, they
/// are the one output row of a global aggregate over zero input rows.
fn fresh_accumulators(aggs: &[AggSpec]) -> Vec<Accumulator> {
    aggs.iter().map(|a| Accumulator::new(a.func)).collect()
}

/// One group's partial state on one worker.
struct PartialGroup {
    /// Global index of the first input row seen for this group — the merge
    /// key for both output ordering (first-seen order) and picking the
    /// representative group values.
    first_idx: usize,
    group_vals: Row,
    accs: Vec<Accumulator>,
    /// For DISTINCT aggregates: distinct input value -> (global index of
    /// its first occurrence, that first value). The accumulator for such a
    /// spec stays untouched until [`finish_partial_group`] replays the
    /// merged distinct values in first-occurrence order — what one pass
    /// over the rows would fold (including which of `2` / `2.0` survives).
    distinct: Vec<Option<HashMap<KeyValue, (usize, Value)>>>,
}

impl PartialGroup {
    fn new(first_idx: usize, group_vals: Row, aggs: &[AggSpec]) -> PartialGroup {
        PartialGroup {
            first_idx,
            group_vals,
            accs: fresh_accumulators(aggs),
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

    /// Fold row `row_idx`, adding the magnitude of every integer a SUM
    /// folds straight away (not a DISTINCT one) to `reach`.
    #[allow(clippy::too_many_arguments)]
    fn update(
        &mut self,
        aggs: &[AggSpec],
        row: &[Value],
        row_idx: usize,
        outer: Option<&Env<'_>>,
        ctx: ExecCtx<'_>,
        reach: &mut u128,
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
                        if let (AggFunc::Sum, Value::Int(x)) = (spec.func, &v) {
                            *reach += u128::from(x.unsigned_abs());
                        }
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
            acc.merge_unordered(o)?;
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

/// Aggregation on the row path: each worker folds the morsels it claims
/// into its own partial group table ([`fold_groups`]) and groups are
/// emitted ordered by global first-seen row index. Partials whose integer
/// SUMs could overflow in some order of the rows, or that meet a
/// value-level error, are dropped and the rows folded again on one worker:
/// only it sees the running sums in row order, and so meets the error a
/// row-major scan meets first, or none.
fn aggregate_rows(
    rows: &[Row],
    group_exprs: &[BoundExpr],
    aggs: &[AggSpec],
    schema: &Schema,
    outer: Option<&Env<'_>>,
    stats: &mut Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Rows> {
    let mut workers = par_workers(rows.len(), ctx.threads);
    let (merged, mem_bytes) = loop {
        match fold_groups(rows, workers, group_exprs, aggs, outer, ctx) {
            Err(EngineError::Eval(_) | EngineError::TypeError(_)) if workers > 1 => workers = 1,
            folded => break folded?,
        }
    };
    note_threads(stats, workers);
    if let Some(s) = stats.as_deref_mut() {
        s.build_rows += rows.len() as u64;
        s.est_mem_bytes += mem_bytes;
    }

    // A global aggregate (no GROUP BY) over zero rows yields one row of
    // "empty" aggregate values.
    if group_exprs.is_empty() && merged.is_empty() {
        let row = fresh_accumulators(aggs)
            .into_iter()
            .map(Accumulator::finish)
            .collect();
        return Ok(Rows {
            schema: schema.clone(),
            rows: vec![row],
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

/// The row path's fold: each of `workers` folds the morsels it claims into
/// its own partial group table, reserving memory as the table grows so a
/// high-cardinality GROUP BY trips the budget while building rather than
/// after; the other workers' tables are then merged into the first
/// ([`Accumulator::merge_unordered`]). Returns the merged table and the
/// bytes its partials were estimated at. Partials whose integer SUMs add
/// magnitudes past `i64` might hold sums that one fold in row order
/// overflows on: an `Eval` error, as a value-level error inside the fold is.
fn fold_groups(
    rows: &[Row],
    workers: usize,
    group_exprs: &[BoundExpr],
    aggs: &[AggSpec],
    outer: Option<&Env<'_>>,
    ctx: ExecCtx<'_>,
) -> Result<(HashMap<Key, PartialGroup>, u64)> {
    let gov = ctx.gov;
    let per_group = group_footprint(aggs, group_exprs.len());

    #[derive(Default)]
    struct WorkerTable {
        groups: HashMap<Key, PartialGroup>,
        reserved_cap: usize,
        /// Magnitudes of the integers the SUMs folded, added up.
        reach: u128,
    }
    let tables = fold_morsels(rows.len(), workers, WorkerTable::default, |acc, range| {
        for idx in range {
            tick(gov, "aggregate")?;
            let row = &rows[idx];
            let group_vals = project_row(row, group_exprs, outer, ctx)?;
            let key = Key::from_values(&group_vals);
            let pg = match acc.groups.entry(key) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(PartialGroup::new(idx, group_vals, aggs)),
            };
            pg.update(aggs, row, idx, outer, ctx, &mut acc.reach)?;
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
    })?;
    if tables.len() > 1 && tables.iter().map(|t| t.reach).sum::<u128>() > i64::MAX as u128 {
        return Err(EngineError::Eval(
            "integer SUM partials could overflow".into(),
        ));
    }
    let mem_bytes = tables
        .iter()
        .map(|t| (t.groups.capacity() * per_group) as u64)
        .sum();

    // First-seen indexes make the merge order irrelevant.
    let mut tables = tables.into_iter().map(|t| t.groups);
    let mut merged = tables.next().unwrap_or_default();
    for table in tables {
        for (key, pg) in table {
            match merged.entry(key) {
                Entry::Occupied(mut e) => e.get_mut().merge(pg)?,
                Entry::Vacant(e) => {
                    e.insert(pg);
                }
            }
        }
    }
    Ok((merged, mem_bytes))
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

/// ORDER BY over `input`'s rows, or — when a LIMIT right above asks for
/// its first `top` rows — only those. One body for every input:
///
/// 1. The keys become columns ([`key_columns`]): a `Col` input's own
///    chunks or its compiled projection, a row-shaped input's keys
///    evaluated once per row.
/// 2. A typed comparator per key column ([`SortKey`]) orders a `u32`
///    permutation, ties broken by row: the order is total, so the sort is
///    stable and the same, bit for bit, at any worker count.
/// 3. With `top`, a selection by (key, row) keeps the first `top` rows and
///    only those are sorted.
/// 4. The permutation is applied as a gather (`Col`, which stays
///    columnar) or as a move of the rows (`Owned`).
fn exec_sort(
    input: &Plan,
    keys: &[(BoundExpr, bool)],
    top: Option<usize>,
    outer: Option<&Env<'_>>,
    stats: &mut Option<&mut NodeStats>,
    ctx: ExecCtx<'_>,
) -> Result<Batch> {
    faults::trip("sort")?;
    let child = execute_ctx(input, outer, child_stats(stats, 0), ctx)?;
    let n = child.len();
    let rows = u32::try_from(n).map_err(|_| {
        EngineError::Execution(format!("a sort of {n} rows does not fit u32 row ids"))
    })?;
    ticks(ctx.gov, n as u64, "sort")?;
    let exprs: Vec<&BoundExpr> = keys.iter().map(|(e, _)| e).collect();
    let cols = key_columns(&child, &exprs, "sort", outer, stats, ctx)?;
    let sort_keys: Vec<SortKey<'_>> = cols
        .idx
        .iter()
        .zip(keys)
        .map(|(&c, &(_, desc))| SortKey::new(cols.batch.col(c), desc))
        .collect();
    let cmp = |a: &u32, b: &u32| {
        let (i, j) = (*a as usize, *b as usize);
        let by_key = sort_keys.iter().map(|k| k.cmp(i, j)).find(|o| o.is_ne());
        by_key.unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(b))
    };
    let mut order: Vec<u32> = (0..rows).collect();
    if let Some(k) = top.filter(|&k| k < n) {
        if k > 0 {
            order.select_nth_unstable_by(k - 1, cmp);
        }
        order.truncate(k);
    }
    order.sort_unstable_by(cmp);
    if let (Some(s), Some(k)) = (stats.as_deref_mut(), top) {
        s.top_n = Some(k as u64);
    }
    Ok(match child {
        Batch::Col { cols, schema } => Batch::Col {
            cols: Arc::new(cols.gather(&order)),
            schema,
        },
        Batch::Owned(Rows { schema, mut rows }) => Batch::Owned(Rows {
            schema,
            rows: order
                .iter()
                .map(|&i| mem::take(&mut rows[i as usize]))
                .collect(),
        }),
    })
}

/// One ORDER BY key column, read typed: NULLs sort last whichever the
/// direction; otherwise the values' order ([`Value::total_cmp`]'s — NaN
/// after every number, `-0.0` equal to `0.0`), reversed when descending.
struct SortKey<'a> {
    data: &'a ColumnData,
    validity: Option<&'a Bitmap>,
    desc: bool,
}

impl<'a> SortKey<'a> {
    fn new(chunk: &'a ColumnChunk, desc: bool) -> SortKey<'a> {
        SortKey {
            data: &chunk.data,
            validity: chunk.validity.as_ref(),
            desc,
        }
    }

    fn cmp(&self, a: usize, b: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        let nulls = match (self.data, self.validity) {
            (ColumnData::Any(vs), _) => (vs[a].is_null(), vs[b].is_null()),
            (_, Some(bm)) => (!bm.get(a), !bm.get(b)),
            (_, None) => (false, false),
        };
        match nulls {
            (false, false) => {}
            (null_a, null_b) => return null_a.cmp(&null_b),
        }
        let ord = match self.data {
            ColumnData::Int(xs) => xs[a].cmp(&xs[b]),
            ColumnData::Float(xs) => crate::value::float_cmp(xs[a], xs[b]),
            ColumnData::Date(xs) => xs[a].cmp(&xs[b]),
            ColumnData::Bool(xs) => xs[a].cmp(&xs[b]),
            ColumnData::Text { codes, dict } if codes[a] != codes[b] => {
                dict.get(codes[a]).cmp(dict.get(codes[b]))
            }
            ColumnData::Text { .. } => Ordering::Equal,
            ColumnData::Any(vs) => vs[a].total_cmp(&vs[b]),
        };
        if self.desc {
            ord.reverse()
        } else {
            ord
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_keeps_input_order_and_maps_panics() {
        let squares = fan_out(0..5u32, |i| Ok(i * i)).expect("no worker fails");
        assert_eq!(squares, [0, 1, 4, 9, 16]);
        // The calling thread's share (input 0) and a spawned one alike.
        for bad in [0, 3] {
            let out = fan_out(0..4, |i| {
                assert_ne!(i, bad, "worker {i} panics");
                Ok(i)
            });
            assert!(
                matches!(out, Err(EngineError::Execution(_))),
                "a panic in share {bad}: {out:?}"
            );
        }
    }

    #[test]
    fn sizing_ahead_stays_within_the_memory_budget() {
        use crate::governor::ResourceLimits;
        use crate::schema::{Column, DataType};
        // 20 000 groups, one a row, with 20 MIN/MAX states each.
        let n = 20_000;
        let mut columns = vec![Column::bare("k", DataType::Integer)];
        columns.extend((0..10).map(|c| Column::bare(&format!("v{c}"), DataType::Float)));
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let mut row = vec![Value::Int(i as i64)];
                row.extend((0..10).map(|c| Value::Float((i * 10 + c) as f64)));
                row
            })
            .collect();
        let batch = ColBatch::from_rows(&Schema::new(columns), rows);
        let keys = KeyCols::new(&batch, &[0]);
        let aggs: Vec<AggInput> = (1..=10)
            .flat_map(|c| {
                [AggFunc::Min, AggFunc::Max].map(|func| AggInput {
                    func,
                    col: Some(c),
                    distinct: false,
                })
            })
            .collect();
        let fold = |gov: Option<&Governor>| {
            let (mut part, mut charged) = (Partition::new(&keys, &batch, &aggs), 0);
            let head = fold_alone(&mut part, 0..MORSEL_ROWS, false, &mut charged, gov, "t");
            assert!(matches!(head, Ok(Some(()))));
            let rest = fold_alone(&mut part, MORSEL_ROWS..n, true, &mut charged, gov, "t");
            (part, rest)
        };
        // Unbudgeted, the partial is sized ahead rather than doubled: room
        // for every group, taken at most 32× the groups held at a time.
        let (part, rest) = fold(None);
        assert!(matches!(rest, Ok(Some(()))));
        assert_eq!(part.groups(), n);
        assert!(part.capacity() >= n && part.capacity() < 2 * n);
        // A head morsel of distinct keys over an input that only repeats
        // them: the estimate is bounded by the groups seen, not the rows.
        let repeats = ColBatch::from_rows(
            &Schema::new(vec![Column::bare("k", DataType::Integer)]),
            (0..100_000).map(|i| vec![Value::Int(i % 1024)]).collect(),
        );
        let keys = KeyCols::new(&repeats, &[0]);
        let (mut part, mut charged) = (Partition::new(&keys, &repeats, &[]), 0);
        for (rows, size) in [(0..MORSEL_ROWS, false), (MORSEL_ROWS..100_000, true)] {
            let folded = fold_alone(&mut part, rows, size, &mut charged, None, "t");
            assert!(matches!(folded, Ok(Some(()))));
        }
        assert_eq!(part.groups(), 1024);
        assert!(
            part.capacity() <= RESERVE_GROWTH * 1024,
            "{}",
            part.capacity()
        );
        // Under a budget the head morsel's ~1 000 groups fit in, the room
        // taken ahead stays within it (a group's `group_bytes` is all its
        // bytes here); past that the partial grows by doubling, as it
        // always could, so it trips at most one doubling over.
        for budget in [512 * 1024, 1024 * 1024, 2048 * 1024] {
            let limits = ResourceLimits::unlimited().with_max_memory_bytes(budget);
            let gov = Governor::new(limits, None);
            let (part, rest) = fold(Some(&gov));
            assert!(matches!(rest, Err(EngineError::MemoryExceeded(_))));
            let group_bytes = part.bytes() / part.groups() as u64;
            let (room, held) = (part.capacity(), part.groups());
            assert!(
                room as u64 * group_bytes <= budget || room <= 2 * held,
                "budget {budget}: room for {room} groups of {group_bytes} B, {held} held"
            );
        }
    }

    #[test]
    fn unordered_min_max_merges_refuse_ties_between_representations() {
        let best = |v: Value| Accumulator::MinMax {
            best: Some(v),
            is_min: true,
        };
        let merged = |a: Value, b: Value| {
            let mut acc = best(a);
            acc.merge_unordered(best(b)).map(|()| acc.finish())
        };
        for (a, b) in [
            (Value::Int(2), Value::Float(2.0)),
            (Value::Float(-0.0), Value::Float(0.0)),
            (Value::Float(0.0), Value::Int(0)),
        ] {
            assert!(matches!(merged(a, b), Err(EngineError::Eval(_))));
        }
        // One representation, or no tie: the better one, as `merge` keeps.
        for (a, b, min) in [
            (Value::Float(2.0), Value::Float(2.0), Value::Float(2.0)),
            (Value::Int(3), Value::Float(2.5), Value::Float(2.5)),
            (Value::str("b"), Value::str("a"), Value::str("a")),
        ] {
            // Variant for variant: `Value`'s `==` has `2 == 2.0`.
            let got = merged(a, b).expect("no tie");
            assert_eq!(format!("{got:?}"), format!("{min:?}"));
        }
    }
}
