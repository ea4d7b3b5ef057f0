//! The planner/binder: turns a parsed [`Query`] into an executable [`Plan`].
//!
//! CTEs are materialized at plan time (the paper materializes its
//! `Candidates`/`Filter` subexpressions explicitly, Section 6.1); an
//! [`ExecOptions`] flag re-inlines them instead, for the ablation study.
//! Equality-correlated `EXISTS`/`NOT EXISTS` predicates are decorrelated
//! into hash semi/anti joins; a second flag disables that and falls back to
//! per-row nested-loop evaluation. A third, [`ExecOptions::optimize`],
//! turns the optimizer off as a whole — join order as written, no
//! [`crate::opt`] pass over query or CTE bodies (`Planner::optimize` is
//! the one place it runs), no CTE pruning — which is the reference plan the
//! planner differential compares production against.
//!
//! This module is also the one place that knows the layout of a [`Plan`]
//! node: [`Plan::children`] / [`Plan::children_mut`] /
//! [`Plan::map_children`] give a node's inputs and [`Plan::exprs`] /
//! [`Plan::exprs_mut`] its own expressions, and every traversal elsewhere
//! (depth analysis, the optimizer passes, `EXPLAIN`, runtime stats) is
//! written over those instead of matching on the variants.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use conquer_sql::ast::{
    self, is_aggregate_function, BinaryOp, Cte, Expr, Query, Select, SelectItem, SetExpr, TableRef,
    UnaryOp,
};
use conquer_sql::Literal;

use crate::col::ColBatch;
use crate::database::{Database, TableReads};
use crate::error::{EngineError, Result};
use crate::exec;
use crate::expr::{BoundExpr, ScalarFunc, SubqueryKind};
use crate::faults;
use crate::governor::{CancellationToken, Governor, ResourceLimits};
use crate::index::IndexAccess;
use crate::schema::{Column, DataType, Schema};
use crate::stats::NodeStats;
use crate::value::Value;

/// Planner/executor options; the defaults match the paper's configuration.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Materialize `WITH` subexpressions once per query (Section 6.1 of the
    /// paper found this essential for the rewritings). When `false`, each
    /// CTE reference re-plans and re-executes the CTE body.
    pub materialize_ctes: bool,
    /// Rewrite equality-correlated `EXISTS`/`NOT EXISTS` into hash
    /// semi/anti joins. When `false`, they run as per-row nested loops.
    pub decorrelate_exists: bool,
    /// Run the optimizer: cost-based greedy join ordering, then filter
    /// pushdown below joins (the host-optimizer behaviour Section 5 of the
    /// paper relies on for the `conscand` guard), hash build-side selection
    /// and access-path selection over every query and CTE body, and
    /// projection pruning of materialized CTEs. When `false` the plan runs
    /// as written — first-connected join order, every post-join predicate
    /// above its join, sequential scans — which is the reference the
    /// planner differential and the ablation study compare against.
    pub optimize: bool,
    /// Resource budget for the query (unlimited by default). Covers plan
    /// time too: CTE materialization runs under the same governor.
    pub limits: ResourceLimits,
    /// Cooperative cancellation: keep a clone, call `cancel()` from any
    /// thread, and the running query unwinds with
    /// [`EngineError::Cancelled`](crate::EngineError).
    pub cancellation: Option<CancellationToken>,
    /// Worker threads per operator for the morsel driver. `1` runs every
    /// operator body inline, once over its whole input — the same code
    /// the fan-out runs per morsel, with no thread spawned; the
    /// default is [`std::thread::available_parallelism`], overridable via
    /// the `CONQUER_THREADS` environment variable (which lets CI run the
    /// whole test suite at a fixed thread count).
    pub threads: usize,
    /// Per-query trace context. When set, the engine installs it for the
    /// duration of each public entry point, so every span the query closes
    /// — including spans closed by morsel worker threads, which adopt the
    /// installing thread's collectors — accumulates under one
    /// [`QueryId`](conquer_obs::QueryId). `None` (the default) traces
    /// nothing beyond the always-on histograms.
    pub trace: Option<conquer_obs::TraceContext>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            materialize_ctes: true,
            decorrelate_exists: true,
            optimize: true,
            limits: ResourceLimits::default(),
            cancellation: None,
            threads: default_threads(),
            trace: None,
        }
    }
}

/// Default worker-thread count: `CONQUER_THREADS` when set, otherwise the
/// machine's available parallelism (1 when that cannot be determined).
fn default_threads() -> usize {
    if let Ok(raw) = std::env::var("CONQUER_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl ExecOptions {
    /// Builder-style resource budget.
    pub fn with_limits(mut self, limits: ResourceLimits) -> ExecOptions {
        self.limits = limits;
        self
    }

    /// Builder-style cancellation token.
    pub fn with_cancellation(mut self, token: CancellationToken) -> ExecOptions {
        self.cancellation = Some(token);
        self
    }

    /// Builder-style worker-thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> ExecOptions {
        self.threads = threads.max(1);
        self
    }

    /// Builder-style trace context.
    pub fn with_trace(mut self, trace: conquer_obs::TraceContext) -> ExecOptions {
        self.trace = Some(trace);
        self
    }
}

/// Join flavours of the physical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    LeftOuter,
    /// Emit left rows with at least one match (output schema = left).
    Semi,
    /// Emit left rows with no match (output schema = left).
    Anti,
}

/// One aggregate computation.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    /// `None` for `COUNT(*)`.
    pub arg: Option<BoundExpr>,
    pub distinct: bool,
}

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn by_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }
}

/// An executable operator tree.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Scan of a pre-materialized column batch (base table or materialized
    /// CTE). The schema carries the binding qualifier; the batch is shared
    /// (column chunks are `Arc`s, so a scan never copies table data).
    Scan {
        cols: Arc<ColBatch>,
        schema: Schema,
    },
    /// Index point/range scan: probe a secondary index for a selection
    /// vector and gather the matching rows from the same shared batch a
    /// full [`Plan::Scan`] would read. The plan holds the built
    /// [`Index`] directly (snapshot semantics, like `Scan` holds its
    /// batch): execution never consults the catalog, so concurrent
    /// `INSERT`/`DROP` cannot skew a running query. The planner only
    /// attaches an index built over `cols` itself. Under
    /// [`IndexAccess::Conflicts`] the scan is index-only: one row per
    /// violated key group, of the key columns the access projects, and
    /// `schema` describes that output rather than `cols`.
    IndexScan {
        cols: Arc<ColBatch>,
        schema: Schema,
        index: Arc<crate::index::Index>,
        access: crate::index::IndexAccess,
    },
    /// A single empty row — the input of `SELECT` without `FROM`.
    Unit,
    Filter {
        input: Box<Plan>,
        predicate: BoundExpr,
    },
    Project {
        input: Box<Plan>,
        exprs: Vec<BoundExpr>,
        schema: Schema,
    },
    /// Rename/requalify the input schema without touching rows.
    Rename {
        input: Box<Plan>,
        schema: Schema,
    },
    HashJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        kind: JoinType,
        left_keys: Vec<BoundExpr>,
        right_keys: Vec<BoundExpr>,
        /// Extra join condition over the concatenated row, part of the ON
        /// clause (affects match decisions for outer joins).
        residual: Option<BoundExpr>,
        /// When set, the build side (always `right`) is served by this
        /// prebuilt index's postings instead of a per-query hash build —
        /// the "IndexLookupJoin" access path. The optimizer only attaches
        /// an index built over the right child's scan batch whose key
        /// columns match `right_keys` exactly; probing
        /// and row emission are byte-identical to the built table. Never
        /// attached to a residual-free semi/anti join: an existence test
        /// reads no postings (the executor's typed kernel needs only the
        /// build side's key columns).
        build_index: Option<Arc<crate::index::Index>>,
        schema: Schema,
    },
    /// Fallback join for non-equi or missing ON conditions.
    NestedLoopJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        kind: JoinType,
        on: Option<BoundExpr>,
        schema: Schema,
    },
    Aggregate {
        input: Box<Plan>,
        group_exprs: Vec<BoundExpr>,
        aggs: Vec<AggSpec>,
        schema: Schema,
    },
    Distinct {
        input: Box<Plan>,
    },
    UnionAll {
        left: Box<Plan>,
        right: Box<Plan>,
    },
    Sort {
        input: Box<Plan>,
        keys: Vec<(BoundExpr, bool)>,
    },
    Limit {
        input: Box<Plan>,
        n: u64,
    },
}

impl Plan {
    /// Output schema of this operator.
    pub fn schema(&self) -> &Schema {
        match self {
            Plan::Scan { schema, .. } => schema,
            Plan::Unit => {
                static EMPTY: Schema = Schema {
                    columns: Vec::new(),
                };
                &EMPTY
            }
            Plan::Filter { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => input.schema(),
            Plan::IndexScan { schema, .. }
            | Plan::Project { schema, .. }
            | Plan::Rename { schema, .. }
            | Plan::HashJoin { schema, .. }
            | Plan::NestedLoopJoin { schema, .. }
            | Plan::Aggregate { schema, .. } => schema,
            Plan::UnionAll { left, .. } => left.schema(),
        }
    }

    /// The index whose conflict list this node scans, when it is such a
    /// scan (seen through renames, which move no column).
    pub fn as_conflict_scan(&self) -> Option<&Arc<crate::index::Index>> {
        match self {
            Plan::Rename { input, .. } => input.as_conflict_scan(),
            Plan::IndexScan {
                index,
                access: IndexAccess::Conflicts { .. },
                ..
            } => Some(index),
            _ => None,
        }
    }

    /// Total rows embedded in this plan's scan leaves — the base-table
    /// (and materialized-CTE) input the plan reads, i.e. its "rows in"
    /// for trace summaries.
    pub fn base_rows(&self) -> u64 {
        match self {
            Plan::Scan { cols, .. } | Plan::IndexScan { cols, .. } => cols.len() as u64,
            _ => self.children().iter().map(|c| c.base_rows()).sum(),
        }
    }

    /// The operator's inputs, in execution order (left before right).
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } | Plan::IndexScan { .. } | Plan::Unit => Vec::new(),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Rename { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => vec![input],
            Plan::HashJoin { left, right, .. }
            | Plan::NestedLoopJoin { left, right, .. }
            | Plan::UnionAll { left, right } => vec![left, right],
        }
    }

    /// [`Plan::children`], mutably and in the same order.
    pub fn children_mut(&mut self) -> Vec<&mut Plan> {
        match self {
            Plan::Scan { .. } | Plan::IndexScan { .. } | Plan::Unit => Vec::new(),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Rename { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => vec![input],
            Plan::HashJoin { left, right, .. }
            | Plan::NestedLoopJoin { left, right, .. }
            | Plan::UnionAll { left, right } => vec![left, right],
        }
    }

    /// This node with every input replaced by `f(input)`, left before
    /// right — the recursion step of a rewriting pass.
    pub fn map_children(mut self, mut f: impl FnMut(Plan) -> Plan) -> Plan {
        for child in self.children_mut() {
            *child = f(std::mem::replace(child, Plan::Unit));
        }
        self
    }

    /// The expressions this node itself evaluates (not its inputs'), in a
    /// fixed order: join keys left then right, then the residual; group
    /// keys, then aggregate arguments.
    pub fn exprs(&self) -> Vec<&BoundExpr> {
        match self {
            Plan::Scan { .. }
            | Plan::IndexScan { .. }
            | Plan::Unit
            | Plan::Rename { .. }
            | Plan::Distinct { .. }
            | Plan::UnionAll { .. }
            | Plan::Limit { .. } => Vec::new(),
            Plan::Filter { predicate, .. } => vec![predicate],
            Plan::Project { exprs, .. } => exprs.iter().collect(),
            Plan::HashJoin {
                left_keys,
                right_keys,
                residual,
                ..
            } => left_keys.iter().chain(right_keys).chain(residual).collect(),
            Plan::NestedLoopJoin { on, .. } => on.iter().collect(),
            Plan::Aggregate {
                group_exprs, aggs, ..
            } => group_exprs
                .iter()
                .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
                .collect(),
            Plan::Sort { keys, .. } => keys.iter().map(|(e, _)| e).collect(),
        }
    }

    /// [`Plan::exprs`], mutably and in the same order.
    pub fn exprs_mut(&mut self) -> Vec<&mut BoundExpr> {
        match self {
            Plan::Scan { .. }
            | Plan::IndexScan { .. }
            | Plan::Unit
            | Plan::Rename { .. }
            | Plan::Distinct { .. }
            | Plan::UnionAll { .. }
            | Plan::Limit { .. } => Vec::new(),
            Plan::Filter { predicate, .. } => vec![predicate],
            Plan::Project { exprs, .. } => exprs.iter_mut().collect(),
            Plan::HashJoin {
                left_keys,
                right_keys,
                residual,
                ..
            } => left_keys
                .iter_mut()
                .chain(right_keys)
                .chain(residual)
                .collect(),
            Plan::NestedLoopJoin { on, .. } => on.iter_mut().collect(),
            Plan::Aggregate {
                group_exprs, aggs, ..
            } => group_exprs
                .iter_mut()
                .chain(aggs.iter_mut().filter_map(|a| a.arg.as_mut()))
                .collect(),
            Plan::Sort { keys, .. } => keys.iter_mut().map(|(e, _)| e).collect(),
        }
    }

    /// Visit every expression embedded in this plan tree (immutably): a
    /// node's own before its inputs'.
    pub fn visit_exprs(&self, f: &mut impl FnMut(&BoundExpr)) {
        self.exprs().into_iter().for_each(&mut *f);
        for child in self.children() {
            child.visit_exprs(f);
        }
    }

    /// Visit every expression embedded in this plan tree (mutably).
    pub fn visit_exprs_mut(&mut self, f: &mut impl FnMut(&mut BoundExpr)) {
        self.exprs_mut().into_iter().for_each(&mut *f);
        for child in self.children_mut() {
            child.visit_exprs_mut(f);
        }
    }

    /// Maximum outer-scope depth referenced by any expression in the plan,
    /// from the perspective of rows flowing through this plan (0 = no
    /// correlation): expressions inside a plan evaluate against that plan's
    /// own rows at depth 0; anything deeper refers to enclosing query scopes.
    pub fn max_outer_depth(&self) -> usize {
        let mut depth = 0;
        self.visit_exprs(&mut |e| depth = depth.max(e.max_depth()));
        depth
    }
}

/// CTE bindings visible while planning a query.
#[derive(Debug, Clone, Default)]
struct CteEnv {
    /// Materialized CTE results, as the leaf each reference scans under its
    /// own binding: a [`Plan::Scan`] of the result batch (unqualified
    /// schema) — or, for a CTE the optimizer answered index-only, the
    /// conflict scan itself, whose result the index already holds and which
    /// a semi join can only probe while it is still a plan node.
    materialized: HashMap<String, Plan>,
    /// Inline CTE definitions (when materialization is disabled).
    inline: HashMap<String, Arc<Query>>,
}

/// The scope an expression binds in: a chain of schemas, innermost first
/// (the outer ones serve correlated references), and the CTEs its
/// subqueries may read.
#[derive(Debug, Clone, Copy)]
struct BindScope<'a> {
    schema: &'a Schema,
    parent: Option<&'a BindScope<'a>>,
    env: &'a CteEnv,
}

impl<'a> BindScope<'a> {
    fn new(
        schema: &'a Schema,
        parent: Option<&'a BindScope<'a>>,
        env: &'a CteEnv,
    ) -> BindScope<'a> {
        BindScope {
            schema,
            parent,
            env,
        }
    }

    /// Resolve a column to (depth, index).
    fn resolve(&self, col: &ast::ColumnRef) -> Result<(usize, usize)> {
        let mut scope = Some(self);
        let mut depth = 0;
        let mut last_err = EngineError::UnknownColumn(col.name.clone());
        while let Some(s) = scope {
            match s.schema.resolve(col) {
                Ok(i) => return Ok((depth, i)),
                Err(e @ EngineError::AmbiguousColumn(_)) => return Err(e),
                Err(e) => last_err = e,
            }
            scope = s.parent;
            depth += 1;
        }
        Err(last_err)
    }
}

/// One materialized CTE as it ran at plan time — what `EXPLAIN ANALYZE`
/// lists above the body, where a rewriting spends nearly all of its time.
#[derive(Debug, Clone)]
pub struct CteTrace {
    pub name: String,
    /// The CTE's optimized plan, over the results of the CTEs before it.
    pub plan: Plan,
    /// Measured per-operator stats, with the planner's estimates beside.
    pub stats: NodeStats,
    /// The cost model's estimate for `plan` (its inputs are materialized,
    /// so their sizes are exact).
    pub est_cost: f64,
}

/// The planner: holds the database catalog and options.
pub struct Planner<'a> {
    db: &'a Database,
    options: &'a ExecOptions,
    /// Resource governor for the enclosing query, if any. CTE
    /// materialization executes at plan time, so planning is governed by
    /// the same budget as execution.
    gov: Option<&'a Governor>,
    /// Every base table resolved so far, with the version it was read at
    /// (see [`Planner::plan_table_ref`]).
    reads: RefCell<TableReads>,
    /// One entry per CTE materialized so far, kept only when a caller
    /// asked ([`Planner::tracing_ctes`]).
    cte_traces: Option<RefCell<Vec<CteTrace>>>,
}

impl<'a> Planner<'a> {
    /// A planner whose plan-time work (CTE materialization) runs under
    /// `gov`.
    pub fn with_governor(
        db: &'a Database,
        options: &'a ExecOptions,
        gov: Option<&'a Governor>,
    ) -> Planner<'a> {
        Planner {
            db,
            options,
            gov,
            reads: RefCell::default(),
            cte_traces: None,
        }
    }

    /// Have this planner run its CTEs with per-operator stats and keep a
    /// [`CteTrace`] of each.
    pub fn tracing_ctes(mut self) -> Planner<'a> {
        self.cte_traces = Some(RefCell::default());
        self
    }

    /// The traces of the CTEs materialized so far, in the order they ran;
    /// empty unless [`Planner::tracing_ctes`] asked for them.
    pub fn take_cte_traces(&self) -> Vec<CteTrace> {
        self.cte_traces
            .as_ref()
            .map(RefCell::take)
            .unwrap_or_default()
    }

    /// The base tables this planner resolved, each at the version it read:
    /// everything the plans it produced (and the CTE results and subquery
    /// plans inside them) depend on.
    pub fn into_reads(self) -> TableReads {
        self.reads.into_inner()
    }

    /// Run the optimizer over a planned query or CTE body — the one place
    /// it is invoked — or hand the plan back as written when the options
    /// turn it off.
    pub(crate) fn optimize(&self, plan: Plan) -> Plan {
        if !self.options.optimize {
            return plan;
        }
        crate::opt::optimize(plan, &self.db.estimator())
    }

    /// Plan (and, for CTEs, partially execute) a full query.
    pub fn plan_query(&self, query: &Query) -> Result<Plan> {
        let env = CteEnv::default();
        self.plan_query_in(query, &env, None)
    }

    fn plan_query_in(
        &self,
        query: &Query,
        env: &CteEnv,
        outer: Option<&BindScope<'_>>,
    ) -> Result<Plan> {
        let mut env = env.clone();
        for (i, cte) in query.ctes.iter().enumerate() {
            // Projection pruning: a materialized CTE only needs to carry
            // the columns the rest of the query (later CTEs, body, ORDER
            // BY) can reference. Matching is by column name, which is
            // conservative — any name mentioned anywhere downstream keeps
            // the column — and a wildcard anywhere keeps everything.
            let prune = if self.options.optimize && self.options.materialize_ctes {
                let mut scan = ColRefScan::default();
                for later in &query.ctes[i + 1..] {
                    scan.query(&later.query);
                }
                scan.set_expr(&query.body);
                for item in &query.order_by {
                    scan.expr(&item.expr);
                }
                (!scan.wildcard).then_some(scan.names)
            } else {
                None
            };
            self.register_cte(cte, &mut env, prune.as_ref())?;
        }
        let mut plan = self.plan_set_expr(&query.body, &env, outer)?;
        if !query.order_by.is_empty() {
            let schema = plan.schema().clone();
            let mut keys = Vec::new();
            for item in &query.order_by {
                let bound =
                    self.bind_order_key(&item.expr, &BindScope::new(&schema, outer, &env))?;
                keys.push((bound, item.desc));
            }
            plan = Plan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        if let Some(n) = query.limit {
            plan = Plan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }

    fn register_cte(
        &self,
        cte: &Cte,
        env: &mut CteEnv,
        keep: Option<&std::collections::HashSet<String>>,
    ) -> Result<()> {
        if self.options.materialize_ctes {
            faults::trip("cte.materialize")?;
            // CTEs cannot be correlated: plan and run with no outer scope.
            let mut plan = self.optimize(self.plan_query_in(&cte.query, env, None)?);
            if let Some(keep) = keep {
                plan = prune_projection(plan, keep);
            }
            let conflict_scan = matches!(
                plan,
                Plan::IndexScan {
                    access: IndexAccess::Conflicts { .. },
                    ..
                }
            );
            if !conflict_scan {
                // Execute to a batch: a columnar output (scan
                // pass-throughs, kernel-filtered scans) is adopted as-is;
                // row-shaped outputs are pivoted into a fresh batch once,
                // here, so every reference scans columns.
                let mut stats = self.cte_traces.as_ref().map(|_| NodeStats::for_plan(&plan));
                let batch = exec::execute_plan(
                    &plan,
                    None,
                    self.gov,
                    self.options.threads,
                    stats.as_mut(),
                )?;
                let (schema, cols) = batch.into_schema_cols();
                if let Some(gov) = self.gov {
                    gov.reserve_mem(cols.byte_size() as u64, "cte.materialize")?;
                }
                let body = std::mem::replace(&mut plan, Plan::Scan { cols, schema });
                if let (Some(traces), Some(mut stats)) = (&self.cte_traces, stats) {
                    let est = self.db.estimator();
                    crate::cost::annotate(&est, &body, &mut stats);
                    traces.borrow_mut().push(CteTrace {
                        name: cte.name.clone(),
                        est_cost: est.cost(&body),
                        plan: body,
                        stats,
                    });
                }
            }
            env.materialized.insert(cte.name.clone(), plan);
        } else {
            env.inline
                .insert(cte.name.clone(), Arc::new(cte.query.clone()));
        }
        Ok(())
    }

    /// ORDER BY keys resolve against the output schema (`scope`'s
    /// innermost); an integer literal is a 1-based output column position
    /// (SQL positional ordering).
    fn bind_order_key(&self, expr: &Expr, scope: &BindScope<'_>) -> Result<BoundExpr> {
        if let Expr::Literal(Literal::Integer(k)) = expr {
            let idx = usize::try_from(*k - 1)
                .ok()
                .filter(|i| *i < scope.schema.len())
                .ok_or_else(|| {
                    EngineError::Execution(format!("ORDER BY position {k} out of range"))
                })?;
            return Ok(BoundExpr::column(idx));
        }
        match self.bind(expr, scope) {
            Ok(bound) => Ok(bound),
            // `ORDER BY t.col` over a projection that exposes the column as
            // bare `col`: retry with the qualifier stripped.
            Err(EngineError::UnknownColumn(_)) => {
                if let Expr::Column(c) = expr {
                    if c.qualifier.is_some() {
                        let bare = Expr::Column(ast::ColumnRef::bare(c.name.clone()));
                        return self.bind(&bare, scope);
                    }
                }
                Err(EngineError::UnknownColumn(format!(
                    "ORDER BY expression `{expr}`"
                )))
            }
            Err(e) => Err(e),
        }
    }

    fn plan_set_expr(
        &self,
        body: &SetExpr,
        env: &CteEnv,
        outer: Option<&BindScope<'_>>,
    ) -> Result<Plan> {
        match body {
            SetExpr::Select(select) => self.plan_select(select, env, outer),
            SetExpr::UnionAll(l, r) => {
                let left = self.plan_set_expr(l, env, outer)?;
                let right = self.plan_set_expr(r, env, outer)?;
                if left.schema().len() != right.schema().len() {
                    return Err(EngineError::Execution(format!(
                        "UNION ALL arity mismatch: {} vs {} columns",
                        left.schema().len(),
                        right.schema().len()
                    )));
                }
                Ok(Plan::UnionAll {
                    left: Box::new(left),
                    right: Box::new(right),
                })
            }
        }
    }

    fn plan_select(
        &self,
        select: &Select,
        env: &CteEnv,
        outer: Option<&BindScope<'_>>,
    ) -> Result<Plan> {
        // 1 + 2. FROM and WHERE are planned together: equality conjuncts
        // between two FROM factors become hash-join keys and single-factor
        // conjuncts are pushed below the joins, so comma-style joins never
        // materialize cross products.
        let plan = self.plan_from_where(select, env, outer)?;

        // 3. Grouping / aggregation, projection, DISTINCT.
        let has_aggregates = !select.group_by.is_empty()
            || select.projection.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            })
            || select.having.as_ref().is_some_and(Expr::contains_aggregate);

        let mut plan = if has_aggregates {
            self.plan_aggregate(plan, select, env, outer)?
        } else {
            if select.having.is_some() {
                return Err(EngineError::Unsupported(
                    "HAVING without GROUP BY or aggregates".into(),
                ));
            }
            self.plan_projection(plan, &select.projection, env, outer)?
        };

        if select.distinct {
            plan = Plan::Distinct {
                input: Box::new(plan),
            };
        }
        Ok(plan)
    }

    fn plan_table_ref(
        &self,
        table_ref: &TableRef,
        env: &CteEnv,
        outer: Option<&BindScope<'_>>,
        bindings: &mut Vec<String>,
    ) -> Result<Plan> {
        match table_ref {
            TableRef::Table { name, alias } => {
                let binding = alias.as_deref().unwrap_or(name);
                self.check_binding(binding, bindings)?;
                // CTEs shadow base tables.
                if let Some(leaf) = env.materialized.get(name) {
                    let mut leaf = leaf.clone();
                    if let Plan::Scan { schema, .. } | Plan::IndexScan { schema, .. } = &mut leaf {
                        *schema = schema.qualified(binding);
                    }
                    return Ok(leaf);
                }
                if let Some(query) = env.inline.get(name) {
                    // Re-plan the CTE body at each reference (ablation mode).
                    let inner = self.plan_query_in(query, env, None)?;
                    let schema = inner.schema().qualified(binding);
                    return Ok(Plan::Rename {
                        input: Box::new(inner),
                        schema,
                    });
                }
                // The one place a base table enters a plan, whether the
                // reference sits in the query body, a CTE body that is
                // about to be executed, or a subquery: record what was
                // read so plan caches can revalidate per table.
                let (table, cols, version) = self.db.scan_snapshot(name)?;
                self.reads.borrow_mut().record(name, version);
                let schema = table.schema().qualified(binding);
                Ok(Plan::Scan { cols, schema })
            }
            TableRef::Subquery { query, alias } => {
                self.check_binding(alias, bindings)?;
                let inner = self.plan_query_in(query, env, None)?;
                let schema = inner.schema().qualified(alias);
                Ok(Plan::Rename {
                    input: Box::new(inner),
                    schema,
                })
            }
            TableRef::Join {
                left,
                kind,
                right,
                on,
            } => {
                let left_plan = self.plan_table_ref(left, env, outer, bindings)?;
                let right_plan = self.plan_table_ref(right, env, outer, bindings)?;
                self.plan_join(left_plan, right_plan, *kind, on.as_ref(), env, outer)
            }
        }
    }

    fn check_binding(&self, binding: &str, bindings: &mut Vec<String>) -> Result<()> {
        if bindings.iter().any(|b| b == binding) {
            return Err(EngineError::Execution(format!(
                "duplicate table binding `{binding}` in FROM clause (use aliases)"
            )));
        }
        bindings.push(binding.to_string());
        Ok(())
    }

    fn plan_join(
        &self,
        left: Plan,
        right: Plan,
        kind: ast::JoinKind,
        on: Option<&Expr>,
        env: &CteEnv,
        outer: Option<&BindScope<'_>>,
    ) -> Result<Plan> {
        let schema = left.schema().join(right.schema());
        let join_type = match kind {
            ast::JoinKind::Inner => JoinType::Inner,
            ast::JoinKind::LeftOuter => JoinType::LeftOuter,
            ast::JoinKind::Cross => {
                return Ok(Plan::NestedLoopJoin {
                    left: Box::new(left),
                    right: Box::new(right),
                    kind: JoinType::Inner,
                    on: None,
                    schema,
                })
            }
        };
        let on = on.ok_or_else(|| EngineError::Unsupported("join without ON".into()))?;
        let conjuncts: Vec<Expr> = on.split_conjuncts().into_iter().cloned().collect();
        self.make_join(left, right, join_type, &conjuncts, env, outer)
    }

    /// Bind an expression against one schema alone, with no outer scope
    /// (join and semi-join keys).
    fn bind_local(&self, expr: &Expr, schema: &Schema, env: &CteEnv) -> Result<BoundExpr> {
        let bound = self.bind(expr, &BindScope::new(schema, None, env))?;
        if bound.max_depth() > 0 {
            return Err(EngineError::UnknownColumn("outer reference".into()));
        }
        Ok(bound)
    }

    /// Plan FROM and WHERE together. Equality conjuncts spanning exactly two
    /// FROM factors become hash-join keys, single-factor conjuncts are
    /// pushed below the joins, and everything else (multi-factor residuals,
    /// correlated predicates, subquery conjuncts) is applied above.
    fn plan_from_where(
        &self,
        select: &Select,
        env: &CteEnv,
        outer: Option<&BindScope<'_>>,
    ) -> Result<Plan> {
        // Plan each FROM factor independently.
        let mut bindings = Vec::new();
        let mut factors: Vec<Plan> = Vec::new();
        for factor in &select.from {
            factors.push(self.plan_table_ref(factor, env, outer, &mut bindings)?);
        }
        if factors.is_empty() {
            let mut plan = Plan::Unit;
            if let Some(w) = &select.selection {
                plan = self.apply_post_conjuncts(
                    plan,
                    &w.split_conjuncts().into_iter().cloned().collect::<Vec<_>>(),
                    env,
                    outer,
                )?;
            }
            return Ok(plan);
        }
        let factor_schemas: Vec<Schema> = factors.iter().map(|f| f.schema().clone()).collect();

        // Classify WHERE conjuncts by the factors they reference.
        let conjuncts: Vec<Expr> = select
            .selection
            .iter()
            .flat_map(|w| w.split_conjuncts().into_iter().cloned())
            .collect();
        let mut single: Vec<Vec<Expr>> = vec![Vec::new(); factors.len()];
        // (factor set, conjunct) pairs awaiting a join.
        let mut pending: Vec<(std::collections::BTreeSet<usize>, Expr)> = Vec::new();
        let mut post: Vec<Expr> = Vec::new();
        for conjunct in conjuncts {
            if conjunct.contains_subquery() {
                post.push(conjunct);
                continue;
            }
            match self.conjunct_factors(&conjunct, &factor_schemas)? {
                Some(set) if set.len() == 1 => match set.iter().next() {
                    Some(&factor) => single[factor].push(conjunct),
                    None => post.push(conjunct),
                },
                Some(set) if set.len() >= 2 => pending.push((set, conjunct)),
                // Constant or outer-correlated predicate: apply at the top.
                _ => post.push(conjunct),
            }
        }

        // Push single-factor selections below the joins.
        for (factor, preds) in factors.iter_mut().zip(single) {
            if let Some(pred) = Expr::conjoin(preds) {
                let schema = factor.schema().clone();
                let bound = self.bind(&pred, &BindScope::new(&schema, outer, env))?;
                let input = std::mem::replace(factor, Plan::Unit);
                *factor = Plan::Filter {
                    input: Box::new(input),
                    predicate: bound,
                };
            }
        }

        // Greedy join ordering: repeatedly merge two components connected by
        // a pending conjunct; fall back to a cross join when none connects.
        // Optimizing, every connected pair is tried (estimated-smaller side
        // oriented as the hash-build input, i.e. the right child) and the
        // merge with the smallest estimated output wins; as written, the
        // first connected pair in factor order merges, left-to-right.
        let est = self.options.optimize.then(|| self.db.estimator());
        let mut components: Vec<(std::collections::BTreeSet<usize>, Plan)> = factors
            .into_iter()
            .enumerate()
            .map(|(i, p)| (std::collections::BTreeSet::from([i]), p))
            .collect();
        while components.len() > 1 {
            // Component pairs joinable via a pending conjunct.
            let connected: Vec<(usize, usize)> = pending
                .iter()
                .filter_map(|(set, _)| {
                    let touching: Vec<usize> = components
                        .iter()
                        .enumerate()
                        .filter(|(_, (fs, _))| !fs.is_disjoint(set))
                        .map(|(ci, _)| ci)
                        .collect();
                    (touching.len() == 2
                        && set.iter().all(|f| {
                            components[touching[0]].0.contains(f)
                                || components[touching[1]].0.contains(f)
                        }))
                    .then_some((touching[0], touching[1]))
                })
                .collect();
            let (left_idx, right_idx) = match &est {
                None => match connected.first() {
                    Some(&(a, b)) => (a.min(b), a.max(b)),
                    None => (0, 1),
                },
                Some(est) => {
                    // Candidate pool: connected pairs, else (cross join
                    // unavoidable) every pair.
                    let pool: Vec<(usize, usize)> = if connected.is_empty() {
                        let n = components.len();
                        (0..n)
                            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                            .collect()
                    } else {
                        connected
                    };
                    let mut best: Option<(usize, usize, f64)> = None;
                    for &(a, b) in &pool {
                        // Orient the estimated-smaller component as the
                        // right (hash-build) side.
                        let (li, ri) =
                            if est.est_rows(&components[a].1) >= est.est_rows(&components[b].1) {
                                (a, b)
                            } else {
                                (b, a)
                            };
                        let mut union = components[li].0.clone();
                        union.extend(components[ri].0.iter().copied());
                        let join_conjuncts: Vec<Expr> = pending
                            .iter()
                            .filter(|(set, _)| set.is_subset(&union))
                            .map(|(_, c)| c.clone())
                            .collect();
                        let trial = self.make_join(
                            components[li].1.clone(),
                            components[ri].1.clone(),
                            JoinType::Inner,
                            &join_conjuncts,
                            env,
                            outer,
                        )?;
                        let out = est.est_rows(&trial);
                        if best.is_none_or(|(_, _, c)| out < c) {
                            best = Some((li, ri, out));
                        }
                    }
                    match best {
                        Some((li, ri, _)) => (li, ri),
                        None => (0, 1),
                    }
                }
            };
            let first = components.remove(left_idx.max(right_idx));
            let second = components.remove(left_idx.min(right_idx));
            let ((fl, left), (fr, right)) = if left_idx > right_idx {
                (first, second)
            } else {
                (second, first)
            };
            let mut merged_factors = fl;
            merged_factors.extend(fr);
            // All pending conjuncts now fully contained in the merged pair
            // become join conditions.
            let mut join_conjuncts = Vec::new();
            pending.retain(|(set, conjunct)| {
                if set.is_subset(&merged_factors) {
                    join_conjuncts.push(conjunct.clone());
                    false
                } else {
                    true
                }
            });
            let joined =
                self.make_join(left, right, JoinType::Inner, &join_conjuncts, env, outer)?;
            components.push((merged_factors, joined));
        }
        let Some((_, plan)) = components.pop() else {
            return Err(EngineError::Execution(
                "join ordering produced no components".into(),
            ));
        };

        // Anything left in `pending` spans the (single) remaining component.
        post.extend(pending.into_iter().map(|(_, c)| c));
        self.apply_post_conjuncts(plan, &post, env, outer)
    }

    /// Apply post-join conjuncts: plain ones as a Filter, subquery ones via
    /// decorrelation or per-row evaluation.
    fn apply_post_conjuncts(
        &self,
        input: Plan,
        conjuncts: &[Expr],
        env: &CteEnv,
        outer: Option<&BindScope<'_>>,
    ) -> Result<Plan> {
        let mut plain = Vec::new();
        let mut subquery_conjuncts = Vec::new();
        for c in conjuncts {
            if c.contains_subquery() {
                subquery_conjuncts.push(c);
            } else {
                plain.push(c.clone());
            }
        }
        let mut plan = input;
        if let Some(pred) = Expr::conjoin(plain) {
            let schema = plan.schema().clone();
            let bound = self.bind(&pred, &BindScope::new(&schema, outer, env))?;
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate: bound,
            };
        }
        for conjunct in subquery_conjuncts {
            plan = self.plan_subquery_conjunct(plan, conjunct, env, outer)?;
        }
        Ok(plan)
    }

    /// The set of FROM factors a conjunct's columns resolve into, or `None`
    /// when some column resolves in no factor (outer correlation — handled
    /// later with the full scope chain).
    fn conjunct_factors(
        &self,
        conjunct: &Expr,
        schemas: &[Schema],
    ) -> Result<Option<std::collections::BTreeSet<usize>>> {
        let mut set = std::collections::BTreeSet::new();
        for col in conjunct.column_refs() {
            let mut found = None;
            for (i, schema) in schemas.iter().enumerate() {
                match schema.resolve(col) {
                    Ok(_) => {
                        if found.is_some() {
                            return Err(EngineError::AmbiguousColumn(col.name.clone()));
                        }
                        found = Some(i);
                    }
                    Err(EngineError::AmbiguousColumn(name)) => {
                        return Err(EngineError::AmbiguousColumn(name))
                    }
                    Err(_) => {}
                }
            }
            match found {
                Some(i) => {
                    set.insert(i);
                }
                None => return Ok(None),
            }
        }
        Ok(Some(set))
    }

    /// Build a join between two plans from a list of AST conjuncts: equality
    /// conjuncts splitting cleanly across the sides become hash keys, the
    /// rest become the residual ON condition.
    fn make_join(
        &self,
        left: Plan,
        right: Plan,
        kind: JoinType,
        conjuncts: &[Expr],
        env: &CteEnv,
        outer: Option<&BindScope<'_>>,
    ) -> Result<Plan> {
        let schema = left.schema().join(right.schema());
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut residual_parts: Vec<&Expr> = Vec::new();
        for conjunct in conjuncts {
            if let Expr::BinaryOp {
                left: a,
                op: BinaryOp::Eq,
                right: b,
            } = conjunct
            {
                if let (Ok(ka), Ok(kb)) = (
                    self.bind_local(a, left.schema(), env),
                    self.bind_local(b, right.schema(), env),
                ) {
                    left_keys.push(ka);
                    right_keys.push(kb);
                    continue;
                }
                if let (Ok(kb), Ok(ka)) = (
                    self.bind_local(b, left.schema(), env),
                    self.bind_local(a, right.schema(), env),
                ) {
                    left_keys.push(kb);
                    right_keys.push(ka);
                    continue;
                }
            }
            residual_parts.push(conjunct);
        }

        let residual = match Expr::conjoin(residual_parts.into_iter().cloned()) {
            Some(e) => Some(self.bind(&e, &BindScope::new(&schema, outer, env))?),
            None => None,
        };
        if left_keys.is_empty() {
            return Ok(Plan::NestedLoopJoin {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on: residual,
                schema,
            });
        }
        Ok(Plan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            kind,
            left_keys,
            right_keys,
            residual,
            build_index: None,
            schema,
        })
    }

    fn plan_subquery_conjunct(
        &self,
        input: Plan,
        conjunct: &Expr,
        env: &CteEnv,
        outer: Option<&BindScope<'_>>,
    ) -> Result<Plan> {
        if self.options.decorrelate_exists {
            if let Expr::Exists { subquery, negated } = conjunct {
                if let Some(plan) = self.try_decorrelate_exists(&input, subquery, *negated, env)? {
                    return Ok(plan);
                }
            }
            if let Expr::InSubquery {
                expr,
                subquery,
                negated: false,
            } = conjunct
            {
                if let Some(plan) = self.try_decorrelate_in(&input, expr, subquery, env)? {
                    return Ok(plan);
                }
            }
        }
        // Fallback: evaluate the subquery per row.
        let schema = input.schema().clone();
        let bound = self.bind(conjunct, &BindScope::new(&schema, outer, env))?;
        Ok(Plan::Filter {
            input: Box::new(input),
            predicate: bound,
        })
    }

    /// Attempt to turn `[NOT] EXISTS (SELECT ... FROM F WHERE W)` into a
    /// hash semi/anti join. Succeeds when every correlated conjunct of `W`
    /// is an equality between an outer column (depth 1) and a local
    /// expression, and everything else in the subquery is local.
    fn try_decorrelate_exists(
        &self,
        input: &Plan,
        subquery: &Query,
        negated: bool,
        env: &CteEnv,
    ) -> Result<Option<Plan>> {
        // Only simple selects: no CTEs of their own with correlation, no
        // grouping, no distinct needed (existential semantics).
        if !subquery.ctes.is_empty() || !subquery.order_by.is_empty() || subquery.limit.is_some() {
            return Ok(None);
        }
        let Some(select) = subquery.as_select() else {
            return Ok(None);
        };
        if !select.group_by.is_empty() || select.having.is_some() {
            return Ok(None);
        }

        // Plan the subquery FROM clause (must be uncorrelated itself).
        let mut bindings = Vec::new();
        let mut sub_plan = match select.from.split_first() {
            None => return Ok(None),
            Some((first, rest)) => {
                let mut p = self.plan_table_ref(first, env, None, &mut bindings)?;
                for factor in rest {
                    let right = self.plan_table_ref(factor, env, None, &mut bindings)?;
                    let schema = p.schema().join(right.schema());
                    p = Plan::NestedLoopJoin {
                        left: Box::new(p),
                        right: Box::new(right),
                        kind: JoinType::Inner,
                        on: None,
                        schema,
                    };
                }
                p
            }
        };

        let outer_schema = input.schema().clone();
        let inner_schema = sub_plan.schema().clone();

        let mut outer_keys = Vec::new();
        let mut inner_keys = Vec::new();
        let mut local: Vec<Expr> = Vec::new();
        if let Some(w) = &select.selection {
            for conjunct in w.split_conjuncts() {
                if !conjunct.contains_subquery()
                    && self.bind_local(conjunct, &inner_schema, env).is_ok()
                {
                    local.push(conjunct.clone());
                    continue;
                }
                // Correlated equality?
                if let Expr::BinaryOp {
                    left: a,
                    op: BinaryOp::Eq,
                    right: b,
                } = conjunct
                {
                    let inner_a = self.bind_local(a, &inner_schema, env);
                    let outer_b = self.bind_local(b, &outer_schema, env);
                    if let (Ok(ia), Ok(ob)) = (inner_a, outer_b) {
                        inner_keys.push(ia);
                        outer_keys.push(ob);
                        continue;
                    }
                    let inner_b = self.bind_local(b, &inner_schema, env);
                    let outer_a = self.bind_local(a, &outer_schema, env);
                    if let (Ok(ib), Ok(oa)) = (inner_b, outer_a) {
                        inner_keys.push(ib);
                        outer_keys.push(oa);
                        continue;
                    }
                }
                // Some conjunct is neither local nor a simple correlated
                // equality: give up on decorrelation.
                return Ok(None);
            }
        }
        if outer_keys.is_empty() {
            // Uncorrelated EXISTS: cheap to evaluate once via the fallback.
            return Ok(None);
        }

        if let Some(pred) = Expr::conjoin(local) {
            let bound = self.bind_local(&pred, &inner_schema, env)?;
            sub_plan = Plan::Filter {
                input: Box::new(sub_plan),
                predicate: bound,
            };
        }

        let kind = if negated {
            JoinType::Anti
        } else {
            JoinType::Semi
        };
        Ok(Some(Plan::HashJoin {
            left: Box::new(input.clone()),
            right: Box::new(sub_plan),
            kind,
            left_keys: outer_keys,
            right_keys: inner_keys,
            residual: None,
            build_index: None,
            schema: outer_schema,
        }))
    }

    /// Attempt `expr IN (uncorrelated subquery)` as a hash semi join.
    fn try_decorrelate_in(
        &self,
        input: &Plan,
        expr: &Expr,
        subquery: &Query,
        env: &CteEnv,
    ) -> Result<Option<Plan>> {
        let outer_schema = input.schema().clone();
        let Ok(outer_key) = self.bind_local(expr, &outer_schema, env) else {
            return Ok(None);
        };
        // The subquery must be fully uncorrelated.
        let Ok(sub_plan) = self.plan_query_in(subquery, env, None) else {
            return Ok(None);
        };
        if sub_plan.schema().len() != 1 || sub_plan.max_outer_depth() > 0 {
            return Ok(None);
        }
        Ok(Some(Plan::HashJoin {
            left: Box::new(input.clone()),
            right: Box::new(sub_plan),
            kind: JoinType::Semi,
            left_keys: vec![outer_key],
            right_keys: vec![BoundExpr::column(0)],
            residual: None,
            build_index: None,
            schema: outer_schema,
        }))
    }

    fn plan_projection(
        &self,
        input: Plan,
        projection: &[SelectItem],
        env: &CteEnv,
        outer: Option<&BindScope<'_>>,
    ) -> Result<Plan> {
        let input_schema = input.schema().clone();
        let mut exprs = Vec::new();
        let mut columns = Vec::new();
        for (i, item) in projection.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for (idx, col) in input_schema.columns.iter().enumerate() {
                        exprs.push(BoundExpr::column(idx));
                        columns.push(col.clone());
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let indices = input_schema.indices_for_qualifier(q);
                    if indices.is_empty() {
                        return Err(EngineError::UnknownTable(q.clone()));
                    }
                    for idx in indices {
                        exprs.push(BoundExpr::column(idx));
                        columns.push(input_schema.columns[idx].clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind(expr, &BindScope::new(&input_schema, outer, env))?;
                    let name = output_name(expr, alias.as_deref(), i);
                    let ty = infer_type(&bound, &input_schema);
                    exprs.push(bound);
                    columns.push(Column::bare(&name, ty));
                }
            }
        }
        let schema = Schema::new(columns);
        Ok(Plan::Project {
            input: Box::new(input),
            exprs,
            schema,
        })
    }

    /// Bind `expr` in `scope`: the one entry point from SQL expressions to
    /// bound ones. Columns resolve along the scope chain (an outer one
    /// becomes a correlated reference) and subqueries are planned with
    /// `scope` as their outer scope, over its CTEs.
    fn bind(&self, expr: &Expr, scope: &BindScope<'_>) -> Result<BoundExpr> {
        self.lower(expr, scope, &mut |_| Ok(None))
    }

    /// Bind an `INSERT … VALUES` item: a constant, bound over an empty
    /// scope (so a column reference is unknown) with subqueries refused.
    pub(crate) fn bind_constant(db: &Database, expr: &Expr) -> Result<BoundExpr> {
        if expr.contains_subquery() {
            return Err(EngineError::Unsupported("subquery in INSERT values".into()));
        }
        // Nothing is planned, so no option is read. Spelled out because
        // `ExecOptions::default()` asks the OS for the machine's
        // parallelism, which would cost more than the insert.
        let options = ExecOptions {
            materialize_ctes: true,
            decorrelate_exists: true,
            optimize: true,
            limits: ResourceLimits::default(),
            cancellation: None,
            threads: 1,
            trace: None,
        };
        let (empty, env) = (Schema::new(Vec::new()), CteEnv::default());
        let scope = BindScope::new(&empty, None, &env);
        Planner::with_governor(db, &options, None).bind(expr, &scope)
    }

    /// The one lowering of the SQL expression tree. `leaf` sees every node
    /// first and may answer for its whole subtree — the grouped binder's
    /// rule ([`GroupContext`]); every node it leaves is lowered here, its
    /// children through `leaf` again.
    fn lower(
        &self,
        expr: &Expr,
        scope: &BindScope<'_>,
        leaf: &mut dyn FnMut(&Expr) -> Result<Option<BoundExpr>>,
    ) -> Result<BoundExpr> {
        if let Some(bound) = leaf(expr)? {
            return Ok(bound);
        }
        let mut lower = |e: &Expr| self.lower(e, scope, leaf).map(Box::new);
        Ok(match expr {
            Expr::Column(col) => {
                let (depth, index) = scope.resolve(col)?;
                BoundExpr::Column { depth, index }
            }
            Expr::Literal(l) => BoundExpr::Literal(Value::from(l)),
            Expr::BinaryOp { left, op, right } => BoundExpr::Binary {
                op: *op,
                left: lower(left)?,
                right: lower(right)?,
            },
            Expr::UnaryOp {
                op: UnaryOp::Not,
                expr,
            } => BoundExpr::Not(lower(expr)?),
            Expr::UnaryOp {
                op: UnaryOp::Neg,
                expr,
            } => BoundExpr::Neg(lower(expr)?),
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: lower(expr)?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                // Desugar: e BETWEEN a AND b  ==  e >= a AND e <= b.
                let e = lower(expr)?;
                let ge = BoundExpr::Binary {
                    op: BinaryOp::GtEq,
                    left: e.clone(),
                    right: lower(low)?,
                };
                let le = BoundExpr::Binary {
                    op: BinaryOp::LtEq,
                    left: e,
                    right: lower(high)?,
                };
                let both = BoundExpr::Binary {
                    op: BinaryOp::And,
                    left: Box::new(ge),
                    right: Box::new(le),
                };
                if *negated {
                    BoundExpr::Not(Box::new(both))
                } else {
                    both
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: lower(expr)?,
                list: list
                    .iter()
                    .map(|e| lower(e).map(|b| *b))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: lower(expr)?,
                pattern: lower(pattern)?,
                negated: *negated,
            },
            Expr::Case {
                branches,
                else_expr,
            } => BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((*lower(c)?, *lower(v)?)))
                    .collect::<Result<_>>()?,
                else_expr: else_expr.as_deref().map(&mut lower).transpose()?,
            },
            Expr::Function {
                name,
                args,
                distinct,
            } => {
                if is_aggregate_function(name) {
                    return Err(EngineError::Execution(format!(
                        "aggregate `{name}` not allowed here"
                    )));
                }
                if *distinct {
                    return Err(EngineError::Unsupported(
                        "DISTINCT in scalar function".into(),
                    ));
                }
                let func = ScalarFunc::by_name(name).ok_or_else(|| {
                    EngineError::Unsupported(format!("unknown function `{name}`"))
                })?;
                if args.is_empty() || (func == ScalarFunc::Abs && args.len() != 1) {
                    return Err(EngineError::Execution(format!(
                        "wrong number of arguments to `{name}`"
                    )));
                }
                BoundExpr::Func {
                    func,
                    args: args
                        .iter()
                        .map(|a| lower(a).map(|b| *b))
                        .collect::<Result<_>>()?,
                }
            }
            Expr::Exists { subquery, negated } => BoundExpr::Subquery {
                plan: Box::new(self.plan_query_in(subquery, scope.env, Some(scope))?),
                kind: SubqueryKind::Exists { negated: *negated },
            },
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let needle = lower(expr)?;
                BoundExpr::Subquery {
                    plan: Box::new(self.plan_query_in(subquery, scope.env, Some(scope))?),
                    kind: SubqueryKind::In {
                        expr: needle,
                        negated: *negated,
                    },
                }
            }
            Expr::ScalarSubquery(subquery) => BoundExpr::Subquery {
                plan: Box::new(self.plan_query_in(subquery, scope.env, Some(scope))?),
                kind: SubqueryKind::Scalar,
            },
            Expr::Wildcard => {
                return Err(EngineError::Execution(
                    "`*` is only valid in SELECT lists and COUNT(*)".into(),
                ))
            }
        })
    }
}

/// Deep column-name scan over an AST fragment, descending into subqueries
/// (unlike `Expr::column_refs`). Drives CTE projection pruning: any
/// column *name* seen anywhere downstream of a CTE keeps the same-named CTE
/// column; any `*` / `t.*` in a projection keeps everything. `COUNT(*)`'s
/// bare `Expr::Wildcard` is ignored — it needs rows, not columns, and
/// pruning always keeps at least one column.
#[derive(Default)]
struct ColRefScan {
    names: std::collections::HashSet<String>,
    wildcard: bool,
}

impl ColRefScan {
    fn query(&mut self, q: &Query) {
        for cte in &q.ctes {
            self.query(&cte.query);
        }
        self.set_expr(&q.body);
        for item in &q.order_by {
            self.expr(&item.expr);
        }
    }

    fn set_expr(&mut self, s: &SetExpr) {
        for sel in s.selects() {
            self.select(sel);
        }
    }

    fn select(&mut self, sel: &Select) {
        for item in &sel.projection {
            match item {
                SelectItem::Expr { expr, .. } => self.expr(expr),
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    self.wildcard = true;
                }
            }
        }
        for factor in &sel.from {
            self.table_ref(factor);
        }
        if let Some(w) = &sel.selection {
            self.expr(w);
        }
        for g in &sel.group_by {
            self.expr(g);
        }
        if let Some(h) = &sel.having {
            self.expr(h);
        }
    }

    fn table_ref(&mut self, t: &TableRef) {
        match t {
            TableRef::Table { .. } => {}
            TableRef::Subquery { query, .. } => self.query(query),
            TableRef::Join {
                left, right, on, ..
            } => {
                self.table_ref(left);
                self.table_ref(right);
                if let Some(on) = on {
                    self.expr(on);
                }
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Column(c) => {
                self.names.insert(c.name.clone());
            }
            Expr::Exists { subquery, .. }
            | Expr::InSubquery { subquery, .. }
            | Expr::ScalarSubquery(subquery) => self.query(subquery),
            _ => {}
        }
        for child in e.children() {
            self.expr(child);
        }
    }
}

/// Narrow a materialized CTE plan to the columns named in `keep`: the
/// stored rows then only carry what the rest of the query can reference.
/// Keeps column order, and always at least one column so row counts
/// (`COUNT(*)` over the CTE) survive.
fn prune_projection(plan: Plan, keep: &std::collections::HashSet<String>) -> Plan {
    let schema = plan.schema();
    let mut kept: Vec<usize> = (0..schema.len())
        .filter(|&i| keep.contains(&schema.columns[i].name))
        .collect();
    if kept.len() == schema.len() {
        return plan;
    }
    if kept.is_empty() {
        kept.push(0);
    }
    let columns = kept.iter().map(|&i| schema.columns[i].clone()).collect();
    let exprs = kept.iter().map(|&i| BoundExpr::column(i)).collect();
    let schema = Schema::new(columns);
    Plan::Project {
        input: Box::new(plan),
        exprs,
        schema,
    }
}

/// Output column name for a projected expression.
fn output_name(expr: &Expr, alias: Option<&str>, position: usize) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        Expr::Column(c) => c.name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => format!("_col{}", position + 1),
    }
}

/// Best-effort output type inference for projections.
fn infer_type(bound: &BoundExpr, input: &Schema) -> DataType {
    match bound {
        BoundExpr::Column { depth: 0, index } => input.columns[*index].ty,
        BoundExpr::Literal(Value::Int(_)) => DataType::Integer,
        BoundExpr::Literal(Value::Float(_)) => DataType::Float,
        BoundExpr::Literal(Value::Str(_)) => DataType::Text,
        BoundExpr::Literal(Value::Date(_)) => DataType::Date,
        BoundExpr::Literal(Value::Bool(_)) => DataType::Boolean,
        _ => DataType::Any,
    }
}

// ---------------------------------------------------------------------------
// Aggregation planning
// ---------------------------------------------------------------------------

impl<'a> Planner<'a> {
    fn plan_aggregate(
        &self,
        input: Plan,
        select: &Select,
        env: &CteEnv,
        outer: Option<&BindScope<'_>>,
    ) -> Result<Plan> {
        let input_schema = input.schema().clone();

        // Bind group expressions over the input.
        let mut group_exprs = Vec::new();
        let mut group_cols = Vec::new();
        for (i, g) in select.group_by.iter().enumerate() {
            let bound = self.bind(g, &BindScope::new(&input_schema, outer, env))?;
            let (name, qualifier) = match g {
                Expr::Column(c) => (c.name.clone(), c.qualifier.clone()),
                _ => (format!("_g{}", i + 1), None),
            };
            let ty = infer_type(&bound, &input_schema);
            group_cols.push(Column {
                qualifier,
                name,
                ty,
            });
            group_exprs.push(bound);
        }

        // Collect aggregate specs from projection + having; build the
        // rewritten (post-aggregation) expressions.
        let mut ctx = GroupContext {
            planner: self,
            input: BindScope::new(&input_schema, None, env),
            group_exprs: &group_exprs,
            aggs: Vec::new(),
        };

        let mut out_exprs = Vec::new();
        let mut out_cols = Vec::new();
        for (i, item) in select.projection.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(EngineError::Unsupported(
                    "wildcard projection with GROUP BY".into(),
                ));
            };
            let rewritten = ctx.bind(expr)?;
            // A group column passes through with its type and a count is an
            // integer, so operators downstream keep those columns typed
            // (the rewritings' key columns reach their NOT EXISTS joins this
            // way); what other aggregates and expressions produce depends on
            // the values.
            let ty = match &rewritten {
                BoundExpr::Column { depth: 0, index } => group_cols[*index].ty,
                BoundExpr::AggRef { index } if ctx.aggs[*index].func == AggFunc::Count => {
                    DataType::Integer
                }
                _ => DataType::Any,
            };
            let name = output_name(expr, alias.as_deref(), i);
            out_cols.push(Column::bare(&name, ty));
            out_exprs.push(rewritten);
        }
        let having = match &select.having {
            Some(h) => Some(ctx.bind(h)?),
            None => None,
        };

        let aggs = ctx.aggs;
        // Aggregate output: group columns then aggregate slots.
        let mut agg_schema_cols = group_cols.clone();
        for (i, _) in aggs.iter().enumerate() {
            agg_schema_cols.push(Column::bare(&format!("_agg{}", i + 1), DataType::Any));
        }
        let n_groups = group_exprs.len();
        let agg_plan = Plan::Aggregate {
            input: Box::new(input),
            group_exprs,
            aggs,
            schema: Schema::new(agg_schema_cols),
        };

        // Resolve AggRef slots to plain columns above the Aggregate node.
        let resolve = |mut e: BoundExpr| {
            resolve_agg_refs(&mut e, n_groups);
            e
        };
        let mut plan = agg_plan;
        if let Some(h) = having {
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate: resolve(h),
            };
        }
        let exprs: Vec<BoundExpr> = out_exprs.into_iter().map(resolve).collect();
        Ok(Plan::Project {
            input: Box::new(plan),
            exprs,
            schema: Schema::new(out_cols),
        })
    }
}

/// Replace `AggRef { index }` with a column reference at
/// `n_groups + index` (the slot layout of the Aggregate operator output).
fn resolve_agg_refs(e: &mut BoundExpr, n_groups: usize) {
    if let BoundExpr::AggRef { index } = e {
        *e = BoundExpr::column(n_groups + *index);
    }
    for child in e.children_mut() {
        resolve_agg_refs(child, n_groups);
    }
}

/// Binder for expressions evaluated *after* aggregation: the shared
/// lowering ([`Planner::lower`]) under a leaf rule that turns aggregate
/// calls into slots, matches whole subtrees against GROUP BY expressions,
/// and rejects stray column references and subqueries.
struct GroupContext<'p, 'a> {
    planner: &'p Planner<'a>,
    /// The aggregate's input, over which group expressions and aggregate
    /// arguments bind.
    input: BindScope<'p>,
    group_exprs: &'p [BoundExpr],
    aggs: Vec<AggSpec>,
}

impl GroupContext<'_, '_> {
    fn bind(&mut self, expr: &Expr) -> Result<BoundExpr> {
        let (planner, input) = (self.planner, self.input);
        planner.lower(expr, &input, &mut |e| self.leaf(e))
    }

    fn leaf(&mut self, expr: &Expr) -> Result<Option<BoundExpr>> {
        // An aggregate call becomes (or reuses) a slot.
        if let Expr::Function {
            name,
            args,
            distinct,
        } = expr
        {
            if let Some(func) = AggFunc::by_name(name) {
                return self.bind_aggregate(func, args, *distinct).map(Some);
            }
        }
        // A subtree that binds equal to a GROUP BY expression becomes a
        // reference to the corresponding group column. (A subquery never
        // compares equal, so one is not even planned.)
        if !expr.contains_aggregate() && !expr.contains_subquery() {
            if let Ok(bound) = self.planner.bind(expr, &self.input) {
                if let Some(i) = self.group_exprs.iter().position(|g| *g == bound) {
                    return Ok(Some(BoundExpr::column(i)));
                }
            }
        }
        match expr {
            Expr::Column(c) => Err(EngineError::Execution(format!(
                "column `{c}` must appear in the GROUP BY clause or be used in an aggregate"
            ))),
            Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::ScalarSubquery(_) => Err(
                EngineError::Unsupported("subqueries above aggregation".into()),
            ),
            Expr::Wildcard => Err(EngineError::Execution(
                "stray `*` in aggregate query".into(),
            )),
            // Anything else is lowered, its children through this rule.
            _ => Ok(None),
        }
    }

    fn bind_aggregate(
        &mut self,
        func: AggFunc,
        args: &[Expr],
        distinct: bool,
    ) -> Result<BoundExpr> {
        let spec = match (func, args) {
            (AggFunc::Count, [Expr::Wildcard]) => AggSpec {
                func,
                arg: None,
                distinct: false,
            },
            (_, [arg]) => {
                if arg.contains_aggregate() {
                    return Err(EngineError::Execution("nested aggregate call".into()));
                }
                let bound = self.planner.bind(arg, &self.input)?;
                AggSpec {
                    func,
                    arg: Some(bound),
                    distinct,
                }
            }
            _ => {
                return Err(EngineError::Execution(format!(
                    "aggregate {func:?} takes exactly one argument"
                )))
            }
        };
        let index = match self.aggs.iter().position(|a| *a == spec) {
            Some(i) => i,
            None => {
                self.aggs.push(spec);
                self.aggs.len() - 1
            }
        };
        Ok(BoundExpr::AggRef { index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Index;

    /// A marker expression no other slot of the same plan carries.
    fn m(n: i64) -> BoundExpr {
        BoundExpr::Literal(Value::Int(n))
    }

    /// A marker input: recognisable by its limit.
    fn input(n: u64) -> Box<Plan> {
        Box::new(Plan::Limit {
            input: Box::new(Plan::Unit),
            n,
        })
    }

    fn limit_of(plan: &Plan) -> u64 {
        match plan {
            Plan::Limit { n, .. } => *n,
            other => panic!("not a marker input: {other:?}"),
        }
    }

    /// Position of a variant in the enum. No wildcard: a new variant fails
    /// to compile here until it is listed — and then fails
    /// `accessors_list_every_field_in_execution_order` until `specimens`
    /// builds one.
    fn variant(plan: &Plan) -> usize {
        match plan {
            Plan::Scan { .. } => 0,
            Plan::IndexScan { .. } => 1,
            Plan::Unit => 2,
            Plan::Filter { .. } => 3,
            Plan::Project { .. } => 4,
            Plan::Rename { .. } => 5,
            Plan::HashJoin { .. } => 6,
            Plan::NestedLoopJoin { .. } => 7,
            Plan::Aggregate { .. } => 8,
            Plan::Distinct { .. } => 9,
            Plan::UnionAll { .. } => 10,
            Plan::Sort { .. } => 11,
            Plan::Limit { .. } => 12,
        }
    }

    /// One plan per variant with the expressions and inputs it must list,
    /// by marker, in order.
    fn specimens() -> Vec<(Plan, Vec<i64>, Vec<u64>)> {
        let schema = Schema::new(vec![Column::bare("k", DataType::Integer)]);
        let cols = Arc::new(ColBatch::from_rows(&schema, vec![vec![Value::Int(1)]]));
        let index = Arc::new(Index::build("t", &["k".to_string()], vec![0], &cols).unwrap());
        let count = |arg| AggSpec {
            func: AggFunc::Count,
            arg,
            distinct: false,
        };
        vec![
            (
                Plan::Scan {
                    cols: Arc::clone(&cols),
                    schema: schema.clone(),
                },
                vec![],
                vec![],
            ),
            (
                Plan::IndexScan {
                    cols,
                    schema: schema.clone(),
                    index,
                    access: IndexAccess::Eq(vec![Value::Int(1)]),
                },
                vec![],
                vec![],
            ),
            (Plan::Unit, vec![], vec![]),
            (
                Plan::Filter {
                    input: input(1),
                    predicate: m(10),
                },
                vec![10],
                vec![1],
            ),
            (
                Plan::Project {
                    input: input(1),
                    exprs: vec![m(10), m(11)],
                    schema: schema.clone(),
                },
                vec![10, 11],
                vec![1],
            ),
            (
                Plan::Rename {
                    input: input(1),
                    schema: schema.clone(),
                },
                vec![],
                vec![1],
            ),
            (
                Plan::HashJoin {
                    left: input(1),
                    right: input(2),
                    kind: JoinType::Inner,
                    left_keys: vec![m(10), m(11)],
                    right_keys: vec![m(12), m(13)],
                    residual: Some(m(14)),
                    build_index: None,
                    schema: schema.clone(),
                },
                vec![10, 11, 12, 13, 14],
                vec![1, 2],
            ),
            (
                Plan::NestedLoopJoin {
                    left: input(1),
                    right: input(2),
                    kind: JoinType::LeftOuter,
                    on: Some(m(10)),
                    schema: schema.clone(),
                },
                vec![10],
                vec![1, 2],
            ),
            (
                Plan::Aggregate {
                    input: input(1),
                    group_exprs: vec![m(10), m(11)],
                    aggs: vec![count(Some(m(12))), count(None), count(Some(m(13)))],
                    schema,
                },
                vec![10, 11, 12, 13],
                vec![1],
            ),
            (Plan::Distinct { input: input(1) }, vec![], vec![1]),
            (
                Plan::UnionAll {
                    left: input(1),
                    right: input(2),
                },
                vec![],
                vec![1, 2],
            ),
            (
                Plan::Sort {
                    input: input(1),
                    keys: vec![(m(10), false), (m(11), true)],
                },
                vec![10, 11],
                vec![1],
            ),
            (
                Plan::Limit {
                    input: input(1),
                    n: 7,
                },
                vec![],
                vec![1],
            ),
        ]
    }

    #[test]
    fn accessors_list_every_field_in_execution_order() {
        let specimens = specimens();
        let variants: Vec<usize> = specimens.iter().map(|(p, _, _)| variant(p)).collect();
        assert_eq!(variants, (0..13).collect::<Vec<_>>(), "one per variant");
        for (mut plan, exprs, inputs) in specimens {
            let exprs: Vec<BoundExpr> = exprs.into_iter().map(m).collect();
            let by_ref: Vec<BoundExpr> = plan.exprs().into_iter().cloned().collect();
            assert_eq!(by_ref, exprs, "exprs of {plan:?}");
            let by_mut: Vec<BoundExpr> = plan.exprs_mut().into_iter().map(|e| e.clone()).collect();
            assert_eq!(by_mut, exprs, "exprs_mut of {plan:?}");

            let by_ref: Vec<u64> = plan.children().into_iter().map(limit_of).collect();
            assert_eq!(by_ref, inputs, "children of {plan:?}");
            let by_mut: Vec<u64> = plan
                .children_mut()
                .into_iter()
                .map(|c| limit_of(c))
                .collect();
            assert_eq!(by_mut, inputs, "children_mut of {plan:?}");
            // By value: visited in the same order, each result put back in
            // its input's place, nothing else about the node touched.
            let which = variant(&plan);
            let mut visited = Vec::new();
            let mapped = plan.map_children(|c| {
                visited.push(limit_of(&c));
                *input(limit_of(&c) + 100)
            });
            assert_eq!(visited, inputs);
            assert_eq!(variant(&mapped), which);
            let after: Vec<u64> = mapped.children().into_iter().map(limit_of).collect();
            let moved: Vec<u64> = inputs.iter().map(|n| n + 100).collect();
            assert_eq!(after, moved, "map_children of {mapped:?}");
            let kept: Vec<BoundExpr> = mapped.exprs().into_iter().cloned().collect();
            assert_eq!(kept, exprs, "map_children moved an expression");
        }
    }
}
