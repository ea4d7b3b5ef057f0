//! In-process passes: the untraced window behind the end-to-end metrics,
//! and the traced one that calls each layer's public function in turn.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use conquer_core::{analyze, rewrite_tree, RewriteOptions};
use conquer_engine::{ExecOptions, NodeStats, Plan};
use conquer_sql::ast::Query;
use conquer_sql::parse_query;

use crate::stats::{median_of, Tracer};
use crate::workload::{direct, Env, Limit, Strat, Tally, STRATS};

/// What a timed window of read passes yields, in process or over the wire.
#[derive(Default)]
pub struct Window {
    /// Per pass, the summed caller-observed latency of the pass's queries
    /// under each strategy, milliseconds.
    pub passes: Vec<[f64; 3]>,
    /// Latency of every read operation, milliseconds.
    pub req_ms: Vec<f64>,
    pub wall_s: f64,
    pub tally: Tally,
}

/// One untraced pass after another until `limit`: each query under the
/// three strategies back to back, so drift hits all three alike.
pub fn run(env: &Env, limit: Limit) -> Window {
    let options = ExecOptions::default();
    let mut w = Window::default();
    let started = Instant::now();
    while !limit.done(w.passes.len(), started) {
        let mut pass = [0.0; 3];
        for (qi, q) in env.spec.queries.iter().enumerate() {
            for (si, s) in STRATS.into_iter().enumerate() {
                let t = Instant::now();
                let result = direct(&env.db, &env.sigma, black_box(q.sql), s, &options);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                pass[si] += ms;
                w.req_ms.push(ms);
                env.check_answer(&mut w.tally, qi, si, "in process", result.as_ref());
            }
        }
        w.passes.push(pass);
    }
    w.wall_s = started.elapsed().as_secs_f64();
    w
}

/// Physical operators grouped the way the layer table reports them.
pub const OP_CLASSES: [&str; 5] = ["scan", "filter", "join", "agg", "other"];

fn op_class(plan: &Plan) -> usize {
    match plan {
        Plan::Scan { .. } | Plan::IndexScan { .. } => 0,
        Plan::Filter { .. } => 1,
        Plan::HashJoin { .. } | Plan::NestedLoopJoin { .. } => 2,
        Plan::Aggregate { .. } | Plan::Distinct { .. } => 3,
        _ => 4,
    }
}

/// Counters of one traced execution. They depend on data and plan only, so
/// at a fixed seed they must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub rows_scanned: u64,
    pub join_build_rows: u64,
    pub join_probe_rows: u64,
    pub join_comparisons: u64,
    pub agg_input_rows: u64,
    pub rows_out: u64,
}

fn walk(plan: &Plan, stats: &NodeStats, self_us: &mut [f64; 5], counts: &mut OpCounts) {
    let class = op_class(plan);
    self_us[class] += stats.self_wall().as_secs_f64() * 1e6;
    match class {
        2 => {
            counts.join_build_rows += stats.build_rows;
            counts.join_probe_rows += stats.probe_rows;
            counts.join_comparisons += stats.comparisons;
        }
        3 => counts.agg_input_rows += stats.rows_in(),
        _ => {}
    }
    for (child, child_stats) in plan.children().into_iter().zip(&stats.children) {
        walk(child, child_stats, self_us, counts);
    }
}

/// The traced window's yield: the direct calls as a [`Window`], and per
/// (query, strategy, layer) the samples the layer table takes medians of.
pub struct Layered {
    pub window: Window,
    /// Microseconds, keyed by (query index, strategy index, span name).
    samples: BTreeMap<(usize, usize, &'static str), Vec<f64>>,
    pub rewritten_bytes: u64,
    pub counts: OpCounts,
    /// Whether a second traced execution reproduced `counts` bit for bit.
    pub counts_repeat: bool,
}

/// The layers whose calls, made one at a time, stand for one direct call.
pub const CALL_LAYERS: [&str; 6] = [
    "sql.parse",
    "core.analyze",
    "core.rewrite",
    "engine.plan",
    "engine.exec",
    "engine.release",
];

/// Executions per (query, strategy) that collect per-operator statistics.
const OP_TRACED_PASSES: usize = 2;

impl Layered {
    /// Microseconds one pass spends in `layer`: the median over passes per
    /// (query, strategy), summed over the pass.
    pub fn pass_us(&self, layer: &str) -> f64 {
        self.samples
            .iter()
            .filter(|((_, _, name), _)| *name == layer)
            .map(|(_, v)| median_of(&mut v.clone()))
            .sum()
    }

    /// Per pass, the time in `parts` over the time in the direct calls,
    /// both summed over the cells whose strategy `keep` accepts. Inside a
    /// pass the two ran back to back, so the quotient is free of the
    /// machine's drift from one pass to the next.
    fn share_of_direct(&self, parts: &[&str], keep: impl Fn(Strat) -> bool) -> Vec<f64> {
        (0..self.window.passes.len())
            .map(|pass| {
                let sum = |names: &[&str]| -> f64 {
                    self.samples
                        .iter()
                        .filter(|((_, si, name), _)| names.contains(name) && keep(STRATS[*si]))
                        .map(|(_, v)| v[pass])
                        .sum()
                };
                sum(parts) / sum(&["direct"])
            })
            .collect()
    }

    /// Per pass, the share of the direct calls that the layers called one
    /// at a time do not account for.
    pub fn unaccounted_by_pass(&self) -> Vec<f64> {
        let mut shares = self.share_of_direct(&CALL_LAYERS, |_| true);
        shares.iter_mut().for_each(|s| *s = 1.0 - *s);
        shares
    }

    /// What the spans around the layer-by-layer calls of the rewritten
    /// strategy cost, relative to its direct call: the median pass.
    pub fn trace_overhead_frac(&self) -> f64 {
        median_of(&mut self.share_of_direct(&["layered"], |s| s == Strat::Rewritten)) - 1.0
    }
}

/// One (query, strategy) cell of a traced pass.
#[derive(Clone, Copy)]
struct Cell {
    qi: usize,
    si: usize,
    request: u64,
}

impl Layered {
    fn record(&mut self, cell: Cell, name: &'static str, ns: u64) {
        self.samples
            .entry((cell.qi, cell.si, name))
            .or_default()
            .push(ns as f64 / 1e3);
    }

    /// The caller's entry point, as the untraced window calls it.
    fn direct_turn(&mut self, env: &Env, tracer: &mut Tracer, cell: Cell) -> f64 {
        let sql = env.spec.queries[cell.qi].sql;
        let id = tracer.enter("direct", cell.request);
        let result = direct(
            &env.db,
            &env.sigma,
            black_box(sql),
            STRATS[cell.si],
            &ExecOptions::default(),
        );
        let ns = tracer.exit(id);
        self.record(cell, "direct", ns);
        env.check_answer(
            &mut self.window.tally,
            cell.qi,
            cell.si,
            "direct call",
            result.as_ref(),
        );
        ns as f64 / 1e6
    }

    /// The same work as parse → analyze → rewrite → plan → execute → drop
    /// the plan, one public function at a time with a span around each. Returns the query
    /// that was executed.
    fn layered_turn(&mut self, env: &Env, tracer: &mut Tracer, cell: Cell) -> Query {
        let options = ExecOptions::default();
        let (sql, strat, req) = (env.spec.queries[cell.qi].sql, STRATS[cell.si], cell.request);
        let layered = tracer.enter("layered", req);
        let id = tracer.enter("sql.parse", req);
        let parsed = parse_query(black_box(sql)).expect("benchmark query parses");
        self.record(cell, "sql.parse", tracer.exit(id));
        let query = if strat == Strat::Original {
            parsed
        } else {
            let id = tracer.enter("core.analyze", req);
            let tree = analyze(&parsed, &env.sigma).expect("benchmark query is a tree");
            self.record(cell, "core.analyze", tracer.exit(id));
            let id = tracer.enter("core.rewrite", req);
            let rewritten = rewrite_tree(
                &tree,
                &RewriteOptions {
                    annotated: strat == Strat::Annotated,
                    ..RewriteOptions::default()
                },
            )
            .expect("benchmark query rewrites");
            self.record(cell, "core.rewrite", tracer.exit(id));
            rewritten
        };
        let id = tracer.enter("engine.plan", req);
        let plan = env.db.plan(&query, &options);
        self.record(cell, "engine.plan", tracer.exit(id));
        let plan = plan.expect("benchmark query plans");
        let id = tracer.enter("engine.exec", req);
        let rows = env.db.execute_plan_with(&plan, &options);
        self.record(cell, "engine.exec", tracer.exit(id));
        // The direct call frees the plan, materialized CTEs included,
        // before it returns; here that is a step of its own.
        let id = tracer.enter("engine.release", req);
        drop(plan);
        self.record(cell, "engine.release", tracer.exit(id));
        self.record(cell, "layered", tracer.exit(layered));
        env.check_answer(
            &mut self.window.tally,
            cell.qi,
            cell.si,
            "layer by layer",
            rows.as_ref(),
        );
        query
    }

    /// One execution that collects per-operator statistics.
    fn operator_turn(
        &mut self,
        env: &Env,
        tracer: &mut Tracer,
        cell: Cell,
        query: &Query,
        counts: &mut OpCounts,
    ) {
        let id = tracer.enter("engine.exec_traced", cell.request);
        let traced = env.db.execute_query_traced(query, &ExecOptions::default());
        tracer.exit(id);
        let (_, plan, stats) = traced.expect("benchmark query executes traced");
        let mut self_us = [0.0; 5];
        counts.rows_scanned += plan.base_rows();
        counts.rows_out += stats.rows_out;
        walk(&plan, &stats, &mut self_us, counts);
        for (class, us) in OP_CLASSES.iter().zip(self_us) {
            self.samples
                .entry((cell.qi, cell.si, class))
                .or_default()
                .push(us);
        }
    }
}

/// Traced passes until `limit`. Per (query, strategy): the direct call and
/// the layer-by-layer calls — taking turns going first, because whichever
/// runs second finds the caches warm — then, on the first passes, one
/// execution that collects per-operator statistics.
pub fn run_layered(env: &Env, limit: Limit, tracer: &mut Tracer, request: &mut u64) -> Layered {
    let mut out = Layered {
        window: Window::default(),
        samples: BTreeMap::new(),
        rewritten_bytes: 0,
        counts: OpCounts::default(),
        counts_repeat: true,
    };
    let started = Instant::now();
    while !limit.done(out.window.passes.len(), started) {
        let pass_no = out.window.passes.len();
        let mut pass = [0.0; 3];
        let mut counts = OpCounts::default();
        for qi in 0..env.spec.queries.len() {
            for (si, strat) in STRATS.into_iter().enumerate() {
                *request += 1;
                let cell = Cell {
                    qi,
                    si,
                    request: *request,
                };
                let root = tracer.enter("request", cell.request);
                let (ms, query) = if pass_no.is_multiple_of(2) {
                    let ms = out.direct_turn(env, tracer, cell);
                    (ms, out.layered_turn(env, tracer, cell))
                } else {
                    let query = out.layered_turn(env, tracer, cell);
                    (out.direct_turn(env, tracer, cell), query)
                };
                pass[si] += ms;
                out.window.req_ms.push(ms);
                if pass_no == 0 && strat == Strat::Rewritten {
                    out.rewritten_bytes += query.to_string().len() as u64;
                }
                if pass_no < OP_TRACED_PASSES {
                    out.operator_turn(env, tracer, cell, &query, &mut counts);
                }
                tracer.exit(root);
            }
        }
        match pass_no {
            0 => out.counts = counts,
            n if n < OP_TRACED_PASSES => out.counts_repeat &= counts == out.counts,
            _ => {}
        }
        out.window.passes.push(pass);
    }
    out.window.wall_s = started.elapsed().as_secs_f64();
    out
}
