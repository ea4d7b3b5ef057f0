//! Cardinality and cost estimation over physical plans.
//!
//! The [`Estimator`] turns catalog statistics ([`TableStats`], collected by
//! the first plan that reads a table version — see [`crate::stats`]) into
//! per-operator output-row estimates and an abstract plan cost. It is
//! consulted by the planner to order joins, by the optimizer
//! ([`crate::opt`]) to gate right-side filter pushes and price access
//! paths, and by `EXPLAIN` to print `est_rows=` next to the measured row
//! counts.
//!
//! Estimates use the textbook System-R-style model:
//!
//! * equality against a literal: `1/NDV`; column-to-column: `1/max(NDV)`
//! * range predicates: linear interpolation over the column's `[min, max]`
//! * `AND` multiplies, `OR` adds minus the overlap, `NOT` complements
//! * inner hash join: `|L|·|R| / max(NDV(l), NDV(r))` per key pair
//! * semi join: `|L| · min(1, NDV(r)/NDV(l))`; anti is the complement;
//!   left outer never drops below `|L|`
//! * grouping: capped product of group-column NDVs
//!
//! Estimation never affects answers — only plan choices — so a bad
//! estimate costs time, not correctness (the stats-on/off differential
//! suite holds the engine to that).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use conquer_sql::BinaryOp;

use crate::col::ColBatch;
use crate::database::{Database, Entry};
use crate::expr::{BoundExpr, SubqueryKind};
use crate::index::{Index, IndexAccess};
use crate::plan::{JoinType, Plan};
use crate::stats::{numeric_of, NodeStats, TableStats};
use crate::value::Value;

/// Default selectivity when a predicate's shape gives no information.
const DEFAULT_SEL: f64 = 1.0 / 3.0;
/// Default selectivity for predicates containing subqueries (EXISTS &c.).
const SUBQUERY_SEL: f64 = 0.5;
/// Rows sampled when deriving stats for a scan with no catalog entry
/// (materialized CTEs).
const SAMPLE_ROWS: usize = 4096;

/// Estimated statistics for one column of an operator's output.
#[derive(Debug, Clone)]
pub struct ColEst {
    /// Estimated number of distinct non-null values.
    pub ndv: f64,
    /// Estimated fraction of NULLs.
    pub null_frac: f64,
    /// Numeric range, when known (ints, floats, dates, bools).
    pub min: Option<f64>,
    pub max: Option<f64>,
}

impl ColEst {
    /// A column nothing is known about, in an output of `rows` rows.
    fn unknown(rows: f64) -> ColEst {
        ColEst {
            ndv: rows.max(1.0),
            null_frac: 0.0,
            min: None,
            max: None,
        }
    }

    /// Cap NDV at the (possibly reduced) output cardinality.
    fn capped(&self, rows: f64) -> ColEst {
        ColEst {
            ndv: self.ndv.min(rows.max(1.0)),
            ..self.clone()
        }
    }
}

/// Estimated output of a plan node: cardinality plus per-column stats.
#[derive(Debug, Clone)]
pub struct Derived {
    pub rows: f64,
    pub cols: Vec<ColEst>,
}

impl Derived {
    fn empty() -> Derived {
        Derived {
            rows: 1.0,
            cols: Vec::new(),
        }
    }
}

/// Cardinality/cost estimator. Cheap to construct; holds a snapshot of the
/// catalog's entries plus a cache of sampled stats for scans the catalog
/// does not know (materialized CTEs).
#[derive(Default)]
pub struct Estimator {
    /// `Arc<ColBatch>` pointer → the catalog entry whose batch it is,
    /// taken once, when the estimator is made.
    entries: HashMap<usize, Arc<Entry>>,
    /// `Arc<ColBatch>` pointer → stats sampled from the batch itself.
    sampled: RefCell<HashMap<usize, Arc<TableStats>>>,
}

/// The key a scanned batch is looked up by: its `Arc` pointer, the
/// snapshot identity a plan's scan holds.
fn batch_key(cols: &Arc<ColBatch>) -> usize {
    Arc::as_ptr(cols) as *const () as usize
}

impl Estimator {
    /// An estimator backed by the database's catalog statistics, offering
    /// its declared secondary indexes ([`Estimator::indexes_for`]) to the
    /// optimizer's access-path pass.
    pub fn from_db(db: &Database) -> Estimator {
        let entries = db.entries().into_iter();
        Estimator {
            entries: entries.map(|e| (batch_key(e.batch()), e)).collect(),
            ..Estimator::default()
        }
    }

    /// An estimator with no catalog: every scan is sampled directly. Used
    /// in tests and anywhere a plan exists without its database.
    pub fn standalone() -> Estimator {
        Estimator::default()
    }

    /// Every index over a scanned batch, in declaration order — built here
    /// if no planning pass has built it yet. Looked up by `Arc` pointer,
    /// so an index is only ever offered for the batch its table's entry
    /// holds, and a fresh scan never gets one an `INSERT` has replaced.
    pub fn indexes_for(&self, cols: &Arc<ColBatch>) -> Vec<Arc<Index>> {
        match self.entries.get(&batch_key(cols)) {
            Some(entry) => entry.indexes(),
            None => Vec::new(),
        }
    }

    /// Statistics for a scanned batch: catalog stats when the pointer maps
    /// to a registered table, sampled stats otherwise.
    fn scan_stats(&self, cols: &Arc<ColBatch>) -> Arc<TableStats> {
        let key = batch_key(cols);
        if let Some(entry) = self.entries.get(&key) {
            return Arc::clone(entry.stats());
        }
        if let Some(s) = self.sampled.borrow().get(&key) {
            return Arc::clone(s);
        }
        let n = cols.len().min(SAMPLE_ROWS);
        let mut stats = TableStats::collect(&cols.head(n));
        if n < cols.len() && n > 0 {
            // Scale the sample up: row-linear counters scale linearly, NDV
            // scales linearly but is capped by the true row count.
            let scale = cols.len() as f64 / n as f64;
            stats.row_count = cols.len() as u64;
            for c in &mut stats.columns {
                c.null_count = (c.null_count as f64 * scale) as u64;
                c.ndv = ((c.ndv as f64 * scale) as u64).min(stats.row_count);
            }
        }
        let stats = Arc::new(stats);
        self.sampled.borrow_mut().insert(key, Arc::clone(&stats));
        stats
    }

    /// Estimated output cardinality of a plan.
    pub fn est_rows(&self, plan: &Plan) -> f64 {
        self.derive(plan).rows
    }

    /// Estimated output cardinality and column stats of a plan.
    pub fn derive(&self, plan: &Plan) -> Derived {
        match plan {
            Plan::Unit => Derived::empty(),
            Plan::Scan { cols, schema } => {
                let stats = self.scan_stats(cols);
                let n = cols.len() as f64;
                let cols = schema
                    .columns
                    .iter()
                    .enumerate()
                    .map(|(i, _)| match stats.columns.get(i) {
                        Some(c) => ColEst {
                            ndv: (c.ndv as f64).max(1.0),
                            null_frac: c.null_fraction(stats.row_count),
                            min: c.min,
                            max: c.max,
                        },
                        None => ColEst::unknown(n),
                    })
                    .collect();
                Derived { rows: n, cols }
            }
            Plan::IndexScan {
                cols,
                index,
                access,
                ..
            } => {
                let stats = self.scan_stats(cols);
                let n = cols.len() as f64;
                let base: Vec<ColEst> = (0..cols.width())
                    .map(|i| match stats.columns.get(i) {
                        Some(c) => ColEst {
                            ndv: (c.ndv as f64).max(1.0),
                            null_frac: c.null_fraction(stats.row_count),
                            min: c.min,
                            max: c.max,
                        },
                        None => ColEst::unknown(n),
                    })
                    .collect();
                let sel = self.index_access_selectivity(index, access, &base);
                let rows = (n * sel).max(0.0);
                let cols = match access {
                    IndexAccess::Conflicts { project, .. } => {
                        project.iter().map(|&c| base[c].capped(rows)).collect()
                    }
                    IndexAccess::Eq(_) | IndexAccess::Range { .. } => {
                        base.iter().map(|c| c.capped(rows)).collect()
                    }
                };
                Derived { rows, cols }
            }
            Plan::Filter { input, predicate } => {
                let d = self.derive(input);
                let sel = self.selectivity(predicate, &d);
                let rows = (d.rows * sel).max(0.0);
                let cols = d.cols.iter().map(|c| c.capped(rows)).collect();
                Derived { rows, cols }
            }
            Plan::Project { input, exprs, .. } => {
                let d = self.derive(input);
                let cols = exprs.iter().map(|e| self.expr_col(e, &d)).collect();
                Derived { rows: d.rows, cols }
            }
            Plan::Rename { input, .. } => self.derive(input),
            Plan::HashJoin {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                residual,
                ..
            } => {
                let l = self.derive(left);
                let r = self.derive(right);
                let mut joined =
                    self.join_cardinality(&l, &r, *kind, left_keys, right_keys, residual.as_ref());
                // An existence test against an index's conflict scan on
                // the whole key: the share of keys that are violated is
                // counted, where per-column NDVs would call a composite
                // key's every value present.
                if let Some(index) = right.as_conflict_scan() {
                    let violated = r.rows / index.distinct_keys().max(1) as f64;
                    let matched = match kind {
                        JoinType::Semi => Some(violated),
                        JoinType::Anti => Some(1.0 - violated),
                        JoinType::Inner | JoinType::LeftOuter => None,
                    };
                    let whole_key = residual.is_none() && right_keys.len() == index.cols().len();
                    if let Some(share) = matched.filter(|_| whole_key) {
                        joined.rows = l.rows * share;
                        joined.cols = l.cols.iter().map(|c| c.capped(joined.rows)).collect();
                    }
                }
                joined
            }
            Plan::NestedLoopJoin {
                left,
                right,
                kind,
                on,
                ..
            } => {
                let l = self.derive(left);
                let r = self.derive(right);
                let mut joined = Derived {
                    rows: l.rows * r.rows,
                    cols: l.cols.iter().chain(r.cols.iter()).cloned().collect(),
                };
                if let Some(on) = on {
                    joined.rows *= self.selectivity(on, &joined);
                }
                let rows = match kind {
                    JoinType::Inner => joined.rows,
                    JoinType::LeftOuter => joined.rows.max(l.rows),
                    JoinType::Semi => l.rows * SUBQUERY_SEL,
                    JoinType::Anti => l.rows * (1.0 - SUBQUERY_SEL),
                };
                let width = match kind {
                    JoinType::Inner | JoinType::LeftOuter => joined.cols,
                    JoinType::Semi | JoinType::Anti => l.cols,
                };
                Derived {
                    rows,
                    cols: width.iter().map(|c| c.capped(rows)).collect(),
                }
            }
            Plan::Aggregate {
                input,
                group_exprs,
                aggs,
                ..
            } => {
                let d = self.derive(input);
                let rows = if group_exprs.is_empty() {
                    1.0
                } else {
                    let mut groups = 1.0f64;
                    for g in group_exprs {
                        groups *= self.expr_ndv(g, &d);
                    }
                    groups.min(d.rows).max(1.0)
                };
                let mut cols: Vec<ColEst> = group_exprs
                    .iter()
                    .map(|g| self.expr_col(g, &d).capped(rows))
                    .collect();
                cols.extend((0..aggs.len()).map(|_| ColEst::unknown(rows)));
                Derived { rows, cols }
            }
            Plan::Distinct { input } => {
                let d = self.derive(input);
                let mut groups = 1.0f64;
                for c in &d.cols {
                    groups *= c.ndv.max(1.0);
                }
                let rows = groups.min(d.rows).max(if d.rows > 0.0 { 1.0 } else { 0.0 });
                let cols = d.cols.iter().map(|c| c.capped(rows)).collect();
                Derived { rows, cols }
            }
            Plan::UnionAll { left, right } => {
                let l = self.derive(left);
                let r = self.derive(right);
                let rows = l.rows + r.rows;
                let cols = l
                    .cols
                    .iter()
                    .zip(r.cols.iter())
                    .map(|(a, b)| ColEst {
                        ndv: (a.ndv + b.ndv).min(rows.max(1.0)),
                        null_frac: (a.null_frac + b.null_frac) / 2.0,
                        min: match (a.min, b.min) {
                            (Some(x), Some(y)) => Some(x.min(y)),
                            _ => None,
                        },
                        max: match (a.max, b.max) {
                            (Some(x), Some(y)) => Some(x.max(y)),
                            _ => None,
                        },
                    })
                    .collect();
                Derived { rows, cols }
            }
            Plan::Sort { input, .. } => self.derive(input),
            Plan::Limit { input, n } => {
                let d = self.derive(input);
                Derived {
                    rows: d.rows.min(*n as f64),
                    cols: d.cols,
                }
            }
        }
    }

    /// Join output estimate for hash joins.
    fn join_cardinality(
        &self,
        l: &Derived,
        r: &Derived,
        kind: JoinType,
        left_keys: &[BoundExpr],
        right_keys: &[BoundExpr],
        residual: Option<&BoundExpr>,
    ) -> Derived {
        // Matching-pair estimate: |L|·|R| / Π max(NDV_l, NDV_r).
        let mut inner = l.rows * r.rows;
        let mut match_frac = 1.0f64; // fraction of left rows with ≥1 match
        for (lk, rk) in left_keys.iter().zip(right_keys.iter()) {
            let ndv_l = self.expr_ndv(lk, l);
            let ndv_r = self.expr_ndv(rk, r);
            inner /= ndv_l.max(ndv_r).max(1.0);
            match_frac = match_frac.min((ndv_r / ndv_l.max(1.0)).min(1.0));
        }
        let mut joined_cols: Vec<ColEst> = l.cols.iter().chain(r.cols.iter()).cloned().collect();
        if let Some(res) = residual {
            let joined = Derived {
                rows: inner,
                cols: joined_cols.clone(),
            };
            let sel = self.selectivity(res, &joined);
            inner *= sel;
            match_frac *= sel;
        }
        let rows = match kind {
            JoinType::Inner => inner,
            JoinType::LeftOuter => inner.max(l.rows),
            JoinType::Semi => l.rows * match_frac,
            JoinType::Anti => l.rows * (1.0 - match_frac),
        };
        let cols = match kind {
            JoinType::Inner | JoinType::LeftOuter => {
                joined_cols = joined_cols.iter().map(|c| c.capped(rows)).collect();
                joined_cols
            }
            JoinType::Semi | JoinType::Anti => l.cols.iter().map(|c| c.capped(rows)).collect(),
        };
        Derived { rows, cols }
    }

    /// Fraction of a table's rows an index access keeps: `1/NDV` per
    /// equality column (zero when the literal falls outside the column's
    /// observed range), linear interpolation over `[min, max]` for a
    /// range probe — the same model the equivalent `Filter` predicate
    /// would get, so `IndexScan` vs `SeqScan`+`Filter` compare on cost,
    /// not on cardinality artifacts. A conflict scan is not estimated: the
    /// index holds the list, so its share of the table is counted.
    fn index_access_selectivity(
        &self,
        index: &Index,
        access: &IndexAccess,
        cols: &[ColEst],
    ) -> f64 {
        let col = |i: usize| cols.get(i).cloned().unwrap_or_else(|| ColEst::unknown(1.0));
        match access {
            IndexAccess::Eq(values) => {
                let mut sel = 1.0f64;
                for (&ci, v) in index.cols().iter().zip(values) {
                    let c = col(ci);
                    if let (Some(n), Some(min), Some(max)) = (numeric_of(v), c.min, c.max) {
                        if n < min || n > max {
                            return 0.0;
                        }
                    }
                    sel /= c.ndv.max(1.0);
                }
                sel
            }
            IndexAccess::Range { lo, hi } => {
                let c = col(index.cols()[0]);
                let (Some(min), Some(max)) = (c.min, c.max) else {
                    return DEFAULT_SEL;
                };
                if max <= min {
                    return DEFAULT_SEL;
                }
                let frac =
                    |v: &Value| numeric_of(v).map(|n| ((n - min) / (max - min)).clamp(0.0, 1.0));
                let lo_f = lo.as_ref().and_then(|(v, _)| frac(v)).unwrap_or(0.0);
                let hi_f = hi.as_ref().and_then(|(v, _)| frac(v)).unwrap_or(1.0);
                (hi_f - lo_f).clamp(0.0, 1.0)
            }
            IndexAccess::Conflicts { min_group, .. } => {
                let groups = index.conflict_rows(*min_group).count();
                groups as f64 / index.batch().len().max(1) as f64
            }
        }
    }

    /// Column stats an expression evaluates to over `input`.
    fn expr_col(&self, e: &BoundExpr, input: &Derived) -> ColEst {
        match e {
            BoundExpr::Column { depth: 0, index } => input
                .cols
                .get(*index)
                .cloned()
                .unwrap_or_else(|| ColEst::unknown(input.rows)),
            BoundExpr::Literal(v) => ColEst {
                ndv: 1.0,
                null_frac: if v.is_null() { 1.0 } else { 0.0 },
                min: numeric_of(v),
                max: numeric_of(v),
            },
            BoundExpr::Case {
                branches,
                else_expr,
            } => {
                // A CASE whose every result is a literal takes one of those
                // values (a missing ELSE is NULL): a flag such as a
                // rewriting's `conq_viol` has two.
                let mut results = Vec::new();
                for result in branches
                    .iter()
                    .map(|(_, then)| then)
                    .chain(else_expr.as_deref())
                {
                    let BoundExpr::Literal(v) = result else {
                        return ColEst::unknown(input.rows);
                    };
                    if !v.is_null() && !results.contains(v) {
                        results.push(v.clone());
                    }
                }
                let numeric: Option<Vec<f64>> = results.iter().map(numeric_of).collect();
                let bound = |pick: fn(f64, f64) -> f64| {
                    numeric
                        .as_ref()
                        .and_then(|n| n.iter().copied().reduce(pick))
                };
                ColEst {
                    ndv: (results.len() as f64).max(1.0),
                    null_frac: 0.0,
                    min: bound(f64::min),
                    max: bound(f64::max),
                }
            }
            _ => ColEst::unknown(input.rows),
        }
    }

    fn expr_ndv(&self, e: &BoundExpr, input: &Derived) -> f64 {
        self.expr_col(e, input).ndv.max(1.0)
    }

    /// Selectivity of a predicate over an operator output: the estimated
    /// fraction of rows for which it evaluates to TRUE.
    pub fn selectivity(&self, pred: &BoundExpr, input: &Derived) -> f64 {
        let sel = match pred {
            BoundExpr::Literal(Value::Bool(b)) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            BoundExpr::Literal(Value::Null) => 0.0,
            BoundExpr::Binary { op, left, right } => match op {
                BinaryOp::And => self.selectivity(left, input) * self.selectivity(right, input),
                BinaryOp::Or => {
                    let a = self.selectivity(left, input);
                    let b = self.selectivity(right, input);
                    a + b - a * b
                }
                BinaryOp::Eq => self.eq_selectivity(left, right, input),
                BinaryOp::NotEq => 1.0 - self.eq_selectivity(left, right, input),
                BinaryOp::Lt | BinaryOp::LtEq => self.range_selectivity(left, right, input, true),
                BinaryOp::Gt | BinaryOp::GtEq => self.range_selectivity(left, right, input, false),
                _ => DEFAULT_SEL,
            },
            BoundExpr::Not(inner) => 1.0 - self.selectivity(inner, input),
            BoundExpr::IsNull { expr, negated } => {
                let nf = self.expr_col(expr, input).null_frac;
                if *negated {
                    1.0 - nf
                } else {
                    nf
                }
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let ndv = self.expr_ndv(expr, input);
                let s = (list.len() as f64 / ndv).min(1.0);
                if *negated {
                    1.0 - s
                } else {
                    s
                }
            }
            BoundExpr::Like { negated, .. } => {
                if *negated {
                    0.75
                } else {
                    0.25
                }
            }
            BoundExpr::Subquery {
                kind: SubqueryKind::Exists { negated } | SubqueryKind::In { negated, .. },
                ..
            } => {
                if *negated {
                    1.0 - SUBQUERY_SEL
                } else {
                    SUBQUERY_SEL
                }
            }
            _ => DEFAULT_SEL,
        };
        sel.clamp(0.0, 1.0)
    }

    /// `left = right` selectivity.
    fn eq_selectivity(&self, left: &BoundExpr, right: &BoundExpr, input: &Derived) -> f64 {
        let col_l = matches!(left, BoundExpr::Column { depth: 0, .. });
        let col_r = matches!(right, BoundExpr::Column { depth: 0, .. });
        match (col_l, col_r) {
            (true, true) => {
                let a = self.expr_ndv(left, input);
                let b = self.expr_ndv(right, input);
                1.0 / a.max(b)
            }
            (true, false) => self.eq_col_const(left, right, input),
            (false, true) => self.eq_col_const(right, left, input),
            _ => DEFAULT_SEL,
        }
    }

    fn eq_col_const(&self, col: &BoundExpr, other: &BoundExpr, input: &Derived) -> f64 {
        let c = self.expr_col(col, input);
        if let BoundExpr::Literal(v) = other {
            // A literal outside the column's observed range matches nothing.
            if let (Some(n), Some(min), Some(max)) = (numeric_of(v), c.min, c.max) {
                if n < min || n > max {
                    return 0.0;
                }
            }
        }
        1.0 / c.ndv.max(1.0)
    }

    /// `left < right` (`less == true`) or `left > right` selectivity,
    /// interpolated over the column's numeric range when one side is a
    /// column and the other a literal.
    fn range_selectivity(
        &self,
        left: &BoundExpr,
        right: &BoundExpr,
        input: &Derived,
        less: bool,
    ) -> f64 {
        let (col, lit, col_below) = match (left, right) {
            (c @ BoundExpr::Column { depth: 0, .. }, BoundExpr::Literal(v)) => (c, v, less),
            (BoundExpr::Literal(v), c @ BoundExpr::Column { depth: 0, .. }) => (c, v, !less),
            _ => return DEFAULT_SEL,
        };
        let stats = self.expr_col(col, input);
        let (Some(n), Some(min), Some(max)) = (numeric_of(lit), stats.min, stats.max) else {
            return DEFAULT_SEL;
        };
        if max <= min {
            // Degenerate range: all values equal; the comparison is all-or-
            // nothing.
            let holds = if col_below { min < n } else { min > n };
            return if holds { 1.0 } else { 1.0 / stats.ndv.max(1.0) };
        }
        let frac = ((n - min) / (max - min)).clamp(0.0, 1.0);
        let sel = if col_below { frac } else { 1.0 - frac };
        sel.clamp(0.0, 1.0)
    }

    /// Abstract cost of executing a plan: rows touched per operator, summed
    /// over the tree. Build sides are weighted slightly heavier than probe
    /// sides to reflect hash-table construction.
    pub fn cost(&self, plan: &Plan) -> f64 {
        let out = self.est_rows(plan);
        let children_cost: f64 = plan.children().iter().map(|c| self.cost(c)).sum();
        let own = match plan {
            Plan::Unit => 0.0,
            Plan::Scan { cols, .. } => cols.len() as f64,
            // An index probe touches only the matching rows (plus a
            // constant for the lookup itself) — this is what lets the
            // optimizer price IndexScan against SeqScan+Filter.
            Plan::IndexScan { .. } => out + 1.0,
            Plan::Filter { input, .. } => self.est_rows(input),
            Plan::Project { input, .. } | Plan::Rename { input, .. } => self.est_rows(input),
            Plan::HashJoin {
                left,
                right,
                build_index,
                ..
            } => {
                // Probe side scans once; the build side pays hash-table
                // construction (heavier per row); plus emission. A
                // prebuilt index build side skips construction entirely.
                let build = if build_index.is_some() {
                    0.0
                } else {
                    2.0 * self.est_rows(right)
                };
                self.est_rows(left) + build + out
            }
            Plan::NestedLoopJoin { left, right, .. } => {
                self.est_rows(left) * self.est_rows(right).max(1.0)
            }
            Plan::Aggregate { input, .. } | Plan::Distinct { input } => self.est_rows(input) + out,
            Plan::UnionAll { .. } => out,
            Plan::Sort { input, .. } => {
                let n = self.est_rows(input);
                n * (n.max(2.0)).log2()
            }
            Plan::Limit { .. } => 0.0,
        };
        own + children_cost
    }
}

/// Fill `est_rows` into a [`NodeStats`] tree shaped like `plan` (one bottom-
/// up pass; children are derived once and reused).
pub fn annotate(est: &Estimator, plan: &Plan, stats: &mut NodeStats) {
    fn walk(est: &Estimator, plan: &Plan, stats: &mut NodeStats) {
        for (child_plan, child_stats) in plan.children().into_iter().zip(&mut stats.children) {
            walk(est, child_plan, child_stats);
        }
        stats.est_rows = Some(est.est_rows(plan).round().max(0.0) as u64);
    }
    walk(est, plan, stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;

    fn demo_db() -> Database {
        let db = Database::new();
        db.run_script(
            "create table emp (id integer, dept integer, sal float);
             insert into emp values
               (1, 10, 100.0), (2, 10, 200.0), (3, 20, 300.0), (4, 20, 400.0),
               (5, 30, 500.0), (6, 30, 600.0), (7, 30, 700.0), (8, 40, 800.0);
             create table dept (id integer, name text);
             insert into dept values (10, 'a'), (20, 'b'), (30, 'c'), (40, 'd');",
        )
        .unwrap();
        db
    }

    fn plan_of(db: &Database, sql: &str) -> Plan {
        let q = conquer_sql::parse_query(sql).unwrap();
        db.plan(&q, &Default::default()).unwrap()
    }

    #[test]
    fn scan_estimate_is_exact() {
        let db = demo_db();
        let plan = plan_of(&db, "select * from emp");
        let est = Estimator::from_db(&db);
        assert_eq!(est.est_rows(&plan), 8.0);
    }

    #[test]
    fn equality_filter_uses_ndv() {
        let db = demo_db();
        let plan = plan_of(&db, "select * from emp where dept = 10");
        let est = Estimator::from_db(&db);
        // 8 rows / 4 distinct depts = 2.
        assert!((est.est_rows(&plan) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_literal_estimates_zero() {
        let db = demo_db();
        let plan = plan_of(&db, "select * from emp where dept = 99");
        let est = Estimator::from_db(&db);
        assert_eq!(est.est_rows(&plan), 0.0);
    }

    #[test]
    fn literal_case_results_bound_the_column() {
        let db = demo_db();
        let est = Estimator::from_db(&db);
        let flag = "select * from (select id, case when dept > 20 then 1 else 0 end as f \
                    from emp) t where t.f = ";
        // Two results, 0 and 1: half the rows match either, none match 2.
        let plan = plan_of(&db, &format!("{flag}1"));
        assert!((est.est_rows(&plan) - 4.0).abs() < 1e-9, "{plan:?}");
        assert_eq!(est.est_rows(&plan_of(&db, &format!("{flag}2"))), 0.0);
        // A computed result is no literal: nothing is known.
        let plan = plan_of(
            &db,
            "select * from (select id, case when dept > 20 then id else 0 end as f \
             from emp) t where t.f = 1",
        );
        assert!((est.est_rows(&plan) - 1.0).abs() < 1e-9, "{plan:?}");
    }

    #[test]
    fn range_filter_interpolates() {
        let db = demo_db();
        let est = Estimator::from_db(&db);
        // sal in [100, 800]; sal < 450 covers half the range.
        let plan = plan_of(&db, "select * from emp where sal < 450");
        let got = est.est_rows(&plan);
        assert!((3.0..=5.0).contains(&got), "got {got}");
    }

    #[test]
    fn join_estimate_divides_by_key_ndv() {
        let db = demo_db();
        let plan = plan_of(&db, "select * from emp, dept where emp.dept = dept.id");
        let est = Estimator::from_db(&db);
        // 8·4 / max(4,4) = 8 matching pairs.
        assert!((est.est_rows(&plan) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn group_by_estimates_ndv_groups() {
        let db = demo_db();
        let plan = plan_of(&db, "select dept, count(*) from emp group by dept");
        let est = Estimator::from_db(&db);
        assert!((est.est_rows(&plan) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn standalone_estimator_samples_scans() {
        let db = demo_db();
        let plan = plan_of(&db, "select * from emp where dept = 10");
        let est = Estimator::standalone();
        assert!((est.est_rows(&plan) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cost_prefers_small_build_side() {
        let db = demo_db();
        let est = Estimator::from_db(&db);
        // Probing with the big side and building on the small side must be
        // cheaper than the reverse under the cost model.
        let fwd = plan_of(&db, "select * from emp join dept on emp.dept = dept.id");
        let c_fwd = est.cost(&fwd);
        assert!(c_fwd > 0.0);
    }

    #[test]
    fn annotate_fills_every_node() {
        let db = demo_db();
        let plan = plan_of(
            &db,
            "select dept, count(*) from emp where sal > 0 group by dept",
        );
        let est = Estimator::from_db(&db);
        let mut stats = NodeStats::for_plan(&plan);
        annotate(&est, &plan, &mut stats);
        fn check(s: &NodeStats) {
            assert!(s.est_rows.is_some());
            s.children.iter().for_each(check);
        }
        check(&stats);
    }
}
