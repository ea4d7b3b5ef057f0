//! Post-planning optimizations: filter pushdown through joins and renames,
//! and access-path selection.
//!
//! ConQuer's Section 5 relies on the host optimizer evaluating the
//! `conscand > 0` guard *before* the Filter's joins ("it is up to the query
//! optimizer to perform this selection before the joins; the results ...
//! show that it consistently chooses the appropriate strategy"). This pass
//! plays that role: conjuncts of a `Filter` that reference only one side of
//! a join move below it, eventually fusing with the base-table scan.
//!
//! [`optimize`] is the one entry point, and it always has a cost
//! [`Estimator`] (see [`crate::cost`]); `ExecOptions::optimize = false`
//! skips it altogether and runs the plan as the planner wrote it. Two
//! passes, each "rewrite my inputs, then my own node" over
//! [`Plan::map_children`], naming only the operators it rewrites:
//!
//! * `pushdown` sinks left-side conjuncts below any join, and
//!   *right-side* conjuncts below inner joins when their estimated
//!   selectivity is at most [`RIGHT_PUSH_MAX_SEL`] — re-indexing them with
//!   `remap_row_refs`. Unselective right-side predicates (ConQuer's NSC
//!   disjunctions) stay above the join, where they run over far fewer rows;
//! * `select_access_paths` turns filtered scans into index scans, serves
//!   hash-join builds from prebuilt indexes and reads conflict sets off
//!   them, each priced against the sequential plan.
//!
//! Which side of an inner hash join is hashed is not decided here: the
//! executor builds on the smaller input, on actual sizes, unless an index
//! serves the right side.

use crate::cost::Estimator;
use crate::expr::BoundExpr;
use crate::index::{Index, IndexAccess};
use crate::kernels;
use crate::plan::{AggFunc, AggSpec, JoinType, Plan};
use crate::schema::Schema;
use crate::value::Value;

/// Push a conjunct below the right side of an inner join only when its
/// estimated selectivity is at most this: filtering predicates go down,
/// pass-through predicates stay above the (smaller) join output.
pub const RIGHT_PUSH_MAX_SEL: f64 = 0.75;

/// Optimize a plan tree: filter pushdown (both sides where the estimator
/// deems it profitable), then access-path selection over the final shape.
pub fn optimize(plan: Plan, est: &Estimator) -> Plan {
    select_access_paths(pushdown(plan, est), est)
}

/// Filter-pushdown walk: pushes filter conjuncts through `Rename`,
/// `Filter`, inner `HashJoin`/`NestedLoopJoin` (both sides), left-outer
/// joins (left side only), and semi/anti joins (left side).
fn pushdown(plan: Plan, est: &Estimator) -> Plan {
    match plan.map_children(|child| pushdown(child, est)) {
        Plan::Filter { input, predicate } => {
            push_filter(*input, split_bound_conjuncts(predicate), est)
        }
        other => other,
    }
}

/// Push a set of conjuncts as deep as possible above `input`, rebuilding a
/// `Filter` for whatever cannot sink further.
fn push_filter(input: Plan, conjuncts: Vec<BoundExpr>, est: &Estimator) -> Plan {
    if conjuncts.is_empty() {
        return input;
    }
    match input {
        Plan::Filter {
            input: inner,
            predicate,
        } => {
            // Merge with the existing filter and retry on its input.
            let mut all = split_bound_conjuncts(predicate);
            all.extend(conjuncts);
            push_filter(*inner, all, est)
        }
        Plan::Rename {
            input: inner,
            schema,
        } => {
            // Renames keep column positions; conjuncts pass through intact.
            let pushed = push_filter(*inner, conjuncts, est);
            Plan::Rename {
                input: Box::new(pushed),
                schema,
            }
        }
        Plan::HashJoin {
            ref left,
            ref right,
            kind,
            ..
        }
        | Plan::NestedLoopJoin {
            ref left,
            ref right,
            kind,
            ..
        } => {
            let (sink_left, sink_right, keep) =
                split_by_side(conjuncts, left.schema().len(), kind, est, right);
            let mut sinks = [sink_left, sink_right].into_iter();
            let joined =
                input.map_children(|side| push_filter(side, sinks.next().unwrap_or_default(), est));
            wrap_filter(joined, keep)
        }
        other => wrap_filter(other, conjuncts),
    }
}

/// Partition conjuncts into (push-left, push-right, keep-above) for a join
/// of the given type. Right-side conjuncts are re-indexed to the right
/// child's columns with [`remap_row_refs`].
fn split_by_side(
    conjuncts: Vec<BoundExpr>,
    left_width: usize,
    kind: JoinType,
    est: &Estimator,
    right_child: &Plan,
) -> (Vec<BoundExpr>, Vec<BoundExpr>, Vec<BoundExpr>) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut keep = Vec::new();
    // Lazily derived right-child stats, shared across conjuncts.
    let mut right_derived = None;
    for conjunct in conjuncts {
        let mut refs = Vec::new();
        collect_row_refs(&conjunct, 0, &mut refs);
        // Left-side conjuncts sink for any join type: a conjunct over left
        // columns sees identical values above and below the join, and
        // semi/anti/left-outer joins pass every left row through unchanged
        // or extended.
        if refs.iter().all(|i| *i < left_width) {
            left.push(conjunct);
            continue;
        }
        // Right-side conjuncts may sink below *inner* joins only (an outer
        // join would null-extend rows the pushed filter removed; semi/anti
        // outputs have no right columns, so the case cannot arise). Pushing
        // is correct whenever it applies, but only *profitable* when the
        // predicate actually filters: in ConQuer's Filter CTEs the right
        // side is a base table and the right-side conjunct is the
        // low-selectivity NSC disjunction, far cheaper to evaluate on the
        // join's (small) output. The estimator arbitrates.
        let all_right = refs.iter().all(|i| *i >= left_width);
        if all_right && kind == JoinType::Inner {
            let mut remapped = conjunct.clone();
            remap_row_refs(&mut remapped, 0, left_width);
            let derived = right_derived.get_or_insert_with(|| est.derive(right_child));
            if est.selectivity(&remapped, derived) <= RIGHT_PUSH_MAX_SEL {
                right.push(remapped);
                continue;
            }
        }
        keep.push(conjunct);
    }
    (left, right, keep)
}

/// Access-path selection over the final plan shape: rewrite
/// `Filter`-over-`Scan` into an `IndexScan` (plus a residual `Filter` for
/// conjuncts the index cannot answer) when a secondary index covers the
/// filter's key-equality or range conjuncts *and* the cost model prices
/// the probe below the sequential scan, and serve hash-join build sides
/// from a prebuilt index whenever the build keys are exactly the index's
/// key columns — joins that emit build rows, that is: a residual-free
/// semi/anti join only tests keys for existence, which the executor does
/// off the key columns of whatever its build input is. A `GROUP BY …
/// HAVING count(*) > c` over exactly an index's key columns is read off the
/// index's conflict list ([`try_conflict_scan`]). Every index the estimator
/// offers over a scan is considered, and the cheapest that matches wins —
/// on a database that declares none, plans are untouched.
fn select_access_paths(plan: Plan, est: &Estimator) -> Plan {
    // The conflict scan replaces a whole `Project(Filter(Aggregate(Scan)))`
    // subtree, so it is matched before anything below it is rewritten.
    if let Plan::Project {
        input,
        exprs,
        schema,
    } = &plan
    {
        if let Some(scan) = try_conflict_scan(input, exprs, schema, est) {
            return scan;
        }
    }
    match plan.map_children(|child| select_access_paths(child, est)) {
        Plan::Filter { input, predicate } => {
            if let Plan::Scan { cols, schema } = &*input {
                // The cheapest index scan that beats the sequential plan,
                // the first declared of equals.
                let rewritten = est
                    .indexes_for(cols)
                    .into_iter()
                    .filter_map(|index| try_index_scan(cols, schema, &index, &predicate, est))
                    .min_by(|x, y| est.cost(x).total_cmp(&est.cost(y)));
                if let Some(rewritten) = rewritten {
                    return rewritten;
                }
            }
            Plan::Filter { input, predicate }
        }
        Plan::HashJoin {
            left,
            right,
            kind,
            mut left_keys,
            mut right_keys,
            residual,
            mut build_index,
            schema,
        } => {
            // Postings replace the build of a join that emits build rows.
            // An existence test asks only whether a key is there: the
            // executor's existence body builds a set of the build side's
            // distinct keys and reads no postings, so an index lent to it
            // would go unused. Whether probing an index's key table would
            // beat that build is a plan change, to be measured on its own.
            let existence_test =
                matches!(kind, JoinType::Semi | JoinType::Anti) && residual.is_none();
            if build_index.is_none() && !existence_test {
                if let Plan::Scan { cols, .. } = &*right {
                    if let Some((index, perm)) = index_on_keys(est, cols, &right_keys) {
                        // Reorder both key vectors into the index's column
                        // order so probe keys hash exactly the keys the
                        // postings were built from.
                        left_keys = perm.iter().map(|&j| left_keys[j].clone()).collect();
                        right_keys = perm.iter().map(|&j| right_keys[j].clone()).collect();
                        build_index = Some(index);
                    }
                }
            }
            // ConQuer's rewriting shape: an *inner* join whose build side
            // is a filtered base table (the Filter rewriting joins the
            // candidates back against `σ(R)`). Hoisting the filter into
            // the join residual is sound for inner joins — every emitted
            // pair must satisfy it either way — and frees the prebuilt
            // key index to serve the build. Priced against building from
            // the filtered scan, so a very selective build filter keeps
            // the sequential build.
            if build_index.is_none() && matches!(kind, JoinType::Inner) {
                if let Plan::Filter { input, predicate } = &*right {
                    if let Plan::Scan {
                        cols,
                        schema: scan_schema,
                    } = &**input
                    {
                        if let Some((index, perm)) = index_on_keys(est, cols, &right_keys) {
                            let mut hoisted = predicate.clone();
                            let w_l = left.schema().len();
                            map_row_refs(&mut hoisted, 0, &mut |i| i + w_l);
                            let mut conjuncts = vec![hoisted];
                            if let Some(r) = residual.clone() {
                                conjuncts.extend(split_bound_conjuncts(r));
                            }
                            let candidate = Plan::HashJoin {
                                left: left.clone(),
                                right: Box::new(Plan::Scan {
                                    cols: std::sync::Arc::clone(cols),
                                    schema: scan_schema.clone(),
                                }),
                                kind,
                                left_keys: perm.iter().map(|&j| left_keys[j].clone()).collect(),
                                right_keys: perm.iter().map(|&j| right_keys[j].clone()).collect(),
                                residual: conjoin_bound(conjuncts),
                                build_index: Some(index),
                                schema: schema.clone(),
                            };
                            let original = Plan::HashJoin {
                                left: left.clone(),
                                right: right.clone(),
                                kind,
                                left_keys: left_keys.clone(),
                                right_keys: right_keys.clone(),
                                residual: residual.clone(),
                                build_index: None,
                                schema: schema.clone(),
                            };
                            if est.cost(&candidate) < est.cost(&original) {
                                return candidate;
                            }
                        }
                    }
                }
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
            }
        }
        other => other,
    }
}

/// `SELECT K' FROM R GROUP BY K HAVING count(*) > c` — as planned, a
/// `Project` of group columns over the `HAVING` filter over the aggregate
/// over a bare scan — where `K` is exactly the key of a built index on `R`
/// and at least two rows must share a key: the index's conflict list *is*
/// the answer, rows and order, and the plan becomes an index-only scan. Not
/// priced against the aggregate it replaces: listing at most `|R| / 2`
/// counted groups is never dearer than grouping `|R|` rows. Refused when
/// the index skipped NULL-key rows, which `GROUP BY` would have grouped.
fn try_conflict_scan(
    input: &Plan,
    exprs: &[BoundExpr],
    schema: &Schema,
    est: &Estimator,
) -> Option<Plan> {
    let Plan::Filter { input, predicate } = input else {
        return None;
    };
    let Plan::Aggregate {
        input,
        group_exprs,
        aggs,
        ..
    } = &**input
    else {
        return None;
    };
    let Plan::Scan { cols, .. } = &**input else {
        return None;
    };
    let [AggSpec {
        func: AggFunc::Count,
        arg: None,
        distinct: false,
    }] = aggs.as_slice()
    else {
        return None;
    };
    let group_cols = kernels::column_indices(group_exprs)?;
    // `count(*) > c` or `count(*) >= c` over the one aggregate slot.
    let BoundExpr::Binary { op, left, right } = predicate else {
        return None;
    };
    let (
        BoundExpr::Column {
            depth: 0,
            index: slot,
        },
        BoundExpr::Literal(Value::Int(c)),
    ) = (&**left, &**right)
    else {
        return None;
    };
    if *slot != group_exprs.len() {
        return None;
    }
    let min_group = match op {
        conquer_sql::BinaryOp::Gt => c.checked_add(1)?,
        conquer_sql::BinaryOp::GtEq => *c,
        _ => return None,
    };
    let min_group = usize::try_from(min_group).ok().filter(|m| *m >= 2)?;
    // Every output column must be a group column (slot `group_cols.len()`
    // is the count, which the index-only scan does not produce).
    let project = compose_columns(exprs, &group_cols)?;
    let index = est
        .indexes_for(cols)
        .into_iter()
        .find(|i| i.null_key_rows() == 0 && key_permutation(i, &group_cols).is_some())?;
    Some(Plan::IndexScan {
        cols: std::sync::Arc::clone(cols),
        schema: schema.clone(),
        index,
        access: IndexAccess::Conflicts { min_group, project },
    })
}

/// The first index over the scanned `cols` whose key columns are exactly
/// the plain-column `keys` in some order, with the permutation that puts
/// the keys in index order ([`key_permutation`]). Any two such indexes
/// serve a join alike.
fn index_on_keys(
    est: &Estimator,
    cols: &std::sync::Arc<crate::col::ColBatch>,
    keys: &[BoundExpr],
) -> Option<(std::sync::Arc<Index>, Vec<usize>)> {
    let key_cols = kernels::column_indices(keys)?;
    est.indexes_for(cols).into_iter().find_map(|index| {
        let perm = key_permutation(&index, &key_cols)?;
        Some((index, perm))
    })
}

/// Attempt to serve a filtered scan through `index`, pricing the candidate
/// against the sequential plan. Returns the rewritten subtree only when
/// the index answers part of the predicate *and* costs less.
fn try_index_scan(
    cols: &std::sync::Arc<crate::col::ColBatch>,
    schema: &crate::schema::Schema,
    index: &std::sync::Arc<Index>,
    predicate: &BoundExpr,
    est: &Estimator,
) -> Option<Plan> {
    let conjuncts = split_bound_conjuncts(predicate.clone());
    let (access, residual) = index_access_for(index, schema, conjuncts)?;
    let candidate = wrap_filter(
        Plan::IndexScan {
            cols: std::sync::Arc::clone(cols),
            schema: schema.clone(),
            index: std::sync::Arc::clone(index),
            access,
        },
        residual,
    );
    let original = Plan::Filter {
        input: Box::new(Plan::Scan {
            cols: std::sync::Arc::clone(cols),
            schema: schema.clone(),
        }),
        predicate: predicate.clone(),
    };
    (est.cost(&candidate) < est.cost(&original)).then_some(candidate)
}

/// Carve an [`IndexAccess`] out of a filter's conjuncts: a full equality
/// cover of the index's key columns (one typed literal per column), or —
/// for single-column ordered indexes — the first lower and upper range
/// bounds. Everything unconsumed comes back as the residual.
fn index_access_for(
    index: &Index,
    schema: &crate::schema::Schema,
    conjuncts: Vec<BoundExpr>,
) -> Option<(IndexAccess, Vec<BoundExpr>)> {
    // Full equality cover first: the cheapest probe an index offers.
    let mut used = vec![false; conjuncts.len()];
    let mut values = Vec::new();
    for &c in index.cols() {
        let hit = conjuncts
            .iter()
            .enumerate()
            .find(|(j, conj)| !used[*j] && eq_on_col(conj, schema, c).is_some());
        match hit {
            Some((j, conj)) => {
                used[j] = true;
                values.push(eq_on_col(conj, schema, c)?);
            }
            None => {
                values.clear();
                break;
            }
        }
    }
    if values.len() == index.cols().len() {
        let residual = conjuncts
            .into_iter()
            .zip(used)
            .filter_map(|(conj, u)| (!u).then_some(conj))
            .collect();
        return Some((IndexAccess::Eq(values), residual));
    }
    // Range probe over the single ordered key column: consume the first
    // lower and first upper bound; further bounds stay in the residual
    // (re-applied exactly, so tightness is a cost question, not a
    // correctness one).
    if index.supports_range() {
        let c = index.cols()[0];
        let (mut lo, mut hi) = (None, None);
        let mut residual = Vec::new();
        for conj in conjuncts {
            match range_on_col(&conj, schema, c) {
                Some((true, v, inclusive)) if lo.is_none() => lo = Some((v, inclusive)),
                Some((false, v, inclusive)) if hi.is_none() => hi = Some((v, inclusive)),
                _ => residual.push(conj),
            }
        }
        if lo.is_some() || hi.is_some() {
            return Some((IndexAccess::Range { lo, hi }, residual));
        }
    }
    None
}

/// `col = literal` (either side) on column `c`, with the literal's type
/// compatible with the column's — the shapes where an index equality
/// probe provably agrees with SQL equality.
fn eq_on_col(conj: &BoundExpr, schema: &crate::schema::Schema, c: usize) -> Option<Value> {
    let BoundExpr::Binary {
        op: conquer_sql::BinaryOp::Eq,
        left,
        right,
    } = conj
    else {
        return None;
    };
    let (i, v) = col_and_literal(left, right)?;
    (i == c && literal_type_ok(v, schema.columns.get(c)?.ty)).then(|| v.clone())
}

/// `col OP literal` / `literal OP col` comparison on column `c` with a
/// typed numeric-comparable literal. Returns `(is_lower_bound, literal,
/// inclusive)` from the column's point of view.
fn range_on_col(
    conj: &BoundExpr,
    schema: &crate::schema::Schema,
    c: usize,
) -> Option<(bool, Value, bool)> {
    use conquer_sql::BinaryOp::{Gt, GtEq, Lt, LtEq};
    let BoundExpr::Binary { op, left, right } = conj else {
        return None;
    };
    let (i, v, col_on_left) = match (&**left, &**right) {
        (BoundExpr::Column { depth: 0, index }, BoundExpr::Literal(v)) => (*index, v, true),
        (BoundExpr::Literal(v), BoundExpr::Column { depth: 0, index }) => (*index, v, false),
        _ => return None,
    };
    if i != c
        || !literal_type_ok(v, schema.columns.get(c)?.ty)
        || crate::stats::numeric_of(v).is_none()
    {
        return None;
    }
    let (is_lo, inclusive) = match (op, col_on_left) {
        (Gt, true) | (Lt, false) => (true, false),
        (GtEq, true) | (LtEq, false) => (true, true),
        (Lt, true) | (Gt, false) => (false, false),
        (LtEq, true) | (GtEq, false) => (false, true),
        _ => return None,
    };
    Some((is_lo, v.clone(), inclusive))
}

fn col_and_literal<'e>(left: &'e BoundExpr, right: &'e BoundExpr) -> Option<(usize, &'e Value)> {
    match (left, right) {
        (BoundExpr::Column { depth: 0, index }, BoundExpr::Literal(v))
        | (BoundExpr::Literal(v), BoundExpr::Column { depth: 0, index }) => Some((*index, v)),
        _ => None,
    }
}

/// Literal/column pairings where the index key normalization (integral
/// floats fold into ints) provably agrees with SQL equality and ordering.
/// NULL and NaN literals never qualify (`= NULL` matches nothing, and the
/// filter kernel would agree).
fn literal_type_ok(lit: &Value, ty: crate::schema::DataType) -> bool {
    use crate::schema::DataType;
    match (lit, ty) {
        (Value::Int(_), DataType::Integer | DataType::Float) => true,
        (Value::Float(f), DataType::Integer | DataType::Float) => f.is_finite(),
        (Value::Str(_), DataType::Text) => true,
        (Value::Bool(_), DataType::Boolean) => true,
        (Value::Date(_), DataType::Date) => true,
        _ => false,
    }
}

/// If the key columns `key_cols` are exactly a permutation of the index's
/// key columns, return the permutation `perm` with `key_cols[perm[p]]`
/// covering `index.cols()[p]`.
fn key_permutation(index: &Index, key_cols: &[usize]) -> Option<Vec<usize>> {
    if key_cols.len() != index.cols().len() {
        return None;
    }
    let mut used = vec![false; key_cols.len()];
    let mut perm = Vec::with_capacity(key_cols.len());
    for &c in index.cols() {
        let j = key_cols
            .iter()
            .enumerate()
            .find(|(j, &kc)| !used[*j] && kc == c)?
            .0;
        used[j] = true;
        perm.push(j);
    }
    Some(perm)
}

/// The columns of `through` that the plain depth-0 column expressions
/// `exprs` pick: where `exprs[i]` is column `j`, the result holds
/// `through[j]`. `None` when an expression is not a plain column or points
/// past `through`.
fn compose_columns(exprs: &[BoundExpr], through: &[usize]) -> Option<Vec<usize>> {
    kernels::column_indices(exprs)?
        .into_iter()
        .map(|j| through.get(j).copied())
        .collect()
}

fn wrap_filter(plan: Plan, conjuncts: Vec<BoundExpr>) -> Plan {
    match conjoin_bound(conjuncts) {
        None => plan,
        Some(predicate) => Plan::Filter {
            input: Box::new(plan),
            predicate,
        },
    }
}

/// Split a bound predicate into its top-level AND conjuncts.
fn split_bound_conjuncts(e: BoundExpr) -> Vec<BoundExpr> {
    match e {
        BoundExpr::Binary {
            op: conquer_sql::BinaryOp::And,
            left,
            right,
        } => {
            let mut out = split_bound_conjuncts(*left);
            out.extend(split_bound_conjuncts(*right));
            out
        }
        other => vec![other],
    }
}

fn conjoin_bound(conjuncts: Vec<BoundExpr>) -> Option<BoundExpr> {
    conjuncts.into_iter().reduce(|a, b| BoundExpr::Binary {
        op: conquer_sql::BinaryOp::And,
        left: Box::new(a),
        right: Box::new(b),
    })
}

/// Collect the row-level column indices an expression references: columns at
/// `depth == level`, including references from inside nested subquery plans
/// (where the row sits one scope deeper per nesting level).
fn collect_row_refs(e: &BoundExpr, level: usize, out: &mut Vec<usize>) {
    match e {
        BoundExpr::Column { depth, index } if *depth == level => out.push(*index),
        BoundExpr::Subquery { plan, .. } => {
            plan.visit_exprs(&mut |inner| collect_row_refs(inner, level + 1, out));
        }
        _ => {}
    }
    for child in e.children() {
        collect_row_refs(child, level, out);
    }
}

/// Rewrite every row-level (depth == level) column index through `f`,
/// including references from inside nested subquery plans (where the row
/// sits one scope deeper per nesting level).
fn map_row_refs(e: &mut BoundExpr, level: usize, f: &mut dyn FnMut(usize) -> usize) {
    match e {
        BoundExpr::Column { depth, index } if *depth == level => *index = f(*index),
        BoundExpr::Subquery { plan, .. } => {
            plan.visit_exprs_mut(&mut |inner| map_row_refs(inner, level + 1, f));
        }
        _ => {}
    }
    for child in e.children_mut() {
        map_row_refs(child, level, f);
    }
}

/// Subtract `delta` from every row-level (depth == level) column index —
/// the re-indexing a conjunct needs when it moves to the right side of a
/// join.
fn remap_row_refs(e: &mut BoundExpr, level: usize, delta: usize) {
    map_row_refs(e, level, &mut |i| i - delta);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::SubqueryKind;
    use crate::value::Value;

    fn col(i: usize) -> BoundExpr {
        BoundExpr::column(i)
    }

    fn gt(l: BoundExpr, v: i64) -> BoundExpr {
        BoundExpr::Binary {
            op: conquer_sql::BinaryOp::Gt,
            left: Box::new(l),
            right: Box::new(BoundExpr::Literal(Value::Int(v))),
        }
    }

    fn and(l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op: conquer_sql::BinaryOp::And,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// A 6-wide dummy right child for side-splitting tests.
    fn right_child() -> Plan {
        use crate::col::ColBatch;
        use crate::schema::{Column, DataType, Schema};
        use std::sync::Arc;
        let schema = Schema::new(
            (0..6)
                .map(|i| Column::bare(&format!("c{i}"), DataType::Integer))
                .collect(),
        );
        let rows = (0..10)
            .map(|i| (0..6).map(|_| Value::Int(i)).collect())
            .collect();
        Plan::Scan {
            cols: Arc::new(ColBatch::from_rows(&schema, rows)),
            schema,
        }
    }

    #[test]
    fn splits_and_rejoins_conjuncts() {
        let e = and(gt(col(0), 1), and(gt(col(1), 2), gt(col(2), 3)));
        let parts = split_bound_conjuncts(e);
        assert_eq!(parts.len(), 3);
        let back = conjoin_bound(parts).unwrap();
        assert_eq!(split_bound_conjuncts(back).len(), 3);
    }

    #[test]
    fn side_split_classifies_by_column_range() {
        let est = Estimator::standalone();
        // Left-only sinks left whatever it filters; right-only (`c2 > 0`
        // keeps ~9 of 10 rows, so it is not worth sinking) and mixed-side
        // conjuncts stay above.
        let conjuncts = vec![gt(col(0), 1), gt(col(5), 0), gt(and(col(0), col(5)), 0)];
        let (l, r, keep) = split_by_side(conjuncts, 3, JoinType::Inner, &est, &right_child());
        assert_eq!(l.len(), 1);
        assert!(r.is_empty());
        assert_eq!(keep.len(), 2);
    }

    #[test]
    fn selective_right_conjunct_sinks_with_estimator() {
        let est = Estimator::standalone();
        // col(5) maps to right column 2: `c2 > 8` keeps ~1 of 10 rows.
        let conjuncts = vec![gt(col(5), 8), gt(and(col(0), col(5)), 0)];
        let (l, r, keep) = split_by_side(conjuncts, 3, JoinType::Inner, &est, &right_child());
        assert!(l.is_empty());
        assert_eq!(r.len(), 1, "selective right conjunct must sink");
        assert_eq!(keep.len(), 1);
        // The pushed conjunct is re-indexed to the right child's columns.
        let mut refs = Vec::new();
        collect_row_refs(&r[0], 0, &mut refs);
        assert_eq!(refs, vec![2]);
    }

    #[test]
    fn unselective_right_conjunct_stays_above() {
        let est = Estimator::standalone();
        // `c2 > 0` keeps ~9 of 10 rows: pushing buys nothing.
        let conjuncts = vec![gt(col(5), 0)];
        let (l, r, keep) = split_by_side(conjuncts, 3, JoinType::Inner, &est, &right_child());
        assert!(l.is_empty());
        assert!(r.is_empty());
        assert_eq!(keep.len(), 1);
    }

    #[test]
    fn left_outer_join_keeps_right_conjuncts_above() {
        let est = Estimator::standalone();
        let conjuncts = vec![gt(col(0), 1), gt(col(5), 8)];
        let (l, r, keep) = split_by_side(conjuncts, 3, JoinType::LeftOuter, &est, &right_child());
        assert_eq!(l.len(), 1);
        assert!(r.is_empty(), "outer joins must never sink right conjuncts");
        assert_eq!(keep.len(), 1);
    }

    #[test]
    fn remap_subtracts_at_level() {
        let mut e = gt(col(5), 2);
        remap_row_refs(&mut e, 0, 3);
        let mut refs = Vec::new();
        collect_row_refs(&e, 0, &mut refs);
        assert_eq!(refs, vec![2]);
    }

    /// `EXISTS (SELECT ... WHERE local = outer[index])`: the outer
    /// reference sits at depth 1 *inside* the subquery plan, which is
    /// depth 0 relative to the conjunct that owns it.
    fn correlated_exists(outer_index: usize) -> BoundExpr {
        use crate::col::ColBatch;
        use crate::schema::{Column, DataType, Schema};
        use std::sync::Arc;
        let schema = Schema::new(vec![Column::bare("inner0", DataType::Integer)]);
        let rows = (0..3).map(|i| vec![Value::Int(i)]).collect();
        let scan = Plan::Scan {
            cols: Arc::new(ColBatch::from_rows(&schema, rows)),
            schema,
        };
        let predicate = BoundExpr::Binary {
            op: conquer_sql::BinaryOp::Eq,
            left: Box::new(col(0)),
            right: Box::new(BoundExpr::Column {
                depth: 1,
                index: outer_index,
            }),
        };
        BoundExpr::Subquery {
            plan: Box::new(Plan::Filter {
                input: Box::new(scan),
                predicate,
            }),
            kind: SubqueryKind::Exists { negated: false },
        }
    }

    #[test]
    fn correlated_exists_conjunct_sinks_and_remaps_the_outer_ref() {
        let est = Estimator::standalone();
        // The EXISTS correlates on combined column 5 — a right-side column
        // for left_width 3 — so the whole conjunct may sink, but only if
        // the depth-1 reference inside the subquery plan is remapped too.
        let conjuncts = vec![correlated_exists(5)];
        let (l, r, keep) = split_by_side(conjuncts, 3, JoinType::Inner, &est, &right_child());
        assert!(l.is_empty());
        assert!(keep.is_empty());
        assert_eq!(r.len(), 1, "correlated EXISTS on the right side must sink");
        let mut refs = Vec::new();
        collect_row_refs(&r[0], 0, &mut refs);
        assert_eq!(refs, vec![2], "outer ref inside the subquery must remap");
    }

    #[test]
    fn exists_correlated_on_both_sides_stays_above_the_join() {
        let est = Estimator::standalone();
        // A single conjunct touching columns 1 (left) and 5 (right,
        // through the EXISTS): not pushable to either side.
        let mixed = vec![BoundExpr::Binary {
            op: conquer_sql::BinaryOp::Or,
            left: Box::new(correlated_exists(5)),
            right: Box::new(gt(col(1), 0)),
        }];
        let (l, r, keep) = split_by_side(mixed, 3, JoinType::Inner, &est, &right_child());
        assert!(l.is_empty());
        assert!(r.is_empty());
        assert_eq!(keep.len(), 1, "mixed-side conjunct must stay above");
    }

    fn has_subquery(e: &BoundExpr) -> bool {
        match e {
            BoundExpr::Subquery { .. } => true,
            BoundExpr::Binary { left, right, .. } => has_subquery(left) || has_subquery(right),
            BoundExpr::Not(x) | BoundExpr::Neg(x) => has_subquery(x),
            _ => false,
        }
    }

    /// Does any Filter in the Project/Filter chain *above* the first join
    /// still hold a subquery predicate?
    fn subquery_filter_above_join(plan: &Plan) -> bool {
        match plan {
            Plan::Project { input, .. } => subquery_filter_above_join(input),
            Plan::Filter { input, predicate } => {
                has_subquery(predicate) || subquery_filter_above_join(input)
            }
            _ => false,
        }
    }

    /// End-to-end regression for the audit in ISSUE 5: a pushed right-side
    /// conjunct containing an `EXISTS` that references the outer row. The
    /// push happens (plan shape) and the depth-1 remap is correct (results
    /// match the hand-computed rows and the plan as written).
    #[test]
    fn pushed_exists_conjunct_is_correct_end_to_end() {
        let db = crate::Database::new();
        db.run_script(
            "create table big (lk integer, lv integer);
             insert into big values (1, 10), (2, 20), (3, 30), (4, 40),
                                    (5, 50), (6, 60), (7, 70), (8, 80);
             create table small (rk integer, ry integer);
             insert into small values (1, 100), (2, 200), (3, 999);
             create table lookup (cx integer);
             insert into lookup values (100), (999);",
        )
        .unwrap();
        // The correlation is a pair of inequalities, which semi-join
        // decorrelation refuses: the EXISTS stays a per-row subquery, so
        // the optimizer sees a pushable subquery conjunct.
        let sql = "select big.lk, small.ry from big, small \
                   where big.lk = small.rk \
                   and exists (select 1 from lookup \
                               where lookup.cx >= small.ry and lookup.cx <= small.ry)";
        let query = conquer_sql::parse_query(sql).unwrap();
        let optimizing = crate::ExecOptions::default().with_threads(1);
        let mut as_written = optimizing.clone();
        as_written.optimize = false;

        // Plan shape: the optimizer sinks the EXISTS below the join, so no
        // subquery filter remains above it. As written, it stays above the
        // join.
        let optimized = db.plan(&query, &optimizing).unwrap();
        assert!(
            !subquery_filter_above_join(&optimized),
            "EXISTS must sink below the join when optimizing: {optimized:?}"
        );
        let written = db.plan(&query, &as_written).unwrap();
        assert!(
            subquery_filter_above_join(&written),
            "as written the EXISTS must stay above the join"
        );

        // Results: identical, and equal to the rows computed by hand. A
        // wrong remap of the depth-1 outer reference would read the wrong
        // column (or fall out of bounds) in the pushed plan.
        let expected = vec![
            vec![Value::Int(1), Value::Int(100)],
            vec![Value::Int(3), Value::Int(999)],
        ];
        for options in [&optimizing, &as_written] {
            let mut rows = db.query_with(sql, options).unwrap().rows;
            rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            assert_eq!(rows, expected, "optimize={}", options.optimize);
        }
    }
}
