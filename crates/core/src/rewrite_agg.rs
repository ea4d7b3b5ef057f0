//! `RewriteAgg` (Figure 8 of the paper): range-consistent query answers for
//! tree queries with grouping and aggregation (Definition 5), and the one
//! rewriting template every tree query runs. Figure 8 builds on the
//! Candidates and Filter of `q_G` (the query with aggregates removed),
//! which are Figure 5's, so a query without aggregation is `q_G` itself
//! and runs the template with no bound columns (its shape is in
//! [`crate::rewrite_join`]).
//!
//! For each group value that is a *consistent* answer of `q_G`, the
//! rewriting returns the tight `[min, max]` range the aggregate takes
//! across all repairs:
//!
//! * `UnFilteredCandidates` — root keys never filtered by `q_G`'s Filter
//!   contribute their per-key `[min(e), max(e)]` to both bounds;
//! * `FilteredCandidates` — filtered keys may be absent from a repair, so
//!   for `SUM` they contribute `[min(min(e), 0), max(max(e), 0)]` — the
//!   paper's CASE expressions, correct for negative values (Example 8).
//!
//! Following Section 6.1 ("running times improve considerably when the
//! results of these subexpressions are temporarily stored rather than
//! computed several times"), the original query's satisfying rows are
//! factored into a `conq_base` CTE, so the base relations are scanned once.
//! With a Filter, `conq_base` is split (DESIGN.md §2.3): the rows no key on
//! whose witness is violated (`conq_pass`) go straight into the final
//! select with both bounds `e`, and only the others (`conq_rest`) reach the
//! candidates, the Filter and the per-key bounds. Without aggregation the
//! final select is a bag of one row per consistent key: `conq_pass` and
//! `conq_unfiltered`, and no `conq_filtered` or `conq_qg_cons`.
//!
//! Aggregate support: `SUM`, `MIN`, `MAX` (Theorem 2), plus `COUNT(*)` and
//! `COUNT(e)` (exact, via 0/1 contributions) and `AVG` (sound but not tight
//! bounds, assuming non-negative data) as documented extensions.
//!
//! Output shape: for an input item `agg(e) AS x`, the rewriting emits two
//! columns `min_x` and `max_x` adjacent in the original projection order.

use conquer_sql::ast::{
    BinaryOp, ColumnRef, Cte, Expr, Literal, OrderByItem, Query, Select, SelectItem, SetExpr,
    TableRef,
};

use crate::analyze::{AggKind, ProjItem, TreeQuery};
use crate::error::{Result, RewriteError};
use crate::rewrite_join::{
    base_items, build_filter, candidates, choose_item_aliases, key_match, original_select,
    root_key_aliases, split_ctes, RewriteOptions, Violated, BASE_BINDING, BASE_CTE as BASE,
    CAND_BINDING, PASS_CTE as PASS, QG_FILTER, REST_CTE as REST,
};

const QG_CONS: &str = "conq_qg_cons";
const UNFILTERED: &str = "conq_unfiltered";
const FILTERED: &str = "conq_filtered";
const FILTER_BINDING: &str = "conq_f";
const CONS_BINDING: &str = "conq_g";
const UNION_BINDING: &str = "conq_u";

/// An aggregate item of the SELECT list: position, kind, argument, name.
type AggItem<'a> = (usize, AggKind, Option<&'a Expr>, &'a str);

/// Rewrite a tree query into a query computing its consistent answers
/// (Theorem 1) or, with aggregation, its range-consistent answers
/// (Theorem 2): the one rewriting template, with no bound columns when the
/// query aggregates nothing.
pub fn rewrite_agg(tq: &TreeQuery, opts: &RewriteOptions) -> Result<Query> {
    let agg_items: Vec<AggItem<'_>> = tq
        .projection
        .iter()
        .enumerate()
        .filter_map(|(i, p)| match p {
            ProjItem::Aggregate { kind, arg, name } => {
                Some((i, *kind, arg.as_ref(), name.as_str()))
            }
            ProjItem::Plain { .. } => None,
        })
        .collect();
    if agg_items.is_empty() && !tq.group_by.is_empty() {
        // GROUP BY without aggregates: the grouped attributes are the whole
        // answer, i.e. `q_G` itself, under set semantics.
        let mut set_query = tq.clone();
        set_query.distinct = true;
        set_query.group_by = Vec::new();
        return rewrite_agg(&set_query, opts);
    }

    // --- q_G and naming -----------------------------------------------------
    // Without aggregates, q_G is the query itself.
    let qg = if agg_items.is_empty() {
        tq.clone()
    } else {
        build_qg(tq)
    };
    let key_aliases = root_key_aliases(tq);
    let g_aliases = choose_item_aliases(&qg);
    check_unique(&g_aliases)?;

    // --- conq_base: the original query's satisfying rows, scanned once ------
    let violated = Violated::of(&qg, opts);
    let mut ctes = vec![Cte {
        name: BASE.to_string(),
        query: Query::from_select(base_select(
            &qg,
            &key_aliases,
            &g_aliases,
            &agg_items,
            violated.as_ref(),
        )),
    }];
    let Some(violated) = violated else {
        // No Filter: every key is unfiltered.
        ctes.push(Cte {
            name: UNFILTERED.to_string(),
            query: Query::from_select(per_key_select(
                BASE,
                &key_aliases,
                &g_aliases,
                &agg_items,
                None,
                false,
            )),
        });
        return finish(tq, &g_aliases, &agg_items, ctes, &[UNFILTERED]);
    };

    // --- the split: unviolated keys pass straight through -------------------
    // `conq_pass`'s rows bypass the per-key machinery and go straight into
    // the final select; only `conq_rest`'s reach q_G's candidates, the
    // Filter and the per-key bounds.
    let mut pass: Vec<SelectItem> = key_aliases
        .iter()
        .chain(&g_aliases)
        .map(|a| SelectItem::aliased(base_col(a.clone()), a.clone()))
        .collect();
    for (i, kind, _, _) in &agg_items {
        pass.extend(pass_agg_columns(*i, *kind));
    }
    ctes.extend(split_ctes(tq, &violated, pass));
    let aliases: Vec<String> = key_aliases.iter().chain(&g_aliases).cloned().collect();
    ctes.push(candidates(&aliases));
    ctes.push(build_filter(&qg, &key_aliases));

    // --- UnFiltered, QGCons (the consistent answers of q_G), Filtered --------
    ctes.push(Cte {
        name: UNFILTERED.to_string(),
        query: Query::from_select(per_key_select(
            REST,
            &key_aliases,
            &g_aliases,
            &agg_items,
            Some(key_filter_exists(&key_aliases, false)),
            false,
        )),
    });
    if agg_items.is_empty() {
        // A filtered key answers nothing when nothing is bounded.
        return finish(tq, &g_aliases, &agg_items, ctes, &[PASS, UNFILTERED]);
    }
    let mut in_filter = vec![key_filter_exists(&key_aliases, true)];
    if !tq.group_by.is_empty() {
        // The groups of every key outside the Filter: the rows that went
        // through and the unfiltered violated keys.
        ctes.push(Cte {
            name: QG_CONS.to_string(),
            query: Query::from_select(Select {
                distinct: false,
                projection: qg
                    .projection
                    .iter()
                    .zip(&g_aliases)
                    .map(|(item, alias)| {
                        SelectItem::aliased(Expr::col(CAND_BINDING, alias.clone()), item.name())
                    })
                    .collect(),
                from: vec![union_of(&[PASS, UNFILTERED], CAND_BINDING)],
                selection: None,
                group_by: g_aliases
                    .iter()
                    .map(|a| Expr::col(CAND_BINDING, a.clone()))
                    .collect(),
                having: None,
            }),
        });
        in_filter.push(group_cons_exists(&qg, &g_aliases));
    }
    ctes.push(Cte {
        name: FILTERED.to_string(),
        query: Query::from_select(per_key_select(
            REST,
            &key_aliases,
            &g_aliases,
            &agg_items,
            Expr::conjoin(in_filter),
            true,
        )),
    });
    finish(
        tq,
        &g_aliases,
        &agg_items,
        ctes,
        &[PASS, UNFILTERED, FILTERED],
    )
}

/// The final select over the union of `parts`, after `ctes`: a bag of one
/// row per consistent key, folded only when the query groups.
fn finish(
    tq: &TreeQuery,
    g_aliases: &[String],
    agg_items: &[AggItem<'_>],
    ctes: Vec<Cte>,
    parts: &[&str],
) -> Result<Query> {
    let mut projection = Vec::new();
    for (at, item) in tq.projection.iter().enumerate() {
        match item {
            ProjItem::Plain { expr, name } => {
                // The grouped attribute the item names, or without grouping
                // the item itself.
                let g = tq.group_index(expr).unwrap_or(at);
                projection.push(SelectItem::aliased(
                    Expr::col(UNION_BINDING, g_aliases[g].clone()),
                    name.clone(),
                ));
            }
            ProjItem::Aggregate { kind, name, .. } => {
                let idx = agg_items
                    .iter()
                    .find(|(_, _, _, n)| n == name)
                    .expect("aggregate item present")
                    .0;
                let (min_expr, max_expr) = outer_agg_exprs(idx, *kind);
                projection.push(SelectItem::aliased(min_expr, format!("min_{name}")));
                projection.push(SelectItem::aliased(max_expr, format!("max_{name}")));
            }
        }
    }
    let group_by: Vec<Expr> = if tq.group_by.is_empty() {
        Vec::new()
    } else {
        g_aliases
            .iter()
            .map(|a| Expr::col(UNION_BINDING, a.clone()))
            .collect()
    };

    let final_select = Select {
        distinct: tq.distinct,
        projection,
        from: vec![union_of(parts, UNION_BINDING)],
        selection: None,
        group_by,
        having: None,
    };

    let order_by = map_order_by(tq)?;
    Ok(Query {
        ctes,
        body: SetExpr::Select(Box::new(final_select)),
        order_by,
        limit: tq.limit,
    })
}

/// `q_G`: the original query with aggregate expressions removed and the
/// grouped attributes projected under set semantics.
fn build_qg(tq: &TreeQuery) -> TreeQuery {
    let mut qg = tq.clone();
    qg.projection = tq
        .group_by
        .iter()
        .map(|c| ProjItem::Plain {
            expr: Expr::Column(c.clone()),
            name: c.name.clone(),
        })
        .collect();
    qg.group_by = Vec::new();
    qg.distinct = true;
    qg.order_by = Vec::new();
    qg.limit = None;
    qg
}

fn check_unique(aliases: &[String]) -> Result<()> {
    for (i, a) in aliases.iter().enumerate() {
        if aliases[..i].contains(a) {
            return Err(RewriteError::Unsupported(format!(
                "two grouped attributes share the output name `{a}`; alias one of them"
            )));
        }
    }
    Ok(())
}

/// The shared base CTE: root keys, q_G's items, per-aggregate effective
/// expressions and what the split reads "violated" by (the other
/// relations' keys, or the per-row violation flag), over the original
/// FROM/WHERE.
fn base_select(
    qg: &TreeQuery,
    key_aliases: &[String],
    g_aliases: &[String],
    agg_items: &[AggItem<'_>],
    violated: Option<&Violated>,
) -> Select {
    let mut projection = Vec::new();
    for (col, alias) in qg.root_key_columns().iter().zip(key_aliases) {
        projection.push(SelectItem::aliased(
            Expr::Column(col.clone()),
            alias.clone(),
        ));
    }
    for (item, alias) in qg.projection.iter().zip(g_aliases) {
        let ProjItem::Plain { expr, .. } = item else {
            unreachable!("q_G projects no aggregate")
        };
        projection.push(SelectItem::aliased(expr.clone(), alias.clone()));
    }
    for (i, kind, arg, _) in agg_items {
        match kind {
            AggKind::Sum | AggKind::Count | AggKind::CountStar => {
                projection.push(SelectItem::aliased(
                    sum_effective(*kind, *arg),
                    format!("conq_e{i}"),
                ));
            }
            AggKind::Min | AggKind::Max => {
                projection.push(SelectItem::aliased(
                    (*arg).expect("min/max arg").clone(),
                    format!("conq_e{i}"),
                ));
            }
            AggKind::Avg => {
                let e = (*arg).expect("avg arg").clone();
                projection.push(SelectItem::aliased(
                    Expr::func("coalesce", vec![e.clone(), Expr::int(0)]),
                    format!("conq_es{i}"),
                ));
                projection.push(SelectItem::aliased(
                    Expr::Case {
                        branches: vec![(
                            Expr::IsNull {
                                expr: Box::new(e),
                                negated: false,
                            },
                            Expr::int(0),
                        )],
                        else_expr: Some(Box::new(Expr::int(1))),
                    },
                    format!("conq_ec{i}"),
                ));
            }
        }
    }
    projection.extend(violated.map_or_else(Vec::new, |v| base_items(qg, v)));
    original_select(qg, projection)
}

/// UnFiltered / FilteredCandidates: per (key, group) bounds of every
/// aggregate over the rows of `source` that `selection` keeps.
fn per_key_select(
    source: &str,
    key_aliases: &[String],
    g_aliases: &[String],
    agg_items: &[AggItem<'_>],
    selection: Option<Expr>,
    filtered: bool,
) -> Select {
    let mut projection = Vec::new();
    for alias in key_aliases.iter().chain(g_aliases) {
        projection.push(SelectItem::aliased(
            Expr::col(BASE_BINDING, alias.clone()),
            alias.clone(),
        ));
    }
    for (i, kind, _, _) in agg_items {
        projection.extend(inner_agg_columns(*i, *kind, filtered));
    }
    Select {
        distinct: false,
        projection,
        from: vec![TableRef::aliased(source, BASE_BINDING)],
        selection,
        group_by: key_aliases
            .iter()
            .chain(g_aliases)
            .map(|a| Expr::col(BASE_BINDING, a.clone()))
            .collect(),
        having: None,
    }
}

/// `[NOT] EXISTS (SELECT * FROM conq_qg_filter f WHERE b.k1 = f.conq_k1 ...)`.
fn key_filter_exists(key_aliases: &[String], positive: bool) -> Expr {
    let subquery = key_match(BASE_BINDING, QG_FILTER, FILTER_BINDING, key_aliases);
    if positive {
        Expr::exists(subquery)
    } else {
        Expr::not_exists(subquery)
    }
}

/// `EXISTS (SELECT * FROM conq_qg_cons g WHERE g.<name> = b.<galias> ...)`:
/// only groups that are consistent answers of `q_G` receive ranges.
fn group_cons_exists(qg: &TreeQuery, g_aliases: &[String]) -> Expr {
    let on = Expr::conjoin(qg.projection.iter().zip(g_aliases).map(|(item, alias)| {
        Expr::eq(
            Expr::col(CONS_BINDING, item.name().to_string()),
            Expr::col(BASE_BINDING, alias.clone()),
        )
    }))
    .expect("grouped attributes are non-empty");
    Expr::exists(Query::from_select(Select {
        distinct: false,
        projection: vec![SelectItem::Wildcard],
        from: vec![TableRef::aliased(QG_CONS, CONS_BINDING)],
        selection: Some(on),
        group_by: Vec::new(),
        having: None,
    }))
}

/// `(SELECT * FROM a UNION ALL SELECT * FROM b ...) <alias>`: CTEs of one
/// column layout, read as one relation.
fn union_of(ctes: &[&str], alias: &str) -> TableRef {
    let body = ctes
        .iter()
        .map(|&name| {
            SetExpr::Select(Box::new(Select {
                distinct: false,
                projection: vec![SelectItem::Wildcard],
                from: vec![TableRef::table(name)],
                selection: None,
                group_by: Vec::new(),
                having: None,
            }))
        })
        .reduce(|a, b| SetExpr::UnionAll(Box::new(a), Box::new(b)))
        .expect("at least one CTE");
    TableRef::Subquery {
        query: Box::new(Query {
            ctes: Vec::new(),
            body,
            order_by: Vec::new(),
            limit: None,
        }),
        alias: alias.to_string(),
    }
}

fn agg(name: &str, arg: Expr) -> Expr {
    Expr::func(name, vec![arg])
}

fn base_col(name: String) -> Expr {
    Expr::col(BASE_BINDING, name)
}

/// `CASE WHEN e > 0 THEN 0 ELSE e END` (Figure 8's lower bound for SUM).
fn case_min_zero(e: Expr) -> Expr {
    Expr::Case {
        branches: vec![(
            Expr::binary(e.clone(), BinaryOp::Gt, Expr::int(0)),
            Expr::int(0),
        )],
        else_expr: Some(Box::new(e)),
    }
}

/// `CASE WHEN e > 0 THEN e ELSE 0 END` (Figure 8's upper bound for SUM).
fn case_max_zero(e: Expr) -> Expr {
    Expr::Case {
        branches: vec![(Expr::binary(e.clone(), BinaryOp::Gt, Expr::int(0)), e)],
        else_expr: Some(Box::new(Expr::int(0))),
    }
}

/// The effective summed expression for SUM-like aggregates: `COALESCE(e, 0)`
/// so that NULL arguments contribute nothing (matching SQL's NULL-skipping
/// SUM), `1` for `COUNT(*)`, and a 0/1 indicator for `COUNT(e)`.
fn sum_effective(kind: AggKind, arg: Option<&Expr>) -> Expr {
    match kind {
        AggKind::CountStar => Expr::int(1),
        AggKind::Count => Expr::Case {
            branches: vec![(
                Expr::IsNull {
                    expr: Box::new(arg.expect("count arg").clone()),
                    negated: false,
                },
                Expr::int(0),
            )],
            else_expr: Some(Box::new(Expr::int(1))),
        },
        _ => Expr::func(
            "coalesce",
            vec![arg.expect("agg arg").clone(), Expr::int(0)],
        ),
    }
}

/// Per-key bound columns inside UnFiltered/FilteredCandidates for one
/// aggregate item, reading the effective expressions from the base CTE.
fn inner_agg_columns(i: usize, kind: AggKind, filtered: bool) -> Vec<SelectItem> {
    let min_alias = format!("conq_min{i}");
    let max_alias = format!("conq_max{i}");
    let null_lit = || Expr::Literal(Literal::Null);
    match kind {
        AggKind::Sum | AggKind::CountStar | AggKind::Count => {
            let e = base_col(format!("conq_e{i}"));
            let (lo, hi) = if filtered {
                (
                    case_min_zero(agg("min", e.clone())),
                    case_max_zero(agg("max", e)),
                )
            } else {
                (agg("min", e.clone()), agg("max", e))
            };
            vec![
                SelectItem::aliased(lo, min_alias),
                SelectItem::aliased(hi, max_alias),
            ]
        }
        AggKind::Min => {
            let e = base_col(format!("conq_e{i}"));
            let hi = if filtered {
                null_lit()
            } else {
                agg("max", e.clone())
            };
            vec![
                SelectItem::aliased(agg("min", e), min_alias),
                SelectItem::aliased(hi, max_alias),
            ]
        }
        AggKind::Max => {
            let e = base_col(format!("conq_e{i}"));
            let lo = if filtered {
                null_lit()
            } else {
                agg("min", e.clone())
            };
            vec![
                SelectItem::aliased(lo, min_alias),
                SelectItem::aliased(agg("max", e), max_alias),
            ]
        }
        AggKind::Avg => {
            let s = base_col(format!("conq_es{i}"));
            let c = base_col(format!("conq_ec{i}"));
            let (smin, smax) = if filtered {
                (
                    case_min_zero(agg("min", s.clone())),
                    case_max_zero(agg("max", s)),
                )
            } else {
                (agg("min", s.clone()), agg("max", s))
            };
            let (cmin, cmax) = if filtered {
                (Expr::int(0), agg("max", c))
            } else {
                (agg("min", c.clone()), agg("max", c))
            };
            vec![
                SelectItem::aliased(smin, format!("conq_smin{i}")),
                SelectItem::aliased(smax, format!("conq_smax{i}")),
                SelectItem::aliased(cmin, format!("conq_cmin{i}")),
                SelectItem::aliased(cmax, format!("conq_cmax{i}")),
            ]
        }
    }
}

/// A passed-through row's bound columns for one aggregate item, in
/// [`inner_agg_columns`]' layout: its key holds the one tuple, so both
/// bounds are the tuple's effective expression.
fn pass_agg_columns(i: usize, kind: AggKind) -> Vec<SelectItem> {
    let both = |e: &str, lo: &str, hi: &str| {
        let e = base_col(format!("{e}{i}"));
        [
            SelectItem::aliased(e.clone(), format!("{lo}{i}")),
            SelectItem::aliased(e, format!("{hi}{i}")),
        ]
    };
    match kind {
        AggKind::Avg => [
            both("conq_es", "conq_smin", "conq_smax"),
            both("conq_ec", "conq_cmin", "conq_cmax"),
        ]
        .concat(),
        _ => both("conq_e", "conq_min", "conq_max").to_vec(),
    }
}

/// The outer aggregation over per-key bounds for one aggregate item:
/// `(lower-bound expression, upper-bound expression)`.
fn outer_agg_exprs(i: usize, kind: AggKind) -> (Expr, Expr) {
    let u = |name: String| Expr::col(UNION_BINDING, name);
    match kind {
        AggKind::Sum | AggKind::CountStar | AggKind::Count => (
            agg("sum", u(format!("conq_min{i}"))),
            agg("sum", u(format!("conq_max{i}"))),
        ),
        AggKind::Min => (
            agg("min", u(format!("conq_min{i}"))),
            agg("min", u(format!("conq_max{i}"))),
        ),
        AggKind::Max => (
            agg("max", u(format!("conq_min{i}"))),
            agg("max", u(format!("conq_max{i}"))),
        ),
        AggKind::Avg => {
            // `* 1.0` forces float division even over integer columns.
            let float =
                |e: Expr| Expr::binary(e, BinaryOp::Multiply, Expr::Literal(Literal::Float(1.0)));
            let smin = float(agg("sum", u(format!("conq_smin{i}"))));
            let smax = float(agg("sum", u(format!("conq_smax{i}"))));
            let cmin = agg("sum", u(format!("conq_cmin{i}")));
            let cmax = agg("sum", u(format!("conq_cmax{i}")));
            let lo = Expr::Case {
                branches: vec![(
                    Expr::binary(cmax.clone(), BinaryOp::Gt, Expr::int(0)),
                    Expr::binary(smin, BinaryOp::Divide, cmax.clone()),
                )],
                else_expr: None,
            };
            let hi = Expr::Case {
                branches: vec![(
                    Expr::binary(cmax, BinaryOp::Gt, Expr::int(0)),
                    Expr::binary(
                        smax,
                        BinaryOp::Divide,
                        Expr::func("greatest", vec![cmin, Expr::int(1)]),
                    ),
                )],
                else_expr: None,
            };
            (lo, hi)
        }
    }
}

/// Map the original ORDER BY to the new output layout: a reference to an
/// aggregate output name becomes its `min_` column; positional references
/// are re-indexed across the min/max expansion.
fn map_order_by(tq: &TreeQuery) -> Result<Vec<OrderByItem>> {
    // New start position (1-based) of each original projection item.
    let mut starts = Vec::new();
    let mut pos = 1u64;
    for item in &tq.projection {
        starts.push(pos);
        pos += match item {
            ProjItem::Plain { .. } => 1,
            ProjItem::Aggregate { .. } => 2,
        };
    }
    let mut out = Vec::new();
    for item in &tq.order_by {
        let expr = match &item.expr {
            Expr::Literal(Literal::Integer(k)) => {
                let idx = usize::try_from(*k - 1)
                    .ok()
                    .filter(|i| *i < starts.len())
                    .ok_or_else(|| {
                        RewriteError::Unsupported(format!("ORDER BY position {k} out of range"))
                    })?;
                Expr::Literal(Literal::Integer(starts[idx] as i64))
            }
            Expr::Column(c) => map_order_column(tq, c),
            other => other.clone(),
        };
        out.push(OrderByItem {
            expr,
            desc: item.desc,
        });
    }
    Ok(out)
}

fn map_order_column(tq: &TreeQuery, c: &ColumnRef) -> Expr {
    for item in &tq.projection {
        if item.name() == c.name {
            return match item {
                ProjItem::Aggregate { .. } => Expr::bare_col(format!("min_{}", c.name)),
                ProjItem::Plain { .. } => Expr::bare_col(c.name.clone()),
            };
        }
    }
    Expr::Column(c.clone())
}
