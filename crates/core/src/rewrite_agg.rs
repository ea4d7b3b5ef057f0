//! `RewriteAgg` (Figure 8 of the paper): range-consistent query answers for
//! tree queries with grouping and aggregation (Definition 5).
//!
//! For each group value that is a *consistent* answer of `q_G` (the query
//! with aggregates removed), the rewriting returns the tight `[min, max]`
//! range the aggregate takes across all repairs:
//!
//! * `UnFilteredCandidates` — root keys never filtered by `q_G`'s Filter
//!   contribute their per-key `[min(e), max(e)]` to both bounds;
//! * `FilteredCandidates` — filtered keys may be absent from a repair, so
//!   for `SUM` they contribute `[min(min(e), 0), max(max(e), 0)]` — the
//!   paper's CASE expressions, correct for negative values (Example 8).
//!
//! Following Section 6.1 ("running times improve considerably when the
//! results of these subexpressions are temporarily stored rather than
//! computed several times"), the expensive common subexpression — the
//! original query's satisfying rows — is factored into a `conq_base` CTE
//! that the candidates and both bound queries read, so the base relations
//! are scanned once rather than three times. With more relations than one
//! its rows also carry the other relations' keys, by which `q_G`'s Filter
//! finds the only candidates it needs to read (`rewrite_join`'s suspects).
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
    build_filter, choose_item_aliases, distinct_from_base, key_match, not_exists_filter,
    original_from, original_where, witness_items, witness_keys, RewriteOptions, WitnessKey,
    BASE_BINDING, BASE_CTE as BASE, CONS_COLUMN,
};

const QG_CANDIDATES: &str = "conq_qg_candidates";
const QG_FILTER: &str = "conq_qg_filter";
const QG_CONS: &str = "conq_qg_cons";
const UNFILTERED: &str = "conq_unfiltered";
const FILTERED: &str = "conq_filtered";
const CAND_BINDING: &str = "conq_cand";
const FILTER_BINDING: &str = "conq_f";
const CONS_BINDING: &str = "conq_g";
const UNION_BINDING: &str = "conq_u";
const CONSCAND: &str = "conq_conscand";
const VIOL: &str = "conq_viol";

/// Rewrite a tree query with aggregation into a query computing its
/// range-consistent answers (Theorem 2).
pub fn rewrite_agg(tq: &TreeQuery, opts: &RewriteOptions) -> Result<Query> {
    if !tq.has_aggregates() {
        return Err(RewriteError::Unsupported(
            "RewriteAgg applies to queries with aggregation; use rewrite() to dispatch".into(),
        ));
    }
    if tq
        .projection
        .iter()
        .all(|p| matches!(p, ProjItem::Plain { .. }))
    {
        // GROUP BY without aggregates: the grouped attributes are the whole
        // answer, i.e. `q_G` itself — rewrite as a join query on DISTINCT.
        let mut set_query = tq.clone();
        set_query.distinct = true;
        set_query.group_by = Vec::new();
        return crate::rewrite_join::rewrite_join(&set_query, opts);
    }

    // --- q_G and naming -----------------------------------------------------
    let qg = build_qg(tq);
    let key_aliases: Vec<String> = (1..=tq.relations[tq.root].key.len())
        .map(|i| format!("conq_k{i}"))
        .collect();
    let g_aliases = choose_item_aliases(&qg);
    check_unique(&g_aliases)?;

    let agg_items: Vec<(usize, AggKind, Option<&Expr>, &str)> = tq
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

    // --- conq_base: the original query's satisfying rows, scanned once ------
    let witness = witness_keys(&qg, opts);
    let mut ctes = vec![Cte {
        name: BASE.to_string(),
        query: Query::from_select(base_select(
            tq,
            opts,
            &key_aliases,
            &g_aliases,
            &agg_items,
            &witness,
        )),
    }];

    // --- qg_candidates over the base ----------------------------------------
    ctes.push(Cte {
        name: QG_CANDIDATES.to_string(),
        query: Query::from_select(candidates_from_base(opts, &key_aliases, &g_aliases)),
    });

    // --- qg_filter (joins candidates back to the raw relations) --------------
    let filter = build_filter(&qg, opts, &witness, QG_CANDIDATES, QG_FILTER, &key_aliases)?;
    let has_filter = !filter.is_empty();
    ctes.extend(filter);

    // --- QGCons: the consistent answers of q_G -------------------------------
    let needs_qg_cons = has_filter && !tq.group_by.is_empty();
    if needs_qg_cons {
        let projection = qg
            .projection
            .iter()
            .zip(&g_aliases)
            .map(|(item, alias)| {
                SelectItem::aliased(Expr::col(CAND_BINDING, alias.clone()), item.name())
            })
            .collect();
        ctes.push(Cte {
            name: QG_CONS.to_string(),
            query: Query::from_select(Select {
                distinct: true,
                projection,
                from: vec![TableRef::aliased(QG_CANDIDATES, CAND_BINDING)],
                selection: Some(not_exists_filter(QG_FILTER, &key_aliases)),
                group_by: Vec::new(),
                having: None,
            }),
        });
    }

    // --- UnFiltered / Filtered candidates over the base ----------------------
    let inner_select = |filtered: bool| -> Select {
        let mut projection = Vec::new();
        for alias in key_aliases.iter().chain(&g_aliases) {
            projection.push(SelectItem::aliased(
                Expr::col(BASE_BINDING, alias.clone()),
                alias.clone(),
            ));
        }
        for (i, kind, _, _) in &agg_items {
            projection.extend(inner_agg_columns(*i, *kind, filtered));
        }

        let mut conjuncts: Vec<Expr> = Vec::new();
        if has_filter {
            conjuncts.push(key_filter_exists(&key_aliases, filtered));
        }
        if filtered && needs_qg_cons {
            conjuncts.push(group_cons_exists(&qg, &g_aliases));
        }
        let group_by: Vec<Expr> = key_aliases
            .iter()
            .chain(&g_aliases)
            .map(|a| Expr::col(BASE_BINDING, a.clone()))
            .collect();
        Select {
            distinct: false,
            projection,
            from: vec![TableRef::aliased(BASE, BASE_BINDING)],
            selection: Expr::conjoin(conjuncts),
            group_by,
            having: None,
        }
    };

    ctes.push(Cte {
        name: UNFILTERED.to_string(),
        query: Query::from_select(inner_select(false)),
    });
    if has_filter {
        ctes.push(Cte {
            name: FILTERED.to_string(),
            query: Query::from_select(inner_select(true)),
        });
    }

    // --- final aggregation over the union -----------------------------------
    let union_body = if has_filter {
        SetExpr::UnionAll(
            Box::new(select_star_from(UNFILTERED)),
            Box::new(select_star_from(FILTERED)),
        )
    } else {
        select_star_from(UNFILTERED)
    };
    let union_ref = TableRef::Subquery {
        query: Box::new(Query {
            ctes: Vec::new(),
            body: union_body,
            order_by: Vec::new(),
            limit: None,
        }),
        alias: UNION_BINDING.to_string(),
    };

    let mut projection = Vec::new();
    let mut g_iter = g_aliases.iter();
    for item in &tq.projection {
        match item {
            ProjItem::Plain { name, .. } => {
                let alias = g_iter.next().expect("plain items are grouped attributes");
                projection.push(SelectItem::aliased(
                    Expr::col(UNION_BINDING, alias.clone()),
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
    let group_by: Vec<Expr> = g_aliases
        .iter()
        .map(|a| Expr::col(UNION_BINDING, a.clone()))
        .collect();

    let final_select = Select {
        distinct: false,
        projection,
        from: vec![union_ref],
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

/// The shared base CTE: root keys, grouped attributes, per-aggregate
/// effective expressions, the other relations' keys the Filter finds its
/// suspects by, and (annotated) the per-row violation flag, over the
/// original FROM/WHERE.
fn base_select(
    tq: &TreeQuery,
    opts: &RewriteOptions,
    key_aliases: &[String],
    g_aliases: &[String],
    agg_items: &[(usize, AggKind, Option<&Expr>, &str)],
    witness: &[WitnessKey],
) -> Select {
    let mut projection = Vec::new();
    for (col, alias) in tq.root_key_columns().iter().zip(key_aliases) {
        projection.push(SelectItem::aliased(
            Expr::Column(col.clone()),
            alias.clone(),
        ));
    }
    for (g, alias) in tq.group_by.iter().zip(g_aliases) {
        projection.push(SelectItem::aliased(Expr::Column(g.clone()), alias.clone()));
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
    projection.extend(witness_items(witness));
    if opts.annotated {
        let any_inconsistent = Expr::disjoin(
            tq.relations
                .iter()
                .map(|r| Expr::eq(Expr::col(r.binding.clone(), CONS_COLUMN), Expr::string("n"))),
        )
        .expect("at least one relation");
        projection.push(SelectItem::aliased(
            Expr::Case {
                branches: vec![(any_inconsistent, Expr::int(1))],
                else_expr: Some(Box::new(Expr::int(0))),
            },
            VIOL,
        ));
    }
    Select {
        distinct: false,
        projection,
        from: original_from(tq),
        selection: original_where(tq),
        group_by: Vec::new(),
        having: None,
    }
}

/// `q_G`'s Candidates, read from the base CTE: DISTINCT key+group rows, or
/// the grouped variant with the `conscand` counter for annotated databases.
fn candidates_from_base(
    opts: &RewriteOptions,
    key_aliases: &[String],
    g_aliases: &[String],
) -> Select {
    let aliases: Vec<String> = key_aliases.iter().chain(g_aliases).cloned().collect();
    let mut select = distinct_from_base(&aliases);
    if opts.annotated {
        select.distinct = false;
        select.projection.push(SelectItem::aliased(
            Expr::func("sum", vec![Expr::col(BASE_BINDING, VIOL)]),
            CONSCAND,
        ));
        select.group_by = aliases
            .into_iter()
            .map(|a| Expr::col(BASE_BINDING, a))
            .collect();
    }
    select
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

fn select_star_from(name: &str) -> SetExpr {
    SetExpr::Select(Box::new(Select {
        distinct: false,
        projection: vec![SelectItem::Wildcard],
        from: vec![TableRef::table(name)],
        selection: None,
        group_by: Vec::new(),
        having: None,
    }))
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
