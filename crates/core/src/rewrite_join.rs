//! `RewriteJoin` (Figure 5 of the paper): the SQL-to-SQL rewriting for tree
//! queries without aggregation, including the annotation-aware variant of
//! Section 5.
//!
//! The rewriting produces:
//!
//! ```sql
//! WITH conq_candidates AS (
//!   SELECT DISTINCT Kroot, S FROM ... WHERE KJ AND NKJ AND SC),
//! conq_filter AS (
//!   SELECT Kroot FROM conq_candidates
//!   JOIN Rroot ON ... [JOIN co-roots ON KJ]
//!   LEFT OUTER JOIN ... (Figure 6's LOJ, in BFS order)
//!   WHERE R1.K1 IS NULL OR ... OR NSC
//!   UNION ALL
//!   SELECT Kroot FROM conq_candidates GROUP BY Kroot HAVING COUNT(*) > 1)
//! SELECT S FROM conq_candidates
//! WHERE NOT EXISTS (SELECT * FROM conq_filter F WHERE ...)
//! ```
//!
//! The `COUNT(*) > 1` branch is emitted only when the projection reaches
//! beyond the root key (Example 4 vs Example 3), and the whole filter is
//! omitted for queries that nothing can filter (key-only projections with
//! no selections and no outer joins).
//!
//! With a Filter, the Candidates are computed in two steps, as `RewriteAgg`
//! has them — `conq_base`, the satisfying rows, then the `SELECT DISTINCT
//! Kroot, S` over it — and `conq_base` is split (DESIGN.md §2.3): the Filter
//! reads only the candidates of `conq_rest`, the rows with a *violated* key
//! anywhere on their witness (the join tree that produced the row). Where
//! "violated" is read from is the one thing the strategy decides
//! ([`Violated`]): without annotations each row also carries the key of
//! every non-root relation's tuple in it (`conq_r<i>k<j>`), looked up in
//! that relation's conflicts; with them it carries `conq_viol`, 1 when a
//! tuple in it has `cons = 'n'` (Section 5: the violated set computed
//! offline):
//!
//! ```sql
//! conq_conflicts AS (SELECT Kroot FROM Rroot GROUP BY Kroot HAVING COUNT(*) > 1),
//! conq_conflicts_<i> AS (SELECT Ki FROM Ri GROUP BY Ki HAVING COUNT(*) > 1),
//! conq_rest AS (
//!   SELECT * FROM conq_base B
//!     WHERE EXISTS (SELECT * FROM conq_conflicts V WHERE B.Kroot = V.Kroot)
//!   UNION ALL SELECT * FROM conq_base B                        -- per relation
//!     WHERE EXISTS (SELECT * FROM conq_conflicts_<i> V WHERE B.Ki = V.Ki)),
//!   -- annotated: SELECT * FROM conq_base B WHERE B.conq_viol = 1
//! conq_rest_candidates AS (SELECT DISTINCT Kroot, S FROM conq_rest),
//! conq_filter AS (... both branches FROM conq_rest_candidates ...)
//! ```
//!
//! No other candidate can be filtered: if no key on a row's witness is
//! violated, the witness is its candidate's only join tree, which satisfies
//! every join and selection and yields one `S`. And a row-level test splits
//! whole keys, so every row of a key that can be filtered is in
//! `conq_rest`. Each `conq_conflicts*` is a plain `GROUP BY … HAVING` that
//! an engine with an index on the key answers from the index alone (see
//! `conquer_engine::index`); `conq_filter` itself is unchanged, row for
//! row, and so is every answer.

use conquer_sql::ast::{
    BinaryOp, ColumnRef, Cte, Expr, Literal, Query, Select, SelectItem, SetExpr, TableRef,
};

use crate::analyze::{ProjItem, TreeQuery};
use crate::error::{Result, RewriteError};

/// Name of the annotation column added by [`crate::annotations`].
pub const CONS_COLUMN: &str = "cons";

/// Generated-name prefixes; input queries should avoid `conq_`-prefixed
/// bindings and the rewriting never collides with anything else.
pub const CANDIDATES_CTE: &str = "conq_candidates";
pub const FILTER_CTE: &str = "conq_filter";
pub const CONFLICTS_CTE: &str = "conq_conflicts";
pub const REST_CANDIDATES_CTE: &str = "conq_rest_candidates";
pub(crate) const BASE_CTE: &str = "conq_base";
pub(crate) const PASS_CTE: &str = "conq_pass";
pub(crate) const REST_CTE: &str = "conq_rest";
pub(crate) const BASE_BINDING: &str = "conq_b";
const CAND_BINDING: &str = "conq_cand";
const FILTER_BINDING: &str = "conq_f";
const CONFLICT_BINDING: &str = "conq_v";
const VIOL: &str = "conq_viol";

/// Options controlling the rewriting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteOptions {
    /// Use the annotation-aware rewriting of Section 5, which assumes every
    /// relation carries a `cons` column (`'y'`/`'n'`) produced by
    /// [`crate::annotations::annotate_database`]. It decides one thing:
    /// where the rewriting reads which keys are violated ([`Violated`]).
    pub annotated: bool,
}

/// Rewrite a tree query without aggregation into a query computing its
/// consistent answers (Theorem 1).
pub fn rewrite_join(tq: &TreeQuery, opts: &RewriteOptions) -> Result<Query> {
    if tq.has_aggregates() {
        return Err(RewriteError::Unsupported(
            "RewriteJoin applies to queries without aggregation; use rewrite() to dispatch".into(),
        ));
    }
    let key_aliases = root_key_aliases(tq);
    let item_aliases = choose_item_aliases(tq);
    let items = candidate_items(tq, &key_aliases, &item_aliases);
    let violated = Violated::of(tq, opts);
    let mut ctes = Vec::new();
    let mut filter = Vec::new();
    let candidates = match &violated {
        None => Select {
            distinct: true,
            ..original_select(tq, items)
        },
        Some(violated) => {
            // The Candidates of Figure 5 in two steps, as `RewriteAgg` has
            // them: the satisfying rows with what "violated" is read by,
            // then the DISTINCT (key, S) pairs; the Filter reads those of
            // the rows split off into `conq_rest`.
            let mut base = original_select(tq, items);
            base.projection.extend(base_items(tq, violated));
            ctes.push(Cte {
                name: BASE_CTE.to_string(),
                query: Query::from_select(base),
            });
            let aliases: Vec<String> = key_aliases.iter().chain(&item_aliases).cloned().collect();
            filter = split_ctes(tq, violated, None);
            filter.push(Cte {
                name: REST_CANDIDATES_CTE.to_string(),
                query: Query::from_select(distinct_from(REST_CTE, &aliases)),
            });
            filter.push(build_filter(
                tq,
                REST_CANDIDATES_CTE,
                FILTER_CTE,
                &key_aliases,
            ));
            distinct_from(BASE_CTE, &aliases)
        }
    };
    ctes.push(Cte {
        name: CANDIDATES_CTE.to_string(),
        query: Query::from_select(candidates),
    });
    ctes.extend(filter);

    let projection = tq
        .projection
        .iter()
        .zip(&item_aliases)
        .map(|(item, alias)| {
            SelectItem::aliased(Expr::col(CAND_BINDING, alias.clone()), item.name())
        })
        .collect();
    Ok(Query {
        ctes,
        body: SetExpr::Select(Box::new(Select {
            distinct: tq.distinct,
            projection,
            from: vec![TableRef::aliased(CANDIDATES_CTE, CAND_BINDING)],
            selection: violated.map(|_| not_exists_filter(FILTER_CTE, &key_aliases)),
            group_by: Vec::new(),
            having: None,
        })),
        order_by: tq.order_by.clone(),
        limit: tq.limit,
    })
}

/// `conq_k1, conq_k2, ...`: the root key's aliases in every CTE.
pub(crate) fn root_key_aliases(tq: &TreeQuery) -> Vec<String> {
    (1..=tq.relations[tq.root].key.len())
        .map(|i| format!("conq_k{i}"))
        .collect()
}

/// Pick collision-free aliases for projected items inside the candidates
/// CTE: the output name when it is safe and unique, `conq_s{i}` otherwise.
/// A column the selection reads by its bare name is not safe: the Filter
/// joins the candidates back to the relation, where the name would be
/// ambiguous.
pub(crate) fn choose_item_aliases(tq: &TreeQuery) -> Vec<String> {
    let bare: Vec<&ColumnRef> = tq
        .selection
        .iter()
        .flat_map(Expr::column_refs)
        .filter(|c| c.qualifier.is_none())
        .collect();
    let mut aliases: Vec<String> = Vec::new();
    for (i, item) in tq.projection.iter().enumerate() {
        let name = item.name().to_ascii_lowercase();
        let safe = !name.starts_with("conq_")
            && !aliases.contains(&name)
            && !bare.iter().any(|c| c.name.eq_ignore_ascii_case(&name))
            && name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        aliases.push(if safe {
            name
        } else {
            format!("conq_s{}", i + 1)
        });
    }
    aliases
}

/// `SELECT <projection>` over the original query's FROM (a comma list)
/// and WHERE (joins plus selections).
pub(crate) fn original_select(tq: &TreeQuery, projection: Vec<SelectItem>) -> Select {
    Select {
        distinct: false,
        projection,
        from: (0..tq.relations.len())
            .map(|rel| relation_ref(tq, rel))
            .collect(),
        selection: Expr::conjoin(tq.join_conjuncts.iter().chain(&tq.selection).cloned()),
        group_by: Vec::new(),
        having: None,
    }
}

/// The Candidates' columns: the root-key attributes, then the projected
/// items (Figure 5).
fn candidate_items(
    tq: &TreeQuery,
    key_aliases: &[String],
    item_aliases: &[String],
) -> Vec<SelectItem> {
    let keys = tq.root_key_columns().into_iter().map(Expr::Column);
    let items = tq.projection.iter().map(|item| match item {
        ProjItem::Plain { expr, .. } => expr.clone(),
        ProjItem::Aggregate { .. } => unreachable!("checked in rewrite_join"),
    });
    keys.chain(items)
        .zip(key_aliases.iter().chain(item_aliases))
        .map(|(expr, alias)| SelectItem::aliased(expr, alias.clone()))
        .collect()
}

/// The key of one relation of the query as `conq_base` carries it: the
/// columns, their aliases — the candidates' `conq_k<j>` for the root,
/// `conq_r<rel>k<j>` for any other relation — and the CTE of its
/// violated values.
pub(crate) struct WitnessKey {
    rel: usize,
    columns: Vec<ColumnRef>,
    aliases: Vec<String>,
    conflicts: String,
}

/// Where a rewriting reads which keys are violated — the one thing
/// [`RewriteOptions::annotated`] decides. Both split `conq_base` alike: a
/// tuple's `cons` is `'n'` exactly when its key is violated.
pub(crate) enum Violated {
    /// The conflict CTEs (`GROUP BY K HAVING COUNT(*) > 1`, which a key
    /// index answers), one per relation, the root's first, looked up
    /// through the keys `conq_base` carries.
    Conflicts(Vec<WitnessKey>),
    /// `conq_base`'s [`VIOL`]: 1 when a tuple of the row has `cons = 'n'`.
    Annotated,
}

impl Violated {
    /// `None` when the query has no Filter, so `conq_base` is not split.
    pub(crate) fn of(tq: &TreeQuery, opts: &RewriteOptions) -> Option<Self> {
        if !(needs_join_branch(tq) || needs_multiplicity_branch(tq)) {
            return None;
        }
        Some(if opts.annotated {
            Violated::Annotated
        } else {
            Violated::Conflicts(witness_keys(tq))
        })
    }
}

/// Every relation's key, the root's first.
fn witness_keys(tq: &TreeQuery) -> Vec<WitnessKey> {
    let root = WitnessKey {
        rel: tq.root,
        columns: tq.root_key_columns(),
        aliases: root_key_aliases(tq),
        conflicts: CONFLICTS_CTE.to_string(),
    };
    let others = tq
        .relations
        .iter()
        .enumerate()
        .filter(|(rel, _)| *rel != tq.root)
        .map(|(rel, r)| WitnessKey {
            rel,
            columns: r
                .key
                .iter()
                .map(|k| ColumnRef::new(r.binding.clone(), k.clone()))
                .collect(),
            aliases: (1..=r.key.len())
                .map(|j| format!("conq_r{rel}k{j}"))
                .collect(),
            conflicts: format!("{CONFLICTS_CTE}_{rel}"),
        });
    std::iter::once(root).chain(others).collect()
}

/// The columns `conq_base` carries for its split, after the candidates'
/// own: the non-root keys, or the [`VIOL`] flag
/// `CASE WHEN R1.cons = 'n' OR ... THEN 1 ELSE 0 END`.
pub(crate) fn base_items(tq: &TreeQuery, violated: &Violated) -> Vec<SelectItem> {
    match violated {
        Violated::Conflicts(keys) => {
            keys.iter()
                .filter(|w| w.rel != tq.root)
                .flat_map(|w| {
                    w.columns.iter().zip(&w.aliases).map(|(c, alias)| {
                        SelectItem::aliased(Expr::Column(c.clone()), alias.clone())
                    })
                })
                .collect()
        }
        Violated::Annotated => {
            let any_inconsistent =
                Expr::disjoin(tq.relations.iter().map(|r| {
                    Expr::eq(Expr::col(r.binding.clone(), CONS_COLUMN), Expr::string("n"))
                }))
                .expect("at least one relation");
            let viol = Expr::Case {
                branches: vec![(any_inconsistent, Expr::int(1))],
                else_expr: Some(Box::new(Expr::int(0))),
            };
            vec![SelectItem::aliased(viol, VIOL)]
        }
    }
}

/// The CTEs that split `conq_base` (DESIGN.md §2.3), in order:
///
/// * (plain only) each relation's violated keys, [`CONFLICTS_CTE`] for the
///   root and `conq_conflicts_<rel>` for the others;
/// * [`PASS_CTE`] with `pass`'s columns, when given: the rows no key on
///   whose witness is violated — a `NOT EXISTS` per relation, or
///   `conq_viol = 0` when annotated;
/// * [`REST_CTE`]: every other row — one `EXISTS` member per relation
///   (a row with two violated keys appears twice: every reader takes
///   DISTINCT or a per-key MIN/MAX), or `conq_viol = 1`.
pub(crate) fn split_ctes(
    tq: &TreeQuery,
    violated: &Violated,
    pass: Option<Vec<SelectItem>>,
) -> Vec<Cte> {
    let base_rows = |projection, selection| Select {
        distinct: false,
        projection,
        from: vec![TableRef::aliased(BASE_CTE, BASE_BINDING)],
        selection: Some(selection),
        group_by: Vec::new(),
        having: None,
    };
    let viol_is = |v| Expr::eq(Expr::col(BASE_BINDING, VIOL), Expr::int(v));
    let mut ctes = Vec::new();
    let (pass_when, rest) = match violated {
        Violated::Annotated => (
            viol_is(0),
            Query::from_select(base_rows(vec![SelectItem::Wildcard], viol_is(1))),
        ),
        Violated::Conflicts(keys) => {
            let mut unviolated = Vec::new();
            let mut members = Vec::new();
            for w in keys {
                ctes.push(Cte {
                    name: w.conflicts.clone(),
                    query: Query::from_select(conflicts_select(tq, w)),
                });
                let conflict = key_match(BASE_BINDING, &w.conflicts, CONFLICT_BINDING, &w.aliases);
                unviolated.push(Expr::not_exists(conflict.clone()));
                members.push(base_rows(
                    vec![SelectItem::Wildcard],
                    Expr::exists(conflict),
                ));
            }
            (
                Expr::conjoin(unviolated).expect("the root's key"),
                union_all(members.into_iter()).expect("the root's member"),
            )
        }
    };
    if let Some(projection) = pass {
        ctes.push(Cte {
            name: PASS_CTE.to_string(),
            query: Query::from_select(base_rows(projection, pass_when)),
        });
    }
    ctes.push(Cte {
        name: REST_CTE.to_string(),
        query: rest,
    });
    ctes
}

/// `SELECT DISTINCT conq_b.a AS a, ... FROM <cte> conq_b`: the Candidates,
/// read off the satisfying rows (`conq_base`, or `conq_rest` for the
/// Filter's).
pub(crate) fn distinct_from(cte: &str, aliases: &[String]) -> Select {
    Select {
        distinct: true,
        projection: aliased_columns(BASE_BINDING, aliases),
        from: vec![TableRef::aliased(cte, BASE_BINDING)],
        selection: None,
        group_by: Vec::new(),
        having: None,
    }
}

/// `<binding>.a AS a, ...`.
fn aliased_columns(binding: &str, aliases: &[String]) -> Vec<SelectItem> {
    aliases
        .iter()
        .map(|alias| SelectItem::aliased(Expr::col(binding, alias.clone()), alias.clone()))
        .collect()
}

fn needs_join_branch(tq: &TreeQuery) -> bool {
    !tq.loj_joins.is_empty() || !tq.selection.is_empty()
}

fn needs_multiplicity_branch(tq: &TreeQuery) -> bool {
    !tq.projection_within_root_key()
}

/// The Filter CTE `filter_name` over the candidates `cand_name`: the
/// outer-join branch plus the multiplicity branch, either of which may be
/// unnecessary, but not both ([`Violated::of`]).
pub(crate) fn build_filter(
    tq: &TreeQuery,
    cand_name: &str,
    filter_name: &str,
    key_aliases: &[String],
) -> Cte {
    let join_branch = needs_join_branch(tq).then(|| filter_join_branch(tq, cand_name, key_aliases));
    let multiplicity_branch =
        needs_multiplicity_branch(tq).then(|| filter_multiplicity_branch(cand_name, key_aliases));
    Cte {
        name: filter_name.to_string(),
        query: union_all([join_branch, multiplicity_branch].into_iter().flatten())
            .expect("a query with a Filter needs a branch"),
    }
}

/// `a UNION ALL b UNION ALL ...` as a query; `None` of no branches.
fn union_all(branches: impl Iterator<Item = Select>) -> Option<Query> {
    let body = branches
        .map(|branch| SetExpr::Select(Box::new(branch)))
        .reduce(|a, b| SetExpr::UnionAll(Box::new(a), Box::new(b)))?;
    Some(Query {
        ctes: Vec::new(),
        body,
        order_by: Vec::new(),
        limit: None,
    })
}

/// The violated keys of one relation:
/// `SELECT K FROM R GROUP BY K HAVING COUNT(*) > 1`.
fn conflicts_select(tq: &TreeQuery, key: &WitnessKey) -> Select {
    let key_columns: Vec<Expr> = key.columns.iter().cloned().map(Expr::Column).collect();
    Select {
        distinct: false,
        projection: key_columns
            .iter()
            .zip(&key.aliases)
            .map(|(k, alias)| SelectItem::aliased(k.clone(), alias.clone()))
            .collect(),
        from: vec![relation_ref(tq, key.rel)],
        selection: None,
        group_by: key_columns,
        having: Some(Expr::binary(Expr::count_star(), BinaryOp::Gt, Expr::int(1))),
    }
}

/// First Filter branch: candidates joined back to the relations with the
/// left-outer join of Figure 6, keeping those that fail a join or satisfy a
/// negated selection in some repair.
fn filter_join_branch(tq: &TreeQuery, cand_name: &str, key_aliases: &[String]) -> Select {
    let root = &tq.relations[tq.root];

    // conq_candidates cand JOIN Rroot ON cand.k = root.k AND ...
    let root_on = Expr::conjoin(root.key.iter().zip(key_aliases).map(|(k, alias)| {
        Expr::eq(
            Expr::col(CAND_BINDING, alias.clone()),
            Expr::col(root.binding.clone(), k.clone()),
        )
    }))
    .expect("keys are non-empty");
    let mut from =
        TableRef::aliased(cand_name, CAND_BINDING).join(relation_ref(tq, tq.root), root_on);

    // Inner joins for key-to-key co-roots (their joins hold in every repair).
    for kj in &tq.kj_joins {
        from = from.join(relation_ref(tq, kj.rel), pairs_to_on(&kj.on));
    }
    // Figure 6's LOJ, flattened in BFS order: each ON references only
    // relations already in the chain.
    for loj in &tq.loj_joins {
        from = from.left_outer_join(relation_ref(tq, loj.rel), pairs_to_on(&loj.on));
    }

    // WHERE: R1.K1 IS NULL OR ... OR NSC.
    let mut disjuncts = Vec::new();
    for loj in &tq.loj_joins {
        let rel = &tq.relations[loj.rel];
        let first_key = &rel.key[0];
        disjuncts.push(Expr::is_null(Expr::col(
            rel.binding.clone(),
            first_key.clone(),
        )));
    }
    for sc in &tq.selection {
        disjuncts.push(negate_selection(sc));
    }
    Select {
        distinct: false,
        projection: aliased_columns(CAND_BINDING, key_aliases),
        from: vec![from],
        selection: Expr::disjoin(disjuncts),
        group_by: Vec::new(),
        having: None,
    }
}

/// Second Filter branch: keys whose candidates carry more than one value for
/// the projected attributes (Example 4).
fn filter_multiplicity_branch(cand_name: &str, key_aliases: &[String]) -> Select {
    Select {
        distinct: false,
        projection: key_aliases
            .iter()
            .map(|alias| SelectItem::expr(Expr::bare_col(alias.clone())))
            .collect(),
        from: vec![TableRef::table(cand_name)],
        selection: None,
        group_by: key_aliases
            .iter()
            .map(|a| Expr::bare_col(a.clone()))
            .collect(),
        having: Some(Expr::binary(Expr::count_star(), BinaryOp::Gt, Expr::int(1))),
    }
}

/// `NOT EXISTS (SELECT * FROM <filter> conq_f WHERE conq_cand.k = conq_f.k ...)`.
fn not_exists_filter(filter_name: &str, key_aliases: &[String]) -> Expr {
    Expr::not_exists(key_match(
        CAND_BINDING,
        filter_name,
        FILTER_BINDING,
        key_aliases,
    ))
}

/// `SELECT * FROM <cte> <binding> WHERE <outer>.k = <binding>.k AND ...`:
/// the correlated key match under every `[NOT] EXISTS` the rewritings emit.
pub(crate) fn key_match(outer: &str, cte: &str, binding: &str, key_aliases: &[String]) -> Query {
    let on = Expr::conjoin(key_aliases.iter().map(|alias| {
        Expr::eq(
            Expr::col(outer, alias.clone()),
            Expr::col(binding, alias.clone()),
        )
    }))
    .expect("keys are non-empty");
    Query::from_select(Select {
        distinct: false,
        projection: vec![SelectItem::Wildcard],
        from: vec![TableRef::aliased(cte, binding)],
        selection: Some(on),
        group_by: Vec::new(),
        having: None,
    })
}

/// A relation as a FROM factor with its original binding.
fn relation_ref(tq: &TreeQuery, rel: usize) -> TableRef {
    let r = &tq.relations[rel];
    if r.binding == r.table {
        TableRef::table(r.table.clone())
    } else {
        TableRef::aliased(r.table.clone(), r.binding.clone())
    }
}

fn pairs_to_on(pairs: &[(ColumnRef, ColumnRef)]) -> Expr {
    Expr::conjoin(
        pairs
            .iter()
            .map(|(a, b)| Expr::eq(Expr::Column(a.clone()), Expr::Column(b.clone()))),
    )
    .expect("join pairs are non-empty")
}

/// `NSC`: the negation of one selection conjunct, `NOT COALESCE(cond,
/// FALSE)`. Unlike the paper's flipped comparison (`acctbal <= 1000` for
/// `acctbal > 1000`), it also holds when the condition is *unknown*: a
/// tuple whose selection is unknown fails the query in the repairs that
/// choose it, so its key is filtered.
fn negate_selection(sc: &Expr) -> Expr {
    Expr::not(Expr::func(
        "coalesce",
        vec![sc.clone(), Expr::Literal(Literal::Boolean(false))],
    ))
}
