//! `RewriteJoin`'s pieces (Figure 5 of the paper), including the
//! annotation-aware variant of Section 5: the satisfying rows, their split
//! by violated keys, the Candidates and the Filter. [`crate::rewrite_agg`]
//! assembles them into the one rewriting template; a query without
//! aggregation runs it with no bound columns:
//!
//! ```sql
//! WITH conq_base AS (SELECT Kroot, S, <split columns> FROM ... WHERE KJ AND NKJ AND SC),
//! conq_conflicts AS (SELECT Kroot FROM Rroot GROUP BY Kroot HAVING COUNT(*) > 1),
//! conq_conflicts_<i> AS (SELECT Ki FROM Ri GROUP BY Ki HAVING COUNT(*) > 1),
//! conq_pass AS (SELECT Kroot, S FROM conq_base B
//!   WHERE NOT EXISTS (SELECT * FROM conq_conflicts V WHERE B.Kroot = V.Kroot)
//!   AND NOT EXISTS (SELECT * FROM conq_conflicts_<i> V WHERE B.Ki = V.Ki)),
//! conq_rest AS (
//!   SELECT * FROM conq_base B
//!     WHERE EXISTS (SELECT * FROM conq_conflicts V WHERE B.Kroot = V.Kroot)
//!   UNION ALL SELECT * FROM conq_base B                        -- per relation
//!     WHERE EXISTS (SELECT * FROM conq_conflicts_<i> V WHERE B.Ki = V.Ki)),
//!   -- annotated: no conflicts; WHERE B.conq_viol = 0, and = 1 for conq_rest
//! conq_qg_candidates AS (SELECT DISTINCT Kroot, S FROM conq_rest),
//! conq_qg_filter AS (
//!   SELECT Kroot FROM conq_qg_candidates
//!   JOIN Rroot ON ... [JOIN co-roots ON KJ]
//!   LEFT OUTER JOIN ... (Figure 6's LOJ, in BFS order)
//!   WHERE R1.K1 IS NULL OR ... OR NSC
//!   UNION ALL
//!   SELECT Kroot FROM conq_qg_candidates GROUP BY Kroot HAVING COUNT(*) > 1),
//! conq_unfiltered AS (SELECT Kroot, S FROM conq_rest B
//!   WHERE NOT EXISTS (SELECT * FROM conq_qg_filter F WHERE B.Kroot = F.Kroot)
//!   GROUP BY Kroot, S)
//! SELECT [DISTINCT] S FROM (conq_pass UNION ALL conq_unfiltered)
//! ```
//!
//! The `COUNT(*) > 1` branch is emitted only when the projection reaches
//! beyond the root key (Example 4 vs Example 3). A query that nothing can
//! filter (a key-only projection with no selection and no outer join) has
//! no Filter and no split: `conq_unfiltered` groups all of `conq_base`.
//!
//! `conq_base` carries what "violated" is read by, the one thing the
//! strategy decides ([`Violated`]): without annotations the key of every
//! non-root relation's tuple in the row (`conq_r<i>k<j>`), looked up in that
//! relation's conflicts, which a key index answers alone (see
//! `conquer_engine::index`); with them `conq_viol`, 1 when a tuple in the
//! row has `cons = 'n'` (Section 5: the violated set computed offline).
//! The answers are a bag, one per consistent key (DESIGN.md §2.3): if no
//! key on a row's witness (the join tree that produced it) is violated, the
//! witness is its key's only join tree, so the key has one row in
//! `conq_pass` and is certain; a row-level test splits whole keys, and a
//! key of `conq_rest` outside the Filter has one `S`.

use conquer_sql::ast::{
    BinaryOp, ColumnRef, Cte, Expr, Literal, Query, Select, SelectItem, SetExpr, TableRef,
};

use crate::analyze::TreeQuery;

/// Name of the annotation column added by [`crate::annotations`].
pub const CONS_COLUMN: &str = "cons";

/// Generated-name prefixes; input queries should avoid `conq_`-prefixed
/// bindings and the rewriting never collides with anything else.
pub const CONFLICTS_CTE: &str = "conq_conflicts";
pub(crate) const BASE_CTE: &str = "conq_base";
pub(crate) const PASS_CTE: &str = "conq_pass";
pub(crate) const REST_CTE: &str = "conq_rest";
const QG_CANDIDATES: &str = "conq_qg_candidates";
pub(crate) const QG_FILTER: &str = "conq_qg_filter";
pub(crate) const BASE_BINDING: &str = "conq_b";
pub(crate) const CAND_BINDING: &str = "conq_cand";
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
/// * [`PASS_CTE`] with `pass`'s columns: the rows no key on whose witness
///   is violated — a `NOT EXISTS` per relation, or `conq_viol = 0` when
///   annotated;
/// * [`REST_CTE`]: every other row — one `EXISTS` member per relation
///   (a row with two violated keys appears twice: every reader takes
///   DISTINCT, a GROUP BY or a per-key MIN/MAX), or `conq_viol = 1`.
pub(crate) fn split_ctes(tq: &TreeQuery, violated: &Violated, pass: Vec<SelectItem>) -> Vec<Cte> {
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
    ctes.push(Cte {
        name: PASS_CTE.to_string(),
        query: Query::from_select(base_rows(pass, pass_when)),
    });
    ctes.push(Cte {
        name: REST_CTE.to_string(),
        query: rest,
    });
    ctes
}

/// `conq_qg_candidates`, `SELECT DISTINCT conq_b.a AS a, ... FROM
/// conq_rest conq_b`: the Candidates the Filter reads.
pub(crate) fn candidates(aliases: &[String]) -> Cte {
    Cte {
        name: QG_CANDIDATES.to_string(),
        query: Query::from_select(Select {
            distinct: true,
            projection: aliased_columns(BASE_BINDING, aliases),
            from: vec![TableRef::aliased(REST_CTE, BASE_BINDING)],
            selection: None,
            group_by: Vec::new(),
            having: None,
        }),
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

/// The Filter CTE [`QG_FILTER`] over the candidates: the outer-join branch
/// plus the multiplicity branch, either of which may be unnecessary, but
/// not both ([`Violated::of`]).
pub(crate) fn build_filter(tq: &TreeQuery, key_aliases: &[String]) -> Cte {
    let join_branch = needs_join_branch(tq).then(|| filter_join_branch(tq, key_aliases));
    let multiplicity_branch =
        needs_multiplicity_branch(tq).then(|| filter_multiplicity_branch(key_aliases));
    Cte {
        name: QG_FILTER.to_string(),
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
fn filter_join_branch(tq: &TreeQuery, key_aliases: &[String]) -> Select {
    let root = &tq.relations[tq.root];

    // conq_qg_candidates conq_cand JOIN Rroot ON conq_cand.k = root.k AND ...
    let root_on = Expr::conjoin(root.key.iter().zip(key_aliases).map(|(k, alias)| {
        Expr::eq(
            Expr::col(CAND_BINDING, alias.clone()),
            Expr::col(root.binding.clone(), k.clone()),
        )
    }))
    .expect("keys are non-empty");
    let mut from =
        TableRef::aliased(QG_CANDIDATES, CAND_BINDING).join(relation_ref(tq, tq.root), root_on);

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
fn filter_multiplicity_branch(key_aliases: &[String]) -> Select {
    Select {
        distinct: false,
        projection: key_aliases
            .iter()
            .map(|alias| SelectItem::expr(Expr::bare_col(alias.clone())))
            .collect(),
        from: vec![TableRef::table(QG_CANDIDATES)],
        selection: None,
        group_by: key_aliases
            .iter()
            .map(|a| Expr::bare_col(a.clone()))
            .collect(),
        having: Some(Expr::binary(Expr::count_star(), BinaryOp::Gt, Expr::int(1))),
    }
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
