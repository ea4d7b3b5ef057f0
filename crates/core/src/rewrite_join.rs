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
//! The Filter reads only the **suspects**: the candidates one of whose
//! witnesses — the join trees that produce them — holds a tuple with a
//! *violated* key. Over a single relation without annotations that is the
//! candidates whose own key is violated:
//!
//! ```sql
//! conq_conflicts AS (
//!   SELECT Kroot FROM Rroot GROUP BY Kroot HAVING COUNT(*) > 1),
//! conq_suspects AS (
//!   SELECT Kroot FROM conq_candidates C
//!   WHERE EXISTS (SELECT * FROM conq_conflicts V WHERE C.Kroot = V.Kroot)),
//! conq_filter AS (... both branches FROM conq_suspects ...)
//! ```
//!
//! Otherwise the Candidates are computed in two steps, as `RewriteAgg` has
//! them — `conq_base`, the satisfying rows, then the `SELECT DISTINCT
//! Kroot, S` over it — and the violated keys are looked up in those rows.
//! Where from is the one thing the strategy decides ([`Violated`]): without
//! annotations each row also carries the key of every non-root relation's
//! tuple in it (`conq_r<i>k<j>`), looked up in that relation's conflicts;
//! with them it carries `conq_viol`, 1 when a tuple in it has `cons = 'n'`
//! (Section 5: the violated set computed offline):
//!
//! ```sql
//! conq_conflicts_<i> AS (
//!   SELECT Ki FROM Ri GROUP BY Ki HAVING COUNT(*) > 1),      -- per relation
//! conq_suspect_keys AS (
//!   SELECT Kroot FROM conq_conflicts
//!   UNION ALL SELECT B.Kroot FROM conq_base B                  -- per relation
//!     WHERE EXISTS (SELECT * FROM conq_conflicts_<i> V WHERE B.Ki = V.Ki)),
//!   -- annotated: SELECT B.Kroot FROM conq_base B WHERE B.conq_viol = 1
//! conq_suspects AS (
//!   SELECT Kroot FROM conq_candidates C
//!   WHERE EXISTS (SELECT * FROM conq_suspect_keys V WHERE C.Kroot = V.Kroot))
//! ```
//!
//! No other candidate can be filtered. If no key on any witness of a
//! candidate is violated — its root key included — every tuple on the
//! witness is the only one with its key, so the root tuple is the key's
//! only tuple and each join (to the *full* key of the child) can reach
//! only the tuple the witness holds: the witness is the candidate's only
//! join tree. It satisfies every join and every selection, so the first
//! branch cannot emit the key, and it yields one `S`, so the second cannot
//! either. One relation is the case with nothing to union. Each
//! `conq_conflicts*` is a plain `GROUP BY … HAVING` that an engine with an
//! index on the key answers from the index alone (see
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
pub const SUSPECTS_CTE: &str = "conq_suspects";
pub const SUSPECT_KEYS_CTE: &str = "conq_suspect_keys";
pub(crate) const BASE_CTE: &str = "conq_base";
pub(crate) const BASE_BINDING: &str = "conq_b";
const CAND_BINDING: &str = "conq_cand";
const FILTER_BINDING: &str = "conq_f";
pub(crate) const CONFLICT_BINDING: &str = "conq_v";
pub(crate) const VIOL: &str = "conq_viol";

/// Options controlling the rewriting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteOptions {
    /// Use the annotation-aware rewriting of Section 5, which assumes every
    /// relation carries a `cons` column (`'y'`/`'n'`) produced by
    /// [`crate::annotations::annotate_database`]. It decides one thing:
    /// where the rewriting reads which keys are violated ([`Violated`]).
    pub annotated: bool,
}

/// The reusable pieces of a join rewriting; `RewriteAgg` embeds these.
pub(crate) struct JoinRewriteParts {
    /// The Candidates CTE, last, after `conq_base` when it reads one.
    pub candidates: Vec<Cte>,
    /// The Filter CTE, last, after the CTEs it reads; empty when nothing
    /// can filter a candidate.
    pub filter: Vec<Cte>,
    /// Aliases of the root-key columns inside the candidates CTE.
    pub key_aliases: Vec<String>,
    /// Aliases of the projected items inside the candidates CTE, parallel
    /// to `tq.projection`.
    pub item_aliases: Vec<String>,
}

/// Rewrite a tree query without aggregation into a query computing its
/// consistent answers (Theorem 1).
pub fn rewrite_join(tq: &TreeQuery, opts: &RewriteOptions) -> Result<Query> {
    if tq.has_aggregates() {
        return Err(RewriteError::Unsupported(
            "RewriteJoin applies to queries without aggregation; use rewrite() to dispatch".into(),
        ));
    }
    let parts = build_parts(tq, opts, CANDIDATES_CTE, FILTER_CTE)?;

    let projection = tq
        .projection
        .iter()
        .zip(&parts.item_aliases)
        .map(|(item, alias)| {
            SelectItem::aliased(Expr::col(CAND_BINDING, alias.clone()), item.name())
        })
        .collect();
    let selection =
        (!parts.filter.is_empty()).then(|| not_exists_filter(FILTER_CTE, &parts.key_aliases));

    let mut ctes = parts.candidates;
    ctes.extend(parts.filter);
    Ok(Query {
        ctes,
        body: SetExpr::Select(Box::new(Select {
            distinct: tq.distinct,
            projection,
            from: vec![TableRef::aliased(CANDIDATES_CTE, CAND_BINDING)],
            selection,
            group_by: Vec::new(),
            having: None,
        })),
        order_by: tq.order_by.clone(),
        limit: tq.limit,
    })
}

/// Build the Candidates and Filter CTEs of `RewriteJoin`. (`RewriteAgg`
/// has its own Candidates over `conq_base` and shares [`build_filter`].)
pub(crate) fn build_parts(
    tq: &TreeQuery,
    opts: &RewriteOptions,
    cand_name: &str,
    filter_name: &str,
) -> Result<JoinRewriteParts> {
    for item in &tq.projection {
        if matches!(item, ProjItem::Aggregate { .. }) {
            return Err(RewriteError::Unsupported(
                "aggregates inside the join rewriting".into(),
            ));
        }
    }
    let key_aliases: Vec<String> = (1..=tq.relations[tq.root].key.len())
        .map(|i| format!("conq_k{i}"))
        .collect();
    let item_aliases = choose_item_aliases(tq);

    let violated = Violated::of(tq, opts);
    let mut select = candidates_select(tq, &key_aliases, &item_aliases);
    let mut candidates = Vec::new();
    let base_items = base_items(tq, violated.as_ref());
    if !base_items.is_empty() {
        // The Candidates of Figure 5 in two steps, as `RewriteAgg` has
        // them: the satisfying rows with what their suspects are found by,
        // then the DISTINCT (key, S) pairs.
        select.distinct = false;
        select.projection.extend(base_items);
        candidates.push(Cte {
            name: BASE_CTE.to_string(),
            query: Query::from_select(select),
        });
        let aliases: Vec<String> = key_aliases.iter().chain(&item_aliases).cloned().collect();
        select = distinct_from(BASE_CTE, &aliases);
    }
    candidates.push(Cte {
        name: cand_name.to_string(),
        query: Query::from_select(select),
    });

    let filter = violated.map_or_else(Vec::new, |v| {
        build_filter(tq, Some(&v), cand_name, filter_name, &key_aliases)
    });

    Ok(JoinRewriteParts {
        candidates,
        filter,
        key_aliases,
        item_aliases,
    })
}

/// Pick collision-free aliases for projected items inside the candidates
/// CTE: the output name when it is safe and unique, `conq_s{i}` otherwise.
pub(crate) fn choose_item_aliases(tq: &TreeQuery) -> Vec<String> {
    let mut aliases: Vec<String> = Vec::new();
    for (i, item) in tq.projection.iter().enumerate() {
        let name = item.name().to_ascii_lowercase();
        let safe = !name.starts_with("conq_")
            && !aliases.contains(&name)
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

/// The original query's FROM clause, reconstructed as a comma list.
pub(crate) fn original_from(tq: &TreeQuery) -> Vec<TableRef> {
    tq.relations
        .iter()
        .map(|r| {
            if r.binding == r.table {
                TableRef::table(r.table.clone())
            } else {
                TableRef::aliased(r.table.clone(), r.binding.clone())
            }
        })
        .collect()
}

/// The original query's WHERE clause: joins plus selections.
pub(crate) fn original_where(tq: &TreeQuery) -> Option<Expr> {
    Expr::conjoin(tq.join_conjuncts.iter().chain(&tq.selection).cloned())
}

/// The `Candidates` select block: the original query with DISTINCT and the
/// root-key attributes added (Figure 5).
fn candidates_select(tq: &TreeQuery, key_aliases: &[String], item_aliases: &[String]) -> Select {
    let keys = tq.root_key_columns().into_iter().map(Expr::Column);
    let items = tq.projection.iter().map(|item| match item {
        ProjItem::Plain { expr, .. } => expr.clone(),
        ProjItem::Aggregate { .. } => unreachable!("checked in build_parts"),
    });
    Select {
        distinct: true,
        projection: keys
            .chain(items)
            .zip(key_aliases.iter().chain(item_aliases))
            .map(|(expr, alias)| SelectItem::aliased(expr, alias.clone()))
            .collect(),
        from: original_from(tq),
        selection: original_where(tq),
        group_by: Vec::new(),
        having: None,
    }
}

/// The key of one relation of the query as a CTE carries it: the columns
/// and their aliases — `conq_r<rel>k<j>` in `conq_base` for a non-root
/// relation, the candidates' `conq_k<j>` for the root.
pub(crate) struct WitnessKey {
    rel: usize,
    columns: Vec<ColumnRef>,
    aliases: Vec<String>,
}

/// Where a rewriting reads which keys are violated — the one thing
/// [`RewriteOptions::annotated`] decides. Both name the same suspects: a
/// tuple's `cons` is `'n'` exactly when its key is violated.
pub(crate) enum Violated {
    /// The conflict CTEs (`GROUP BY K HAVING COUNT(*) > 1`, which a key
    /// index answers), looked up through the non-root keys `conq_base`
    /// carries.
    Conflicts(Vec<WitnessKey>),
    /// `conq_base`'s [`VIOL`]: 1 when a tuple of the row has `cons = 'n'`.
    Annotated,
}

impl Violated {
    /// `None` when the query has no Filter, so no candidate is suspect.
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

/// The non-root keys (with one relation: none — the root key is already a
/// candidate column).
fn witness_keys(tq: &TreeQuery) -> Vec<WitnessKey> {
    let relations = tq.relations.iter().enumerate();
    relations
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
        })
        .collect()
}

/// The columns `conq_base` carries for the Filter to find its suspects by,
/// after the candidates' own: the witness keys, or the [`VIOL`] flag
/// `CASE WHEN R1.cons = 'n' OR ... THEN 1 ELSE 0 END`.
pub(crate) fn base_items(tq: &TreeQuery, violated: Option<&Violated>) -> Vec<SelectItem> {
    match violated {
        None => Vec::new(),
        Some(Violated::Conflicts(witness)) => witness
            .iter()
            .flat_map(|w| {
                w.columns
                    .iter()
                    .zip(&w.aliases)
                    .map(|(c, alias)| SelectItem::aliased(Expr::Column(c.clone()), alias.clone()))
            })
            .collect(),
        Some(Violated::Annotated) => {
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

/// `conq_b.conq_viol = <v>`.
pub(crate) fn viol_is(v: i64) -> Expr {
    Expr::eq(Expr::col(BASE_BINDING, VIOL), Expr::int(v))
}

/// `SELECT DISTINCT conq_b.a AS a, ... FROM <cte> conq_b`: the Candidates,
/// read off the satisfying rows (`conq_base`, or the part of it `RewriteAgg`
/// runs its per-key CTEs over).
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

/// Build the Filter CTE `filter_name` — the outer-join branch plus the
/// multiplicity branch, either of which may be unnecessary, but not both
/// ([`Violated::of`]) — preceded by the CTEs it reads.
///
/// Both branches read the candidates `cand_name`. Only those some witness
/// of which holds a tuple with a violated key can be filtered (see the
/// module docs), so the branches read just those, the *suspects*, found
/// as `violated` says — unless it is `None`: every candidate already has a
/// violated key (the single-relation split of `RewriteAgg`).
pub(crate) fn build_filter(
    tq: &TreeQuery,
    violated: Option<&Violated>,
    cand_name: &str,
    filter_name: &str,
    key_aliases: &[String],
) -> Vec<Cte> {
    let source = if violated.is_some() {
        SUSPECTS_CTE
    } else {
        cand_name
    };
    let join_branch = needs_join_branch(tq).then(|| filter_join_branch(tq, source, key_aliases));
    let multiplicity_branch =
        needs_multiplicity_branch(tq).then(|| filter_multiplicity_branch(source, key_aliases));
    let body = union_all([join_branch, multiplicity_branch].into_iter().flatten())
        .expect("a query with a Filter needs a branch");

    let mut ctes = violated.map_or_else(Vec::new, |v| suspects_ctes(tq, v, cand_name, key_aliases));
    ctes.push(Cte {
        name: filter_name.to_string(),
        query: body,
    });
    ctes
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

/// [`SUSPECTS_CTE`] and what it reads: the root keys of `conq_base`'s rows
/// with [`VIOL`] set ([`SUSPECT_KEYS_CTE`], annotated), or the violated
/// keys of every relation (`conq_conflicts` for the root,
/// `conq_conflicts_<rel>` for the others) and, with more relations than
/// one, [`SUSPECT_KEYS_CTE`]: the root keys those reach through
/// `conq_base`'s witnesses.
fn suspects_ctes(
    tq: &TreeQuery,
    violated: &Violated,
    cand_name: &str,
    key_aliases: &[String],
) -> Vec<Cte> {
    let base_keys = |selection| Select {
        distinct: false,
        projection: aliased_columns(BASE_BINDING, key_aliases),
        from: vec![TableRef::aliased(BASE_CTE, BASE_BINDING)],
        selection: Some(selection),
        group_by: Vec::new(),
        having: None,
    };
    let mut ctes = Vec::new();
    let suspect_keys = match violated {
        Violated::Annotated => Some(Query::from_select(base_keys(viol_is(1)))),
        Violated::Conflicts(witness) => {
            ctes.push(root_conflicts(tq, key_aliases));
            let mut members = vec![Select {
                distinct: false,
                projection: key_aliases
                    .iter()
                    .map(|alias| SelectItem::expr(Expr::bare_col(alias.clone())))
                    .collect(),
                from: vec![TableRef::table(CONFLICTS_CTE)],
                selection: None,
                group_by: Vec::new(),
                having: None,
            }];
            for w in witness {
                let name = format!("{CONFLICTS_CTE}_{}", w.rel);
                let conflict = key_match(BASE_BINDING, &name, CONFLICT_BINDING, &w.aliases);
                members.push(base_keys(Expr::exists(conflict)));
                ctes.push(Cte {
                    name,
                    query: Query::from_select(conflicts_select(tq, w)),
                });
            }
            (!witness.is_empty())
                .then(|| union_all(members.into_iter()).expect("the root's member"))
        }
    };
    let violated_keys = match suspect_keys {
        Some(query) => {
            ctes.push(Cte {
                name: SUSPECT_KEYS_CTE.to_string(),
                query,
            });
            SUSPECT_KEYS_CTE
        }
        None => CONFLICTS_CTE,
    };
    ctes.push(Cte {
        name: SUSPECTS_CTE.to_string(),
        query: Query::from_select(Select {
            distinct: false,
            projection: aliased_columns(CAND_BINDING, key_aliases),
            from: vec![TableRef::aliased(cand_name, CAND_BINDING)],
            selection: Some(Expr::exists(key_match(
                CAND_BINDING,
                violated_keys,
                CONFLICT_BINDING,
                key_aliases,
            ))),
            group_by: Vec::new(),
            having: None,
        }),
    });
    ctes
}

/// [`CONFLICTS_CTE`]: the root's violated keys, under the candidates' key
/// aliases.
pub(crate) fn root_conflicts(tq: &TreeQuery, key_aliases: &[String]) -> Cte {
    let root = WitnessKey {
        rel: tq.root,
        columns: tq.root_key_columns(),
        aliases: key_aliases.to_vec(),
    };
    Cte {
        name: CONFLICTS_CTE.to_string(),
        query: Query::from_select(conflicts_select(tq, &root)),
    }
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
pub(crate) fn not_exists_filter(filter_name: &str, key_aliases: &[String]) -> Expr {
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
