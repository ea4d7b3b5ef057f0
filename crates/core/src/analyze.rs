//! Query analysis: the join graph (Definition 3) and the tree-query class
//! check (Definition 4).
//!
//! Given a parsed SQL query and a set of key query constraints, `analyze`
//! classifies every join as key-to-key (`KJ`) or (non-)key-to-key (an arc of
//! the join graph), validates that the arcs form a tree, determines the root
//! relation whose key (`Kroot`) drives the rewriting, and splits the
//! remaining predicates into the selection conditions `SC`.
//!
//! One deliberate generalization over the paper's prose: an arc `Ri → Rj`
//! is created whenever attributes of `Ri` that are *not the full key of
//! `Ri`* are equated with the **full key** of `Rj`. TPC-H joins
//! `lineitem.l_orderkey` — part of lineitem's composite key — to
//! `orders.o_orderkey`; the joined-to tuple still varies across repairs of
//! `orders`, so the left-outer-join treatment applies exactly as for a
//! non-key attribute. A join covering the full keys of *both* relations is
//! a `KJ` and needs no outer join (its outcome is repair-invariant).

use std::collections::VecDeque;

use conquer_sql::ast::{
    is_aggregate_function, ColumnRef, Expr, JoinKind, OrderByItem, Query, Select, SelectItem,
    TableRef,
};

use crate::constraints::ConstraintSet;
use crate::error::{Result, RewriteError};

/// One relation occurrence in the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// Table name, lower-cased.
    pub table: String,
    /// Binding name (alias, or table name when unaliased).
    pub binding: String,
    /// Key attributes from the constraint set.
    pub key: Vec<String>,
}

/// A join step in the Filter's FROM clause: relation index plus equality
/// pairs `(column of an already-joined relation, column of this relation)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterJoin {
    pub rel: usize,
    pub on: Vec<(ColumnRef, ColumnRef)>,
}

/// Supported aggregate kinds (Theorem 2 covers MIN/MAX/SUM; COUNT and AVG
/// are documented extensions — COUNT is exact, AVG yields sound but not
/// tight bounds under non-negative data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    Sum,
    Min,
    Max,
    CountStar,
    Count,
    Avg,
}

/// A normalized item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum ProjItem {
    /// Non-aggregate expression with its output name.
    Plain { expr: Expr, name: String },
    /// Top-level aggregate `func(arg)` with its output name.
    /// `arg` is `None` for `COUNT(*)`.
    Aggregate {
        kind: AggKind,
        arg: Option<Expr>,
        name: String,
    },
}

impl ProjItem {
    pub fn name(&self) -> &str {
        match self {
            ProjItem::Plain { name, .. } | ProjItem::Aggregate { name, .. } => name,
        }
    }
}

/// The fully analysed tree query, ready for rewriting.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeQuery {
    pub relations: Vec<Relation>,
    /// Index of the root relation of the join graph.
    pub root: usize,
    /// Inner (key-to-key) joins of the Filter, in join order.
    pub kj_joins: Vec<FilterJoin>,
    /// Left outer joins of the Filter (the `LOJ` of Figure 6), in join order.
    pub loj_joins: Vec<FilterJoin>,
    /// All join conjuncts of the original query, for reconstructing it.
    pub join_conjuncts: Vec<Expr>,
    /// Selection conjuncts `SC`.
    pub selection: Vec<Expr>,
    /// Normalized SELECT list.
    pub projection: Vec<ProjItem>,
    /// GROUP BY attributes (column references).
    pub group_by: Vec<ColumnRef>,
    pub distinct: bool,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<u64>,
}

impl TreeQuery {
    /// Key attributes of the root relation as qualified column references.
    pub fn root_key_columns(&self) -> Vec<ColumnRef> {
        let root = &self.relations[self.root];
        root.key
            .iter()
            .map(|k| ColumnRef::new(root.binding.clone(), k.clone()))
            .collect()
    }

    /// `true` when the query has grouping or aggregation.
    pub fn has_aggregates(&self) -> bool {
        !self.group_by.is_empty()
            || self
                .projection
                .iter()
                .any(|p| matches!(p, ProjItem::Aggregate { .. }))
    }

    /// Position in `group_by` of the grouped attribute a plain projected
    /// item names, compared as the analysis checked it: by relation and
    /// attribute, whatever the qualification.
    pub(crate) fn group_index(&self, expr: &Expr) -> Option<usize> {
        let Expr::Column(c) = expr else {
            return None;
        };
        let rel = resolve_relation(c, &self.relations)?;
        self.group_by
            .iter()
            .position(|g| g.name == c.name && resolve_relation(g, &self.relations) == Some(rel))
    }

    /// Number of aggregate items in the SELECT list (Figure 10's AggrAttrs).
    pub fn aggregate_count(&self) -> usize {
        self.projection
            .iter()
            .filter(|p| matches!(p, ProjItem::Aggregate { .. }))
            .count()
    }

    /// `true` when every projected item is a key attribute of the root
    /// relation — in that case the multiplicity filter (the `count(*) > 1`
    /// branch of Figure 5) is unnecessary, as in Example 3.
    pub fn projection_within_root_key(&self) -> bool {
        let root = &self.relations[self.root];
        self.projection.iter().all(|item| match item {
            ProjItem::Plain {
                expr: Expr::Column(c),
                ..
            } => {
                resolve_relation(c, &self.relations) == Some(self.root)
                    && root.key.contains(&c.name)
            }
            _ => false,
        })
    }
}

/// Classification of one pairwise join.
#[derive(Debug)]
enum EdgeClass {
    /// Full key of both sides covered.
    KeyToKey,
    /// Arc `from → to`: the pairs cover the full key of `to`.
    Arc { from: usize, to: usize },
}

struct Edge {
    a: usize,
    b: usize,
    /// (column of a, column of b) pairs.
    pairs: Vec<(ColumnRef, ColumnRef)>,
    class: EdgeClass,
}

/// Analyse a query against a constraint set, producing a [`TreeQuery`] or a
/// descriptive error explaining why the query is outside ConQuer's class.
pub fn analyze(query: &Query, sigma: &ConstraintSet) -> Result<TreeQuery> {
    if !query.ctes.is_empty() {
        return Err(RewriteError::Unsupported(
            "WITH clauses in the input query".into(),
        ));
    }
    let select = query.as_select().ok_or_else(|| {
        RewriteError::Unsupported(
            "UNION in the input query (disjunction is outside the tree-query class)".into(),
        )
    })?;
    if select.having.is_some() {
        return Err(RewriteError::Unsupported("HAVING clauses".into()));
    }

    // --- relations -------------------------------------------------------
    let mut relations = Vec::new();
    let mut on_conjuncts: Vec<Expr> = Vec::new();
    for factor in &select.from {
        collect_relations(factor, sigma, &mut relations, &mut on_conjuncts)?;
    }
    if relations.is_empty() {
        return Err(RewriteError::Unsupported(
            "queries without a FROM clause".into(),
        ));
    }
    for (i, r) in relations.iter().enumerate() {
        for other in &relations[..i] {
            if other.binding == r.binding {
                return Err(RewriteError::Unsupported(format!(
                    "duplicate binding `{}` in FROM clause",
                    r.binding
                )));
            }
            if other.table == r.table {
                return Err(RewriteError::NotATreeQuery(format!(
                    "relation `{}` is used more than once (each relation may be used at most once)",
                    r.table
                )));
            }
        }
    }

    // --- conjunct classification ------------------------------------------
    let mut join_pairs: Vec<(usize, usize, ColumnRef, ColumnRef)> = Vec::new();
    let mut selection = Vec::new();
    let mut join_conjuncts = Vec::new();
    let where_conjuncts: Vec<Expr> = select
        .selection
        .iter()
        .flat_map(|w| w.split_conjuncts().into_iter().cloned())
        .collect();
    for conjunct in where_conjuncts.iter().chain(on_conjuncts.iter()) {
        check_plain_predicate(conjunct)?;
        match classify_conjunct(conjunct, &relations)? {
            Some((i, j, ci, cj)) => {
                join_pairs.push((i, j, ci, cj));
                join_conjuncts.push(conjunct.clone());
            }
            None => selection.push(conjunct.clone()),
        }
    }

    // --- group pairs into edges and classify ------------------------------
    let mut edges: Vec<Edge> = Vec::new();
    for (i, j, ci, cj) in join_pairs {
        // Normalize so a < b.
        let (a, b, ca, cb) = if i < j {
            (i, j, ci, cj)
        } else {
            (j, i, cj, ci)
        };
        match edges.iter_mut().find(|e| e.a == a && e.b == b) {
            Some(e) => e.pairs.push((ca, cb)),
            None => edges.push(Edge {
                a,
                b,
                pairs: vec![(ca, cb)],
                class: EdgeClass::KeyToKey,
            }),
        }
    }
    for e in &mut edges {
        e.class = classify_edge(e, &relations)?;
    }

    // --- root discovery and tree validation -------------------------------
    let n = relations.len();
    let mut in_degree = vec![0usize; n];
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut kj_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ei, e) in edges.iter().enumerate() {
        match e.class {
            EdgeClass::KeyToKey => {
                kj_adj[e.a].push(ei);
                kj_adj[e.b].push(ei);
            }
            EdgeClass::Arc { from, to } => {
                in_degree[to] += 1;
                children[from].push(ei);
            }
        }
    }
    for (i, d) in in_degree.iter().enumerate() {
        if *d > 1 {
            return Err(RewriteError::NotATreeQuery(format!(
                "relation `{}` is joined on its key from more than one relation (the join graph is not a tree)",
                relations[i].binding
            )));
        }
    }
    let roots: Vec<usize> = (0..n).filter(|i| in_degree[*i] == 0).collect();
    if roots.is_empty() {
        return Err(RewriteError::NotATreeQuery(
            "the join graph contains a cycle".into(),
        ));
    }
    // All zero-in-degree relations must form a single key-to-key connected
    // component (the merged root).
    let root = roots[0];
    let mut in_root_component = vec![false; n];
    let mut kj_joins = Vec::new();
    let mut queue = VecDeque::from([root]);
    in_root_component[root] = true;
    while let Some(r) = queue.pop_front() {
        for &ei in &kj_adj[r] {
            let e = &edges[ei];
            let (other, on) = if e.a == r {
                (e.b, e.pairs.clone())
            } else {
                (
                    e.a,
                    e.pairs
                        .iter()
                        .map(|(x, y)| (y.clone(), x.clone()))
                        .collect(),
                )
            };
            if !in_root_component[other] {
                in_root_component[other] = true;
                kj_joins.push(FilterJoin { rel: other, on });
                queue.push_back(other);
            }
        }
    }
    for &r in &roots {
        if !in_root_component[r] {
            return Err(RewriteError::NotATreeQuery(format!(
                "relations `{}` and `{}` are not connected by joins (the join graph is a forest, not a tree)",
                relations[root].binding, relations[r].binding
            )));
        }
    }
    for (i, in_comp) in in_root_component.iter().enumerate() {
        if *in_comp && in_degree[i] > 0 {
            return Err(RewriteError::NotATreeQuery(format!(
                "relation `{}` participates in a key-to-key join with the root but is also joined on its key (unsupported shape)",
                relations[i].binding
            )));
        }
    }
    // Key-to-key edges must live inside the root component.
    for e in &edges {
        if matches!(e.class, EdgeClass::KeyToKey)
            && (!in_root_component[e.a] || !in_root_component[e.b])
        {
            return Err(RewriteError::Unsupported(format!(
                "key-to-key join between `{}` and `{}` outside the root of the join graph",
                relations[e.a].binding, relations[e.b].binding
            )));
        }
    }

    // BFS along arcs from the root component, building the LOJ order.
    let mut visited = in_root_component.clone();
    let mut loj_joins = Vec::new();
    let mut queue: VecDeque<usize> = (0..n).filter(|i| in_root_component[*i]).collect();
    while let Some(r) = queue.pop_front() {
        for &ei in &children[r] {
            let e = &edges[ei];
            let EdgeClass::Arc { from, to } = e.class else {
                // `children` only ever holds arc edges; keep the path
                // structured-error-only regardless.
                return Err(RewriteError::NotATreeQuery(
                    "internal: non-arc edge in join-tree traversal".into(),
                ));
            };
            debug_assert_eq!(from, r);
            let on: Vec<(ColumnRef, ColumnRef)> = if e.a == from {
                e.pairs.clone()
            } else {
                e.pairs
                    .iter()
                    .map(|(x, y)| (y.clone(), x.clone()))
                    .collect()
            };
            if visited[to] {
                return Err(RewriteError::NotATreeQuery(format!(
                    "relation `{}` is reachable by two join paths",
                    relations[to].binding
                )));
            }
            visited[to] = true;
            loj_joins.push(FilterJoin { rel: to, on });
            queue.push_back(to);
        }
    }
    if let Some(i) = visited.iter().position(|v| !v) {
        return Err(RewriteError::NotATreeQuery(format!(
            "relation `{}` is not connected to the rest of the query by joins",
            relations[i].binding
        )));
    }

    // --- projection & grouping --------------------------------------------
    let projection = analyze_projection(select, &relations)?;
    let group_by = analyze_group_by(select, &projection, &relations)?;
    if select.distinct
        && projection
            .iter()
            .any(|p| matches!(p, ProjItem::Aggregate { .. }))
    {
        return Err(RewriteError::Unsupported(
            "SELECT DISTINCT with aggregates".into(),
        ));
    }

    Ok(TreeQuery {
        relations,
        root,
        kj_joins,
        loj_joins,
        join_conjuncts,
        selection,
        projection,
        group_by,
        distinct: select.distinct,
        order_by: query.order_by.clone(),
        limit: query.limit,
    })
}

/// Flatten a FROM factor into base relations, hoisting inner-join ON
/// conditions into the conjunct pool.
fn collect_relations(
    factor: &TableRef,
    sigma: &ConstraintSet,
    relations: &mut Vec<Relation>,
    on_conjuncts: &mut Vec<Expr>,
) -> Result<()> {
    match factor {
        TableRef::Table { name, alias } => {
            let table = name.to_ascii_lowercase();
            let key = sigma
                .key_of(&table)
                .ok_or_else(|| RewriteError::MissingKey(table.clone()))?
                .to_vec();
            let binding = alias
                .clone()
                .unwrap_or_else(|| table.clone())
                .to_ascii_lowercase();
            relations.push(Relation {
                table,
                binding,
                key,
            });
            Ok(())
        }
        TableRef::Subquery { .. } => Err(RewriteError::Unsupported(
            "derived tables in the input query".into(),
        )),
        TableRef::Join {
            left,
            kind,
            right,
            on,
        } => {
            match kind {
                JoinKind::Inner => {}
                JoinKind::LeftOuter => {
                    return Err(RewriteError::Unsupported(
                        "LEFT OUTER JOIN in the input query (outside the tree-query class)".into(),
                    ))
                }
                JoinKind::Cross => {
                    return Err(RewriteError::Unsupported("CROSS JOIN syntax".into()))
                }
            }
            collect_relations(left, sigma, relations, on_conjuncts)?;
            collect_relations(right, sigma, relations, on_conjuncts)?;
            if let Some(on) = on {
                on_conjuncts.extend(on.split_conjuncts().into_iter().cloned());
            }
            Ok(())
        }
    }
}

/// Reject subqueries and aggregates inside WHERE/ON conjuncts.
fn check_plain_predicate(e: &Expr) -> Result<()> {
    if e.contains_aggregate() {
        return Err(RewriteError::Unsupported("aggregates in WHERE".into()));
    }
    if e.contains_subquery() {
        return Err(RewriteError::Unsupported(
            "nested subqueries in the input query (decorrelate and unnest first, as in Section 6.1)".into(),
        ));
    }
    Ok(())
}

/// Resolve a column reference to a relation index. Bare names resolve only
/// in single-relation queries.
fn resolve_relation(col: &ColumnRef, relations: &[Relation]) -> Option<usize> {
    match &col.qualifier {
        Some(q) => relations.iter().position(|r| r.binding == *q),
        None => match relations {
            [_] => Some(0),
            _ => None,
        },
    }
}

/// Classify one conjunct: `Some((i, j, ci, cj))` for a join between distinct
/// relations, `None` for a selection condition.
fn classify_conjunct(
    conjunct: &Expr,
    relations: &[Relation],
) -> Result<Option<(usize, usize, ColumnRef, ColumnRef)>> {
    let Expr::BinaryOp { left, op, right } = conjunct else {
        return Ok(None);
    };
    let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) else {
        return Ok(None);
    };
    use conquer_sql::BinaryOp::Eq;
    if *op != Eq {
        // Inequality between columns of different relations would be an
        // inequality join, which Definition 4 excludes.
        if relations.len() > 1 {
            let ra = resolve_relation(a, relations);
            let rb = resolve_relation(b, relations);
            if let (Some(i), Some(j)) = (ra, rb) {
                if i != j {
                    return Err(RewriteError::NotATreeQuery(format!(
                        "inequality join between `{}` and `{}` (only equi-joins are supported)",
                        relations[i].binding, relations[j].binding
                    )));
                }
            }
        }
        return Ok(None);
    }
    let ra = resolve_relation(a, relations);
    let rb = resolve_relation(b, relations);
    match (ra, rb) {
        (Some(i), Some(j)) if i != j => Ok(Some((i, j, a.clone(), b.clone()))),
        (Some(_), Some(_)) => Ok(None), // same-relation equality: a selection
        _ if matches!(relations, [_]) => Ok(None),
        _ => Err(RewriteError::Unsupported(format!(
            "cannot resolve the relations of equality `{conjunct}`; qualify both columns"
        ))),
    }
}

/// Classify an edge by key coverage on each side.
fn classify_edge(edge: &Edge, relations: &[Relation]) -> Result<EdgeClass> {
    let covers = |rel: usize, side_a: bool| -> bool {
        let key = &relations[rel].key;
        key.iter().all(|k| {
            edge.pairs.iter().any(|(ca, cb)| {
                let c = if side_a { ca } else { cb };
                c.name == *k
            })
        })
    };
    let a_covered = covers(edge.a, true);
    let b_covered = covers(edge.b, false);
    match (a_covered, b_covered) {
        (true, true) => Ok(EdgeClass::KeyToKey),
        (false, true) => Ok(EdgeClass::Arc {
            from: edge.a,
            to: edge.b,
        }),
        (true, false) => Ok(EdgeClass::Arc {
            from: edge.b,
            to: edge.a,
        }),
        (false, false) => Err(RewriteError::NotATreeQuery(format!(
            "the join between `{}` and `{}` does not involve the full key of either relation",
            relations[edge.a].binding, relations[edge.b].binding
        ))),
    }
}

fn analyze_projection(select: &Select, relations: &[Relation]) -> Result<Vec<ProjItem>> {
    let mut items = Vec::new();
    for (i, item) in select.projection.iter().enumerate() {
        match item {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                return Err(RewriteError::Unsupported(
                    "wildcard projection (list the attributes explicitly)".into(),
                ))
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.clone(),
                    None => match expr {
                        Expr::Column(c) => c.name.clone(),
                        Expr::Function { name, .. } => name.clone(),
                        _ => format!("_col{}", i + 1),
                    },
                };
                if expr.contains_aggregate() {
                    items.push(parse_aggregate_item(expr, name, relations)?);
                } else {
                    items.push(ProjItem::Plain {
                        expr: expr.clone(),
                        name,
                    });
                }
            }
        }
    }
    if items.is_empty() {
        return Err(RewriteError::Unsupported("empty SELECT list".into()));
    }
    Ok(items)
}

fn parse_aggregate_item(expr: &Expr, name: String, _relations: &[Relation]) -> Result<ProjItem> {
    let Expr::Function {
        name: fname,
        args,
        distinct,
    } = expr
    else {
        return Err(RewriteError::Unsupported(format!(
            "expressions over aggregates in the SELECT list (`{expr}`); project the aggregate directly"
        )));
    };
    if !is_aggregate_function(fname) {
        return Err(RewriteError::Unsupported(format!("function `{fname}`")));
    }
    if *distinct {
        return Err(RewriteError::Unsupported(format!(
            "DISTINCT aggregates (`{fname}(DISTINCT ...)`) have no range-consistent rewriting"
        )));
    }
    let (kind, arg) = match (fname.as_str(), args.as_slice()) {
        ("count", [Expr::Wildcard]) => (AggKind::CountStar, None),
        ("count", [a]) => (AggKind::Count, Some(a.clone())),
        ("sum", [a]) => (AggKind::Sum, Some(a.clone())),
        ("min", [a]) => (AggKind::Min, Some(a.clone())),
        ("max", [a]) => (AggKind::Max, Some(a.clone())),
        ("avg", [a]) => (AggKind::Avg, Some(a.clone())),
        _ => {
            return Err(RewriteError::Unsupported(format!(
                "aggregate `{fname}` with {} arguments",
                args.len()
            )))
        }
    };
    if let Some(a) = &arg {
        if a.contains_aggregate() {
            return Err(RewriteError::Unsupported("nested aggregates".into()));
        }
        if a.contains_subquery() {
            return Err(RewriteError::Unsupported(
                "subquery inside an aggregate".into(),
            ));
        }
    }
    Ok(ProjItem::Aggregate { kind, arg, name })
}

fn analyze_group_by(
    select: &Select,
    projection: &[ProjItem],
    relations: &[Relation],
) -> Result<Vec<ColumnRef>> {
    let mut group_by = Vec::new();
    for g in &select.group_by {
        let Expr::Column(c) = g else {
            return Err(RewriteError::Unsupported(format!(
                "GROUP BY expression `{g}` (only attributes are supported)"
            )));
        };
        group_by.push(c.clone());
    }
    let has_agg = projection
        .iter()
        .any(|p| matches!(p, ProjItem::Aggregate { .. }));
    if !has_agg && group_by.is_empty() {
        return Ok(group_by);
    }

    // Resolve a column to (relation, attribute) for structural comparison.
    let resolve = |c: &ColumnRef| -> Result<(usize, String)> {
        match resolve_relation(c, relations) {
            Some(i) => Ok((i, c.name.clone())),
            None => Err(RewriteError::Unsupported(format!(
                "cannot resolve column `{c}`; qualify it"
            ))),
        }
    };

    // Every plain projected item must be a grouped attribute, and every
    // grouped attribute must be projected (the paper's restriction).
    let resolved_groups: Vec<(usize, String)> =
        group_by.iter().map(&resolve).collect::<Result<_>>()?;
    let mut projected_groups = Vec::new();
    for item in projection {
        if let ProjItem::Plain { expr, name } = item {
            let Expr::Column(c) = expr else {
                return Err(RewriteError::Unsupported(format!(
                    "non-attribute expression `{expr}` projected alongside aggregates"
                )));
            };
            let rc = resolve(c)?;
            if !resolved_groups.contains(&rc) {
                return Err(RewriteError::NotATreeQuery(format!(
                    "projected attribute `{name}` does not appear in GROUP BY"
                )));
            }
            projected_groups.push(rc);
        }
    }
    for (g, rg) in group_by.iter().zip(&resolved_groups) {
        if !projected_groups.contains(rg) {
            return Err(RewriteError::Unsupported(format!(
                "GROUP BY attribute `{g}` does not appear in the SELECT list \
                 (the paper's rewriting requires grouped attributes to be projected)"
            )));
        }
    }
    Ok(group_by)
}
