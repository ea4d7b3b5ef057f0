//! High-level entry points: rewrite a query, or rewrite-and-execute against
//! a [`Database`].

use std::sync::Arc;

use conquer_engine::{Database, ExecOptions, Rows};
use conquer_sql::ast::Query;
use conquer_sql::parse_query;

use crate::analyze::{analyze, TreeQuery};
use crate::annotations::is_annotated;
use crate::constraints::{ConstraintSet, KeyConstraint};
use crate::error::{Result, RewriteError};
use crate::rewrite_agg::rewrite_agg;
use crate::rewrite_join::{rewrite_join, RewriteOptions};

/// Rewrite a tree query into a SQL query computing its consistent answers
/// (queries without aggregation, Theorem 1) or range-consistent answers
/// (queries with grouping/aggregation, Theorem 2).
pub fn rewrite(query: &Query, sigma: &ConstraintSet, opts: &RewriteOptions) -> Result<Query> {
    rewrite_tree(&analyze_spanned(query, sigma)?, opts)
}

fn analyze_spanned(query: &Query, sigma: &ConstraintSet) -> Result<TreeQuery> {
    let _span = conquer_obs::span("analyze");
    analyze(query, sigma)
}

/// Rewrite an already-analysed tree query.
pub fn rewrite_tree(tq: &TreeQuery, opts: &RewriteOptions) -> Result<Query> {
    let _span = conquer_obs::span("rewrite")
        .field("aggregates", tq.has_aggregates())
        .field("annotated", opts.annotated);
    if tq.has_aggregates() {
        rewrite_agg(tq, opts)
    } else {
        rewrite_join(tq, opts)
    }
}

/// Rewrite SQL text to SQL text — the form in which ConQuer hands queries
/// to a host database system.
pub fn rewrite_sql(sql: &str, sigma: &ConstraintSet, opts: &RewriteOptions) -> Result<String> {
    let query = parse_sql_spanned(sql)?;
    Ok(rewrite(&query, sigma, opts)?.to_string())
}

fn parse_sql_spanned(sql: &str) -> Result<Query> {
    let _span = conquer_obs::span("parse").field("bytes", sql.len());
    Ok(parse_query(sql)?)
}

/// Compute the consistent (or range-consistent) answers of `sql` on `db`
/// under the key constraints `sigma`, using the plain rewriting.
pub fn consistent_answers(db: &Database, sql: &str, sigma: &ConstraintSet) -> Result<Rows> {
    consistent_answers_with(db, sql, sigma, &ExecOptions::default())
}

/// [`consistent_answers`] under explicit execution options — resource
/// limits and cancellation apply to the rewritten query's execution.
pub fn consistent_answers_with(
    db: &Database,
    sql: &str,
    sigma: &ConstraintSet,
    options: &ExecOptions,
) -> Result<Rows> {
    let tq = analyze_spanned(&parse_sql_spanned(sql)?, sigma)?;
    declare_keys(db, read_keys(&tq));
    let rewritten = rewrite_tree(&tq, &RewriteOptions::default())?;
    Ok(db.execute_query_with(&rewritten, options)?)
}

/// Compute the consistent answers using the annotation-aware rewriting of
/// Section 5. The database must have been annotated first
/// ([`crate::annotations::annotate_database`]).
pub fn consistent_answers_annotated(
    db: &Database,
    sql: &str,
    sigma: &ConstraintSet,
) -> Result<Rows> {
    consistent_answers_annotated_with(db, sql, sigma, &ExecOptions::default())
}

/// [`consistent_answers_annotated`] under explicit execution options.
pub fn consistent_answers_annotated_with(
    db: &Database,
    sql: &str,
    sigma: &ConstraintSet,
    options: &ExecOptions,
) -> Result<Rows> {
    if !is_annotated(db, sigma) {
        return Err(RewriteError::InvalidConstraint(
            "database is not annotated; call annotate_database first".into(),
        ));
    }
    let tq = analyze_spanned(&parse_sql_spanned(sql)?, sigma)?;
    declare_keys(db, read_keys(&tq));
    let opts = RewriteOptions {
        annotated: true,
        ..RewriteOptions::default()
    };
    let rewritten = rewrite_tree(&tq, &opts)?;
    Ok(db.execute_query_with(&rewritten, options)?)
}

/// Declare a secondary index on each constrained relation's key columns —
/// the columns that define its conflict groups, and therefore the columns
/// every ConQuer rewriting self-joins (or correlated-EXISTS probes) on.
/// Relations the database does not hold, or whose key columns it lacks,
/// are skipped. Returns how many *new* declarations were made; the
/// postings themselves are built lazily by the first query that plans
/// against each table.
///
/// [`consistent_answers_with`], [`consistent_answers_annotated_with`] and
/// [`PreparedRewrite::execute_on`] declare the keys of the relations their
/// query reads themselves (re-declaring is a read-locked no-op), so calling
/// this is only needed to have the declarations in place — durably, on a
/// durable database — before the first query, or for relations no query
/// has read yet.
pub fn declare_key_indexes(db: &Database, sigma: &ConstraintSet) -> usize {
    let all: Vec<KeyConstraint> = sigma.iter().collect();
    declare_keys(db, all.iter().map(|kc| (&*kc.relation, &*kc.key)))
}

fn declare_keys<'k>(
    db: &Database,
    keys: impl IntoIterator<Item = (&'k str, &'k [String])>,
) -> usize {
    keys.into_iter()
        .filter(|(relation, key)| {
            let cols: Vec<&str> = key.iter().map(String::as_str).collect();
            matches!(db.create_index(relation, &cols), Ok(true))
        })
        .count()
}

/// The relations a tree query reads, each with its key.
fn read_keys(tq: &TreeQuery) -> impl Iterator<Item = (&str, &[String])> {
    tq.relations.iter().map(|r| (&*r.table, &*r.key))
}

/// The *possible* answers of a monotone query are the answers of the
/// original query on the inconsistent database (Section 2); provided for
/// symmetry and for the difference-based inconsistency reports of Section 1.
pub fn possible_answers(db: &Database, sql: &str) -> Result<Rows> {
    Ok(db.query(sql)?)
}

/// A cacheable rewrite artifact: the parsed AST plus its consistent-answer
/// rewriting, both behind `Arc` so statement caches (`conquer-serve`) and
/// prepared statements can share them across sessions without re-parsing or
/// re-running the analysis. The rewriting depends only on the SQL text, the
/// constraint set, and the rewrite options — never on the database contents
/// — so a `PreparedRewrite` stays valid across data changes. Plans built
/// from it do not: a plan is current only while every table it read keeps
/// its version (see `Database::plan_with_reads` and
/// `Database::first_moved`).
#[derive(Debug, Clone)]
pub struct PreparedRewrite {
    /// The query as written.
    pub original: Arc<Query>,
    /// The consistent-answer (or range-consistent) rewriting.
    pub rewritten: Arc<Query>,
    /// Whether the annotation-aware rewriting (Section 5) was used.
    pub annotated: bool,
    /// The key constraints of the relations the query reads: the indexes
    /// the rewriting's self-joins and conflict scan run on.
    pub keys: Arc<[KeyConstraint]>,
}

impl PreparedRewrite {
    /// Execute the rewriting against a database under explicit options,
    /// declaring the key indexes of the relations it reads first.
    pub fn execute_on(&self, db: &Database, options: &ExecOptions) -> Result<Rows> {
        declare_keys(db, self.keys.iter().map(|kc| (&*kc.relation, &*kc.key)));
        Ok(db.execute_query_with(&self.rewritten, options)?)
    }
}

/// Parse and rewrite once, producing a [`PreparedRewrite`] for repeated
/// execution. With `opts.annotated` set, the caller is responsible for
/// checking [`is_annotated`](crate::annotations::is_annotated) against the
/// target database (the artifact itself is database-independent).
pub fn prepare_rewrite(
    sql: &str,
    sigma: &ConstraintSet,
    opts: &RewriteOptions,
) -> Result<PreparedRewrite> {
    let original = parse_sql_spanned(sql)?;
    let tq = analyze_spanned(&original, sigma)?;
    let rewritten = rewrite_tree(&tq, opts)?;
    Ok(PreparedRewrite {
        original: Arc::new(original),
        rewritten: Arc::new(rewritten),
        annotated: opts.annotated,
        keys: read_keys(&tq)
            .map(|(relation, key)| KeyConstraint {
                relation: relation.to_string(),
                key: key.to_vec(),
            })
            .collect(),
    })
}
