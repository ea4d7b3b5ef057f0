//! Offline annotation of constraint violations (Section 5 of the paper).
//!
//! When the query constraints are known in advance, ConQuer can preprocess
//! the database, attaching to every tuple a `cons` flag: `'y'` when the
//! tuple's key value occurs exactly once in its relation (the tuple cannot
//! violate the key), `'n'` when it might. The annotation-aware rewritings
//! exploit the flag to focus the expensive Filter work on the (usually
//! small) inconsistent portion of the database — an optimization a generic
//! query optimizer cannot discover because it is unaware of the semantics
//! of consistent query answering.
//!
//! The flag is the size of the tuple's key group: the engine's group-key
//! kernel counts the groups in one typed pass over the key columns
//! ([`group_sizes`]), and `cons` is stored as a dictionary column over the
//! two flags beside the relation's existing columns, which are shared with
//! the unannotated table, not copied.

use std::sync::Arc;

use conquer_engine::groupkey::group_sizes;
use conquer_engine::{ColumnChunk, ColumnData, DataType, Database, Index, Table, TextDict, Value};

use crate::constraints::ConstraintSet;
use crate::error::{Result, RewriteError};
use crate::rewrite_join::CONS_COLUMN;

/// Report of one relation's annotation pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotationStats {
    pub relation: String,
    pub total_tuples: usize,
    /// Tuples flagged `'n'` (sharing a key value with another tuple).
    pub inconsistent_tuples: usize,
    /// Distinct key values involved in violations.
    pub violated_keys: usize,
}

/// Annotate every constrained relation of the database in place, replacing
/// each table with a copy carrying the extra `cons` column.
///
/// Errors when a constrained relation is missing from the database, already
/// has a `cons` column, or lacks one of its key attributes — and then
/// leaves the database as it was: every constraint is checked and every
/// annotated table built before the first one is registered.
pub fn annotate_database(db: &Database, sigma: &ConstraintSet) -> Result<Vec<AnnotationStats>> {
    let _span = conquer_obs::span("annotate");
    let mut flags = TextDict::new();
    let (consistent, inconsistent) = (flags.intern("y"), flags.intern("n"));
    let flags = Arc::new(flags);

    let mut annotated: Vec<(Table, AnnotationStats)> = Vec::new();
    for constraint in sigma.iter() {
        let table = db.table(&constraint.relation).map_err(|_| {
            RewriteError::MissingKey(format!(
                "relation `{}` (named in the constraint set) does not exist in the database",
                constraint.relation
            ))
        })?;
        if table.schema().columns.iter().any(|c| c.name == CONS_COLUMN) {
            return Err(RewriteError::InvalidConstraint(format!(
                "relation `{}` already has a `{CONS_COLUMN}` column",
                constraint.relation
            )));
        }
        let key_indices: Vec<usize> = constraint
            .key
            .iter()
            .map(|k| table.column_index(k).map_err(RewriteError::Engine))
            .collect::<Result<_>>()?;

        let sizes = group_sizes(table.cols(), &key_indices);
        let codes: Vec<u32> = sizes
            .per_row
            .iter()
            .map(|&size| if size == 1 { consistent } else { inconsistent })
            .collect();
        let violated = sizes.per_group.iter().filter(|&&size| size > 1);
        let stats = AnnotationStats {
            relation: constraint.relation,
            total_tuples: table.len(),
            inconsistent_tuples: violated.clone().map(|&size| size as usize).sum(),
            violated_keys: violated.count(),
        };
        let cons = ColumnChunk::text(codes, Arc::clone(&flags));
        annotated.push((table.with_column(CONS_COLUMN, DataType::Text, cons)?, stats));
    }

    annotated
        .into_iter()
        .map(|(table, stats)| {
            db.register(table)?;
            Ok(stats)
        })
        .collect()
}

/// `true` when every constrained relation carries a `cons` column.
pub fn is_annotated(db: &Database, sigma: &ConstraintSet) -> bool {
    sigma.iter().all(|c| {
        db.table(&c.relation)
            .map(|t| t.schema().columns.iter().any(|col| col.name == CONS_COLUMN))
            .unwrap_or(false)
    })
}

/// Refuse the annotation-aware rewriting over any of `keys`' relations
/// whose stored `cons` flags no longer match its key groups: a write since
/// [`annotate_database`] left a row flagged `'y'` in a violated group (the
/// annotated rewriting would then keep an answer the plain one drops) or
/// one flagged `'n'` outside every group. Errs with
/// [`RewriteError::StaleAnnotation`] naming the first such relation.
///
/// The flags are checked against the key index at the table's current
/// version — its conflict list, which `INSERT` keeps current — never by a
/// fresh group count, and the verdict is kept beside that index
/// ([`Database::check_key_index`]), so a relation pays the check once per
/// written version, not per query.
pub(crate) fn check_annotations<'k>(
    db: &Database,
    keys: impl IntoIterator<Item = (&'k str, &'k [String])>,
) -> Result<()> {
    let _span = conquer_obs::span("check_annotations");
    for (relation, key) in keys {
        match db.check_key_index(relation, key, flags_match) {
            Some(true) => {}
            Some(false) => return Err(RewriteError::StaleAnnotation(relation.to_string())),
            None => {
                return Err(RewriteError::InvalidConstraint(format!(
                    "cannot check the `{CONS_COLUMN}` flags of `{relation}`: \
                     no key index over ({})",
                    key.join(", ")
                )))
            }
        }
    }
    Ok(())
}

/// Whether exactly the rows of violated key groups are flagged `'n'`, as
/// [`annotate_database`] would flag the table now: the index's conflict list
/// names those rows. (A row with a NULL key is in no index group; the
/// rewriting refuses such a relation before this check runs.)
fn flags_match(table: &Table, index: &Index) -> bool {
    let Ok(cons_at) = table.column_index(CONS_COLUMN) else {
        return false;
    };
    let flagged = flagged_n(index.batch().col(cons_at));
    index.conflict_group_rows().all(|row| flagged[row as usize])
        && flagged.iter().filter(|&&n| n).count() as u64
            == index.conflict_summary().tuples_in_violated_groups
}

/// Per row, whether `cons` holds `'n'`.
fn flagged_n(cons: &ColumnChunk) -> Vec<bool> {
    match &cons.data {
        ColumnData::Text { codes, dict } => match dict.lookup("n") {
            Some(n) => (0..codes.len())
                .map(|i| codes[i] == n && !cons.is_null(i))
                .collect(),
            None => vec![false; codes.len()],
        },
        _ => (0..cons.len())
            .map(|i| matches!(cons.value_at(i), Value::Str(s) if &*s == "n"))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let db = Database::new();
        db.run_script(
            "create table customer (custkey text, acctbal float);
             insert into customer values
               ('c1', 2000), ('c1', 100), ('c2', 2500), ('c3', 2200), ('c3', 2500);",
        )
        .unwrap();
        db
    }

    #[test]
    fn annotates_figure9() {
        // Figure 9: only t3 (c2) is consistent in the customer relation.
        let db = sample_db();
        let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
        let stats = annotate_database(&db, &sigma).unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].total_tuples, 5);
        assert_eq!(stats[0].inconsistent_tuples, 4);
        assert_eq!(stats[0].violated_keys, 2);
        assert!(is_annotated(&db, &sigma));

        let rows = db
            .query("select custkey, cons from customer order by custkey, cons")
            .unwrap();
        let flags: Vec<(String, String)> = rows
            .rows
            .iter()
            .map(|r| (r[0].to_string(), r[1].to_string()))
            .collect();
        assert_eq!(
            flags,
            vec![
                ("c1".into(), "n".into()),
                ("c1".into(), "n".into()),
                ("c2".into(), "y".into()),
                ("c3".into(), "n".into()),
                ("c3".into(), "n".into()),
            ]
        );
    }

    #[test]
    fn rejects_double_annotation() {
        let db = sample_db();
        let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
        annotate_database(&db, &sigma).unwrap();
        assert!(annotate_database(&db, &sigma).is_err());
    }

    #[test]
    fn a_bad_constraint_annotates_nothing() {
        let db = sample_db();
        db.run_script(
            "create table orders (orderkey integer, custkey text);
             insert into orders values (1, 'c1'), (1, 'c2');
             create table nation (nationkey integer, name text);
             insert into nation values (1, 'PERU');",
        )
        .unwrap();
        // The constraints are visited in relation order: `orders` fails
        // after `customer` and `nation` passed.
        let bad = ConstraintSet::new()
            .with_key("customer", ["custkey"])
            .with_key("nation", ["nationkey"])
            .with_key("orders", ["no_such_attribute"]);
        assert!(annotate_database(&db, &bad).is_err());
        for relation in ["customer", "nation", "orders"] {
            let one = ConstraintSet::new().with_key(relation, ["x"]);
            assert!(!is_annotated(&db, &one), "{relation} was annotated");
        }
        // So the corrected set is not met by "already has a `cons` column".
        let good = ConstraintSet::new()
            .with_key("customer", ["custkey"])
            .with_key("nation", ["nationkey"])
            .with_key("orders", ["orderkey"]);
        let stats = annotate_database(&db, &good).unwrap();
        assert_eq!(stats.len(), 3);
        assert!(is_annotated(&db, &good));
        let orders = stats.iter().find(|s| s.relation == "orders").unwrap();
        assert_eq!((orders.inconsistent_tuples, orders.violated_keys), (2, 1));
    }

    #[test]
    fn rejects_missing_relation() {
        let db = sample_db();
        let sigma = ConstraintSet::new().with_key("nope", ["k"]);
        assert!(annotate_database(&db, &sigma).is_err());
    }

    #[test]
    fn composite_keys_annotate_correctly() {
        let db = Database::new();
        db.run_script(
            "create table li (ok integer, ln integer, qty integer);
             insert into li values (1, 1, 10), (1, 2, 20), (1, 2, 30);",
        )
        .unwrap();
        let sigma = ConstraintSet::new().with_key("li", ["ok", "ln"]);
        let stats = annotate_database(&db, &sigma).unwrap();
        assert_eq!(stats[0].inconsistent_tuples, 2);
        assert_eq!(stats[0].violated_keys, 1);
    }

    #[test]
    fn not_annotated_before_pass() {
        let db = sample_db();
        let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
        assert!(!is_annotated(&db, &sigma));
    }
}
