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

use std::collections::HashMap;

use conquer_engine::{DataType, Database, Value};

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
/// has a `cons` column, or lacks one of its key attributes.
pub fn annotate_database(db: &Database, sigma: &ConstraintSet) -> Result<Vec<AnnotationStats>> {
    let mut stats = Vec::new();
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

        // First pass: count occurrences of each key value.
        let mut counts: HashMap<conquer_engine::value::Key, u32> =
            HashMap::with_capacity(table.len());
        for row in 0..table.len() {
            let key_vals: Vec<Value> = key_indices
                .iter()
                .map(|i| table.cols().col(*i).value_at(row))
                .collect();
            *counts
                .entry(conquer_engine::value::Key::from_values(&key_vals))
                .or_insert(0) += 1;
        }
        let violated_keys = counts.values().filter(|c| **c > 1).count();

        // Second pass: attach the flag.
        let mut inconsistent = 0usize;
        let annotated = table.with_computed_column(CONS_COLUMN, DataType::Text, |row| {
            let key_vals: Vec<Value> = key_indices.iter().map(|i| row[*i].clone()).collect();
            let unique = counts[&conquer_engine::value::Key::from_values(&key_vals)] == 1;
            if unique {
                Value::str("y")
            } else {
                inconsistent += 1;
                Value::str("n")
            }
        });
        db.register(annotated)?;
        stats.push(AnnotationStats {
            relation: constraint.relation.clone(),
            total_tuples: table.len(),
            inconsistent_tuples: inconsistent,
            violated_keys,
        });
    }
    Ok(stats)
}

/// `true` when every constrained relation carries a `cons` column.
pub fn is_annotated(db: &Database, sigma: &ConstraintSet) -> bool {
    sigma.iter().all(|c| {
        db.table(&c.relation)
            .map(|t| t.schema().columns.iter().any(|col| col.name == CONS_COLUMN))
            .unwrap_or(false)
    })
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
