//! # ConQuer — Consistent Querying over inconsistent databases
//!
//! A from-scratch reproduction of *ConQuer: Efficient Management of
//! Inconsistent Databases* (Fuxman, Fazli & Miller, SIGMOD 2005).
//!
//! Given a SQL **tree query** (Definition 4 of the paper) and a set of
//! **key query constraints** (at most one key per relation), ConQuer
//! rewrites the query into another SQL query whose answers are exactly the
//! **consistent answers**: the tuples returned by the original query in
//! *every repair* of the database, where a repair keeps exactly one tuple
//! per key value. For queries with aggregation, the rewriting returns
//! **range-consistent answers** — tight `[min, max]` bounds across repairs
//! (Definition 5).
//!
//! Everything is purely declarative: SQL in, SQL out, with a single level
//! of nesting, so a commercial engine can optimize and execute the result.
//!
//! ```
//! use conquer_core::{consistent_answers, ConstraintSet};
//! use conquer_engine::Database;
//!
//! // The inconsistent instance of Figure 1 of the paper.
//! let db = Database::new();
//! db.run_script(
//!     "create table customer (custkey text, acctbal float);
//!      insert into customer values
//!        ('c1', 2000), ('c1', 100), ('c2', 2500), ('c3', 2200), ('c3', 2500);",
//! ).unwrap();
//!
//! let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
//! let rows = consistent_answers(
//!     &db,
//!     "select custkey from customer where acctbal > 1000",
//!     &sigma,
//! ).unwrap();
//! // c1 is not consistent (one of its tuples has balance 100);
//! // c3 is consistent exactly once (both tuples satisfy the query).
//! let mut answers: Vec<String> = rows.rows.iter().map(|r| r[0].to_string()).collect();
//! answers.sort();
//! assert_eq!(answers, vec!["c2", "c3"]);
//! ```

#![forbid(unsafe_code)]

pub mod analyze;
pub mod annotations;
pub mod api;
pub mod constraints;
pub mod error;
pub mod rewrite_agg;
pub mod rewrite_join;

pub use analyze::{analyze, AggKind, ProjItem, TreeQuery};
pub use annotations::{annotate_database, is_annotated, AnnotationStats};
pub use api::{
    consistent_answers, consistent_answers_annotated, consistent_answers_annotated_with,
    consistent_answers_with, declare_key_indexes, parse_sql, possible_answers, prepare_rewrite,
    prepare_rewrite_on, rewrite, rewrite_sql, rewrite_tree, PreparedRewrite,
};
pub use constraints::{ConstraintSet, KeyConstraint};
pub use error::{Result, RewriteError};
pub use rewrite_join::RewriteOptions;
