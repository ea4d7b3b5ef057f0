//! # ConQuer: Efficient Management of Inconsistent Databases
//!
//! A complete, from-scratch Rust reproduction of the SIGMOD 2005 paper by
//! Fuxman, Fazli and Miller. This facade crate re-exports the whole stack:
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`sql`] | `conquer-sql` | SQL lexer, parser, AST, printer |
//! | [`engine`] | `conquer-engine` | in-memory relational engine (the DB2 stand-in) |
//! | [`core`](mod@core) | `conquer-core` | the paper's rewritings: `RewriteJoin`, `RewriteAgg`, annotations |
//! | [`repair`] | `conquer-repair` | brute-force repair enumeration (oracle & baseline) |
//! | [`tpch`] | `conquer-tpch` | TPC-H generator, inconsistency injector, benchmark queries |
//!
//! The most common entry points are re-exported at the top level.
//!
//! ```
//! use conquer::{consistent_answers, ConstraintSet, Database};
//!
//! let db = Database::new();
//! db.run_script(
//!     "create table customer (custkey text, acctbal float);
//!      insert into customer values ('c1', 2000), ('c1', 100), ('c2', 2500);",
//! ).unwrap();
//! let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
//! let rows = consistent_answers(
//!     &db, "select custkey from customer where acctbal > 1000", &sigma,
//! ).unwrap();
//! assert_eq!(rows.len(), 1); // only c2 is certain
//! ```

#![forbid(unsafe_code)]

pub use conquer_core as core;
pub use conquer_engine as engine;
pub use conquer_repair as repair;
pub use conquer_sql as sql;
pub use conquer_tpch as tpch;

pub use conquer_core::{
    analyze, annotate_database, consistent_answers, consistent_answers_annotated,
    consistent_answers_annotated_with, consistent_answers_with, declare_key_indexes, is_annotated,
    parse_sql, possible_answers, prepare_rewrite, prepare_rewrite_on, rewrite, rewrite_sql,
    rewrite_tree, AnnotationStats, ConstraintSet, KeyConstraint, PreparedRewrite, RewriteError,
    RewriteOptions, TreeQuery,
};
pub use conquer_engine::{
    CancellationToken, Checkpointer, ConflictSummary, Database, DurabilityOptions, EngineError,
    ExecOptions, LimitTrip, ResourceLimits, Rows, StoreStatus, SyncPolicy, Table, Value,
};
pub use conquer_repair::{
    answers_with_support, consistent_answers_oracle, possible_answers_oracle,
    range_consistent_oracle, RangeAnswer, RepairEnumerator,
};
pub use conquer_sql::{parse_query, parse_statements};
