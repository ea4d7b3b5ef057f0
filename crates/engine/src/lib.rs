//! An in-memory relational engine with bag semantics, used as the execution
//! substrate for the ConQuer consistent-query-answering system.
//!
//! The paper (Fuxman, Fazli & Miller, SIGMOD 2005) runs its rewritten SQL on
//! DB2; this crate plays that role. It executes the full dialect that
//! ConQuer consumes and emits: select-project-join with inner and left outer
//! joins, grouping and aggregation (`SUM`/`MIN`/`MAX`/`COUNT`/`AVG`),
//! `DISTINCT`, `WITH` common table expressions (materialized once per query,
//! as Section 6.1 of the paper prescribes), `UNION ALL`, and correlated
//! `EXISTS`/`NOT EXISTS` subqueries — which the planner decorrelates into
//! hash semi/anti joins, the optimization a production engine would apply to
//! ConQuer's rewritings.
//!
//! # Example
//!
//! ```
//! use conquer_engine::Database;
//!
//! let db = Database::new();
//! db.run_script(
//!     "create table customer (custkey integer, acctbal float);
//!      insert into customer values (1, 2000), (1, 100), (2, 2500);",
//! ).unwrap();
//! let rows = db.query("select custkey from customer where acctbal > 1000").unwrap();
//! assert_eq!(rows.len(), 2);
//! ```
//!
//! # Resource governance
//!
//! Queries run under an optional [`ResourceLimits`] budget (wall-clock
//! timeout, row cap, memory cap) with a shareable [`CancellationToken`];
//! every physical operator checks the budget cooperatively and unwinds with
//! a structured [`EngineError`] carrying a [`LimitTrip`] snapshot. See
//! [`governor`] and `DESIGN.md` §7.

#![forbid(unsafe_code)]
// The query path must never panic on user input: unwrap/expect are banned
// in shipping code (tests are exempt — unit-test modules compile under
// cfg(test); integration tests and benches are separate crates).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod col;
pub mod cost;
pub mod database;
pub mod durable;
pub mod error;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod faults;
pub mod fsum;
pub mod governor;
pub mod groupkey;
pub mod index;
pub mod kernels;
pub mod opt;
pub mod plan;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use col::{ColBatch, ColumnChunk, ColumnData, TextDict};
pub use conquer_storage::{StoreStatus, SyncPolicy};
pub use cost::Estimator;
pub use database::{Database, TableReads};
pub use durable::{Checkpointer, DurabilityOptions};
pub use error::{EngineError, Result};
pub use explain::{
    ctes_json, explain_analyze, explain_analyze_ctes, explain_estimated, stats_json,
};
pub use governor::{CancellationToken, Governor, LimitTrip, ResourceLimits};
pub use index::{ConflictSummary, Index, IndexAccess};
pub use plan::{CteTrace, ExecOptions, Plan};
pub use schema::{Column, DataType, Schema};
pub use stats::{ColumnStats, NodeStats, TableStats};
pub use table::{Row, Rows, Table};
pub use value::Value;
