//! SQL front end for the ConQuer consistent-query-answering system.
//!
//! This crate provides a handwritten lexer, a recursive-descent parser, an
//! abstract syntax tree, and a pretty-printer for the SQL dialect that
//! ConQuer consumes (the tree queries of Fuxman, Fazli & Miller, SIGMOD
//! 2005, Definition 4) and the dialect it *emits* (the rewritten queries of
//! Figures 3–8 of the paper: `WITH` common table expressions, `LEFT OUTER
//! JOIN`, `NOT EXISTS`, `UNION ALL`, `GROUP BY`/`HAVING`, `CASE`).
//!
//! The printer and parser round-trip: for every AST `q` produced by the
//! parser, `parse_query(&q.to_string())` yields an equal AST. ConQuer's
//! rewritings rely on this to hand optimized SQL text to any engine.
//!
//! # Example
//!
//! ```
//! use conquer_sql::parse_query;
//!
//! let q = parse_query("select custkey from customer where acctbal > 1000").unwrap();
//! assert_eq!(q.to_string(), "SELECT custkey FROM customer WHERE acctbal > 1000");
//! ```

#![forbid(unsafe_code)]
// The front end parses untrusted SQL text: like the engine, library code
// must surface structured `ParseError`s, never panic. Tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod dates;
pub mod display;
pub mod error;
pub mod lexer;
pub mod parser;

pub use ast::*;
pub use error::{ParseError, Result};

/// Parse a complete SQL query (optionally starting with a `WITH` clause).
///
/// Trailing input after the query (other than a single `;`) is an error.
pub fn parse_query(sql: &str) -> Result<Query> {
    parser::Parser::new(sql)?.parse_query_eof()
}

/// Parse a single SQL statement: a query, `CREATE TABLE`, or `INSERT`.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    parser::Parser::new(sql)?.parse_statement_eof()
}

/// Parse a sequence of `;`-separated SQL statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    parser::Parser::new(sql)?.parse_statements_eof()
}

/// Parse a scalar expression in isolation (useful for tests and tools).
pub fn parse_expr(sql: &str) -> Result<Expr> {
    parser::Parser::new(sql)?.parse_expr_eof()
}
