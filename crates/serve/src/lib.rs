//! # conquer-serve — a concurrent SQL server for the ConQuer stack
//!
//! Exposes the in-process ConQuer pipeline (parse → ConQuer rewrite → plan
//! → execute) to concurrent clients over TCP, with nothing beyond `std`:
//!
//! * **Wire protocol** ([`protocol`]) — length-prefixed JSON frames over
//!   `std::net::TcpStream`; requests carry SQL + a per-query
//!   [`Strategy`]; responses carry schema-complete result sets whose
//!   values round-trip bit-identically (tagged dates and non-finite
//!   floats).
//! * **Serving core** ([`server`], `event`) — an event loop driven by
//!   `poll(2)`: a fixed pool of `io_threads` drivers sleeps until one of
//!   its nonblocking sockets is ready, and a fixed pool of query workers
//!   executes admission-gated requests from a bounded run queue.
//!   Session state (per-connection `ExecOptions` via `SET` — `threads`,
//!   `timeout_ms`, `mem_limit`, `max_rows`, `strategy` — plus prepared
//!   statements) lives in explicit per-connection structs (`state`);
//!   client disconnects surface as EOF on the driver and cancel in-flight
//!   queries through the governor.
//! * **Admission control** ([`admission`]) — a semaphore-bounded run queue
//!   with a queue-wait deadline; overload degrades to a structured `busy`
//!   error instead of a hang.
//! * **Rewrite/plan cache** ([`cache`]) — an LRU over `(SQL, strategy)`
//!   caching the parsed AST, the ConQuer rewriting, and the physical plan
//!   (CTEs materialized). An entry remembers the version of every table
//!   its build read and is served only while all of them stand: a write
//!   invalidates the statements that read the written table, nobody
//!   else's, and stale plans are never served.
//!
//! ```no_run
//! use std::sync::Arc;
//! use conquer_engine::Database;
//! use conquer_core::ConstraintSet;
//! use conquer_serve::{serve, Client, ServerConfig};
//!
//! let db = Arc::new(Database::new());
//! db.run_script("create table t (k text, v int); insert into t values ('a', 1);").unwrap();
//! let sigma = ConstraintSet::new().with_key("t", ["k"]);
//! let server = serve(db, sigma, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! let outcome = client.query("select k from t").unwrap();
//! assert_eq!(outcome.rows.rows.len(), 1);
//! client.quit().unwrap();
//! ```

// The one FFI call (`poll`) lives in `poll`; nothing else may be unsafe.
#![deny(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod error;
#[cfg(unix)]
mod event;
mod metrics_http;
#[cfg(unix)]
#[allow(unsafe_code)]
mod poll;
pub mod protocol;
pub mod server;
mod state;

pub use admission::{Admission, AdmissionStats, Permit};
pub use cache::{CacheStats, CachedStatement, StatementCache};
pub use client::{Client, ClientError};
pub use error::ServeError;
pub use protocol::{ErrorCode, FrameBuf, QueryOutcome, Request, Response, Strategy};
pub use server::{serve, ServerConfig, ServerHandle, Shared};
pub use state::SERVER_VERSION;
