//! TPC-H-style workload for the ConQuer evaluation (Section 6 of the
//! paper): schema, a deterministic `dbgen` substitute, the inconsistency
//! injector parameterized by `p` and `n`, and the six benchmark queries.
//!
//! ```
//! use conquer_tpch::{build_workload, WorkloadConfig};
//!
//! let workload = build_workload(&WorkloadConfig {
//!     scale_factor: 0.001,
//!     p: 0.05,
//!     n: 2,
//!     seed: 42,
//!     annotate: true,
//!     ..WorkloadConfig::default()
//! });
//! assert_eq!(workload.db.table("customer").unwrap().len(), 150);
//! assert!(workload.injection.iter().any(|s| s.inconsistent_tuples > 0));
//! ```

#![forbid(unsafe_code)]

pub mod gen;
pub mod inject;
pub mod queries;
pub mod rng;
pub mod schema;

pub use gen::{generate_database, GenConfig};
pub use inject::{inject_database, inject_table, InjectionStats};
pub use queries::{all_queries, BenchmarkQuery, Selectivity, Q1, Q10, Q12, Q3, Q4, Q6};
pub use schema::{benchmark_constraints, create_tables, key_constraints, TABLES};

use conquer_core::{annotate_database, declare_key_indexes, AnnotationStats, ConstraintSet};
use conquer_engine::Database;

/// Configuration of a complete benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// TPC-H scale factor.
    pub scale_factor: f64,
    /// Fraction of tuples violating the key constraints (0.0–1.0).
    pub p: f64,
    /// Tuples per violated key value (>= 2 unless `p` is 0).
    pub n: usize,
    /// RNG seed for generation and injection.
    pub seed: u64,
    /// Generator threads.
    pub threads: usize,
    /// Run the offline annotation pass (Section 5) after injection.
    pub annotate: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            scale_factor: 0.01,
            p: 0.05,
            n: 2,
            seed: 42,
            threads: 4,
            annotate: false,
        }
    }
}

/// A generated, injected (and optionally annotated) benchmark database.
pub struct Workload {
    pub db: Database,
    pub sigma: ConstraintSet,
    pub injection: Vec<InjectionStats>,
    pub annotation: Option<Vec<AnnotationStats>>,
}

/// Build a workload: generate consistent TPC-H data, inject inconsistency
/// into the relations used by the benchmark queries, and optionally
/// annotate.
pub fn build_workload(config: &WorkloadConfig) -> Workload {
    let db = generate_database(&GenConfig {
        scale_factor: config.scale_factor,
        seed: config.seed,
        threads: config.threads,
    });
    let sigma = benchmark_constraints();
    let injection = inject_database(&db, &sigma, config.p, config.n, config.seed);
    let annotation = config
        .annotate
        .then(|| annotate_database(&db, &sigma).expect("annotation succeeds"));
    // Declare (not build) a secondary index on each relation's key columns
    // — the access path the rewritings' key self-joins probe. The first
    // query that plans against a table builds its index.
    declare_key_indexes(&db, &sigma);
    Workload {
        db,
        sigma,
        injection,
        annotation,
    }
}
