//! The rewrite/plan cache: LRU over (SQL text, strategy), revalidated per
//! table read.
//!
//! A cache entry holds what the parse → rewrite → plan pipeline produces
//! for serving: the physical [`Plan`] of the ConQuer rewriting (of the
//! query as parsed for the `original` strategy) and the table versions its
//! build read. It is the only holder of plans: a session's prepared
//! statement is just its key, `(SQL text, strategy)`. Plans embed `Arc`
//! snapshots of the tables they scan *and* the materialized CTE results the
//! rewritings lean on (Section 6.1 of the paper), so a warm hit skips the
//! entire pipeline including CTE materialization — and, equally, a stale
//! plan would silently serve old data.
//!
//! Validity is one rule: an entry is current iff every base table its
//! build read still has the [version](Database::table_version) it was read
//! at ([`CachedStatement::moved_table`]). The planner records those reads
//! where it resolves a table name, so tables that only feed a CTE body or a
//! subquery — executed at plan time, gone from the finished plan — are
//! covered like any other. A write therefore invalidates the statements
//! that read the written table and nobody else: under a stream of inserts
//! into `t`, statements over other tables keep hitting. A stale entry is
//! dropped at its next lookup, counted in `invalidations` and, by the
//! table that moved, in `invalidated_by`. Every write publishes a new table
//! version, whose statistics its first reader collects, and an index
//! declaration bumps its table's version too, so the same rule also
//! retires plans whose cost-based choices went stale.
//!
//! Concurrency: lookups and inserts take one short mutex; statement
//! *builds* run outside the lock, so a miss never blocks other sessions'
//! hits. Two sessions missing on the same key may both build — the second
//! insert wins, which is wasted work but never wrong (documented
//! thundering-herd tradeoff; the bench workload's hit rate makes it
//! irrelevant after warmup). A write racing a build can only make the
//! recorded version *older* than the data planned against (the engine reads
//! the version first and publishes it last), so such an entry fails its
//! next check and is rebuilt — never the reverse.
//!
//! Build options: entries are shared across sessions but built by
//! whichever session misses first, so the `ExecOptions` passed to
//! [`StatementCache::get_or_build`] must be session-independent — the
//! server passes the engine's defaults, read once when it starts (plus the
//! requesting query's cancellation token, which never shapes the plan),
//! never the session's own `SET` limits. Per-session limits govern
//! execution of the cached plan, not its construction.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use conquer_core::{prepare_rewrite_on, ConstraintSet, RewriteOptions};
use conquer_engine::{Database, Estimator, ExecOptions, Plan, TableReads};
use conquer_sql::parse_query;

use crate::error::ServeError;
use crate::protocol::Strategy;

/// A fully prepared statement, shareable across sessions.
#[derive(Debug)]
pub struct CachedStatement {
    pub sql: String,
    pub strategy: Strategy,
    /// Every base table the build read — in the query body, CTE bodies and
    /// subqueries alike — with the version it was read at.
    pub reads: TableReads,
    /// The physical plan of the ConQuer rewriting (of the query as parsed
    /// for [`Strategy::Original`]), CTEs materialized.
    pub plan: Arc<Plan>,
    /// Total base-table (and materialized-CTE) rows the plan scans —
    /// the "rows in" reported by query traces.
    pub base_rows: u64,
    /// Planner cardinality estimate for the plan root; traces report it
    /// against actual rows out.
    pub est_rows: u64,
}

impl CachedStatement {
    /// The validity rule: the plan may be served iff this is `None`, no
    /// table it read having moved since. Otherwise, the first table read
    /// whose version changed (written, indexed, dropped or re-created).
    pub fn moved_table(&self, db: &Database) -> Option<&str> {
        db.first_moved(&self.reads)
    }
}

/// Build a statement from scratch (the cache-miss path).
pub fn build_statement(
    db: &Database,
    sigma: &ConstraintSet,
    sql: &str,
    strategy: Strategy,
    options: &ExecOptions,
) -> Result<CachedStatement, ServeError> {
    let exec_query = match strategy {
        Strategy::Original => Arc::new(parse_query(sql).map_err(ServeError::Parse)?),
        Strategy::Rewritten | Strategy::Annotated => {
            let opts = RewriteOptions {
                annotated: strategy == Strategy::Annotated,
                ..RewriteOptions::default()
            };
            prepare_rewrite_on(db, sql, sigma, &opts)?.rewritten
        }
    };
    let (plan, reads) = db
        .plan_with_reads(&exec_query, options)
        .map_err(ServeError::Engine)?;
    let base_rows = plan.base_rows();
    let est = Estimator::from_db(db).est_rows(&plan);
    let est_rows = if est.is_finite() && est >= 0.0 {
        est.round() as u64
    } else {
        0
    };
    Ok(CachedStatement {
        sql: sql.to_string(),
        strategy,
        reads,
        plan: Arc::new(plan),
        base_rows,
        est_rows,
    })
}

/// How the cache answered one lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// A current entry was served.
    Hit,
    /// No entry for this (SQL, strategy).
    Miss,
    /// An entry existed but the named table had moved since it was built;
    /// the entry was dropped.
    Stale(String),
}

impl Lookup {
    pub fn is_hit(&self) -> bool {
        matches!(self, Lookup::Hit)
    }

    /// `hit`, `miss` or `stale:<table>` — the flight recorder's `cache`
    /// field.
    pub fn label(&self) -> Cow<'static, str> {
        match self {
            Lookup::Hit => Cow::Borrowed("hit"),
            Lookup::Miss => Cow::Borrowed("miss"),
            Lookup::Stale(table) => Cow::Owned(format!("stale:{table}")),
        }
    }
}

struct Entry {
    stmt: Arc<CachedStatement>,
    last_used: u64,
}

/// Point-in-time cache counters (per instance, not the global registry).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub entries: usize,
    pub capacity: usize,
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub evictions: u64,
    /// `invalidations` split by the table whose move caused each one
    /// (the total is their sum).
    pub invalidated_by: BTreeMap<String, u64>,
}

impl CacheStats {
    /// Hits over lookups, 0.0 when cold.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

const STRATEGIES: usize = 3;

fn slot(strategy: Strategy) -> usize {
    match strategy {
        Strategy::Original => 0,
        Strategy::Rewritten => 1,
        Strategy::Annotated => 2,
    }
}

#[derive(Default)]
struct Inner {
    /// One map per strategy, keyed by SQL text alone, so a lookup probes
    /// with the `&str` it was given instead of building an owned key.
    by_strategy: [HashMap<String, Entry>; STRATEGIES],
    invalidated_by: BTreeMap<String, u64>,
}

impl Inner {
    fn len(&self) -> usize {
        self.by_strategy.iter().map(HashMap::len).sum()
    }
}

/// The shared statement cache, keyed by `(SQL text, strategy)`. An entry
/// whose reads have moved is a miss that also drops the entry.
pub struct StatementCache {
    inner: Mutex<Inner>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Static per-strategy counter names: cache hit/miss rates are compared
/// per answering strategy (the paper's per-strategy overhead claim), and
/// static names keep the hot path free of `format!` allocations.
fn strategy_counter(hit: bool, strategy: Strategy) -> &'static str {
    match (hit, strategy) {
        (true, Strategy::Original) => "serve.cache.hit.original",
        (true, Strategy::Rewritten) => "serve.cache.hit.rewritten",
        (true, Strategy::Annotated) => "serve.cache.hit.annotated",
        (false, Strategy::Original) => "serve.cache.miss.original",
        (false, Strategy::Rewritten) => "serve.cache.miss.rewritten",
        (false, Strategy::Annotated) => "serve.cache.miss.annotated",
    }
}

impl StatementCache {
    pub fn new(capacity: usize) -> StatementCache {
        StatementCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up a statement that is current against `db`.
    pub fn get(
        &self,
        db: &Database,
        sql: &str,
        strategy: Strategy,
    ) -> Option<Arc<CachedStatement>> {
        self.lookup(db, sql, strategy).ok()
    }

    /// [`StatementCache::get`] with the reason for a miss. A
    /// present-but-stale entry is removed and counted as an invalidation
    /// (plus the miss), under the table that moved.
    fn lookup(
        &self,
        db: &Database,
        sql: &str,
        strategy: Strategy,
    ) -> Result<Arc<CachedStatement>, Lookup> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let entries = &mut inner.by_strategy[slot(strategy)];
        let outcome = match entries.get_mut(sql) {
            Some(entry) => match entry.stmt.moved_table(db) {
                None => {
                    entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                    Ok(Arc::clone(&entry.stmt))
                }
                Some(table) => {
                    let table = table.to_string();
                    entries.remove(sql);
                    *inner.invalidated_by.entry(table.clone()).or_default() += 1;
                    Err(Lookup::Stale(table))
                }
            },
            None => Err(Lookup::Miss),
        };
        drop(guard);
        let registry = conquer_obs::registry();
        match &outcome {
            Ok(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                registry.counter("serve.cache.hit").inc();
            }
            Err(miss) => {
                if matches!(miss, Lookup::Stale(_)) {
                    registry.counter("serve.cache.invalidation").inc();
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                registry.counter("serve.cache.miss").inc();
            }
        }
        registry
            .counter(strategy_counter(outcome.is_ok(), strategy))
            .inc();
        outcome
    }

    /// Insert (or replace) a built statement, evicting the least-recently
    /// used entry when over capacity.
    pub fn insert(&self, stmt: Arc<CachedStatement>) {
        let mut inner = self.lock();
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        inner.by_strategy[slot(stmt.strategy)].insert(stmt.sql.clone(), Entry { stmt, last_used });
        let mut evicted = 0u64;
        while inner.len() > self.capacity {
            let Some((oldest_slot, oldest_sql)) = inner
                .by_strategy
                .iter()
                .enumerate()
                .flat_map(|(i, entries)| entries.iter().map(move |(sql, e)| (e.last_used, i, sql)))
                .min_by_key(|(last_used, ..)| *last_used)
                .map(|(_, i, sql)| (i, sql.clone()))
            else {
                break;
            };
            inner.by_strategy[oldest_slot].remove(&oldest_sql);
            evicted += 1;
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            conquer_obs::registry()
                .counter("serve.cache.eviction")
                .add(evicted);
        }
    }

    /// The cache-or-build path sessions use. Returns the statement and how
    /// the lookup went. Builds run outside the cache lock, under `options`
    /// — which must be session-independent (see module docs).
    pub fn get_or_build(
        &self,
        db: &Database,
        sigma: &ConstraintSet,
        sql: &str,
        strategy: Strategy,
        options: &ExecOptions,
    ) -> Result<(Arc<CachedStatement>, Lookup), ServeError> {
        match self.lookup(db, sql, strategy) {
            Ok(stmt) => Ok((stmt, Lookup::Hit)),
            Err(miss) => {
                let stmt = Arc::new(build_statement(db, sigma, sql, strategy, options)?);
                self.insert(Arc::clone(&stmt));
                Ok((stmt, miss))
            }
        }
    }

    pub fn stats(&self) -> CacheStats {
        let (entries, invalidated_by) = {
            let inner = self.lock();
            (inner.len(), inner.invalidated_by.clone())
        };
        CacheStats {
            entries,
            capacity: self.capacity,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: invalidated_by.values().sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidated_by,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_db() -> (Database, ConstraintSet) {
        let db = Database::new();
        db.run_script(
            "create table customer (custkey text, acctbal float);
             insert into customer values ('c1', 2000), ('c1', 100), ('c2', 2500);
             create table audit (note text);",
        )
        .unwrap();
        let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
        (db, sigma)
    }

    const Q: &str = "select custkey from customer where acctbal > 1000";

    #[test]
    fn hit_after_build_and_invalidation_when_a_read_table_moves() {
        let (db, sigma) = tiny_db();
        let cache = StatementCache::new(8);
        let options = ExecOptions::default();

        let (first, lookup) = cache
            .get_or_build(&db, &sigma, Q, Strategy::Rewritten, &options)
            .unwrap();
        assert_eq!(lookup, Lookup::Miss);
        let (second, lookup) = cache
            .get_or_build(&db, &sigma, Q, Strategy::Rewritten, &options)
            .unwrap();
        assert_eq!(lookup, Lookup::Hit);
        assert!(Arc::ptr_eq(&first, &second));

        // A write to a table the statement never read changes nothing.
        db.run_script("insert into audit values ('x')").unwrap();
        let (same, lookup) = cache
            .get_or_build(&db, &sigma, Q, Strategy::Rewritten, &options)
            .unwrap();
        assert_eq!(lookup, Lookup::Hit);
        assert!(Arc::ptr_eq(&first, &same));

        // A write to the table it read: the entry is stale, the rebuild
        // sees the new data, and the cause is on record.
        db.run_script("insert into customer values ('c9', 9000)")
            .unwrap();
        assert_eq!(first.moved_table(&db), Some("customer"));
        let (third, lookup) = cache
            .get_or_build(&db, &sigma, Q, Strategy::Rewritten, &options)
            .unwrap();
        assert_eq!(lookup, Lookup::Stale("customer".to_string()));
        assert_eq!(lookup.label(), "stale:customer");
        assert!(!Arc::ptr_eq(&first, &third));
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.invalidations, 1);
        assert_eq!(
            stats.invalidated_by,
            BTreeMap::from([("customer".to_string(), 1)])
        );
    }

    #[test]
    fn strategies_are_distinct_entries() {
        let (db, sigma) = tiny_db();
        let cache = StatementCache::new(8);
        let options = ExecOptions::default();
        cache
            .get_or_build(&db, &sigma, Q, Strategy::Original, &options)
            .unwrap();
        let (_, lookup) = cache
            .get_or_build(&db, &sigma, Q, Strategy::Rewritten, &options)
            .unwrap();
        assert!(
            !lookup.is_hit(),
            "rewritten must not hit the original entry"
        );
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn lru_eviction_keeps_recent_entries_across_strategies() {
        let (db, sigma) = tiny_db();
        let cache = StatementCache::new(2);
        let options = ExecOptions::default();
        let builds = [
            ("select custkey from customer", Strategy::Original),
            ("select acctbal from customer", Strategy::Rewritten),
            ("select custkey, acctbal from customer", Strategy::Original),
        ];
        for (q, strategy) in builds {
            cache
                .get_or_build(&db, &sigma, q, strategy, &options)
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // The oldest entry is gone, the newer two are hits.
        assert!(cache.get(&db, builds[0].0, builds[0].1).is_none());
        assert!(cache.get(&db, builds[1].0, builds[1].1).is_some());
        assert!(cache.get(&db, builds[2].0, builds[2].1).is_some());
    }

    #[test]
    fn annotated_requires_annotation() {
        let (db, sigma) = tiny_db();
        let cache = StatementCache::new(8);
        let err = cache
            .get_or_build(&db, &sigma, Q, Strategy::Annotated, &ExecOptions::default())
            .unwrap_err();
        assert!(matches!(err, ServeError::Rewrite(_)));
    }
}
