//! The database: a catalog of named tables plus the query entry points.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use std::sync::{Mutex, RwLock};

use std::path::Path;

use conquer_sql::ast::{Expr, Query, Statement};
use conquer_sql::{parse_query, parse_statements};
use conquer_storage::{Store, StoreOptions, StoreStatus, WalRecord};

use crate::col::ColBatch;
use crate::durable::{
    self, Durability, DurabilityOptions, KIND_CREATE, KIND_DROP, KIND_INDEX, KIND_INSERT,
    KIND_SNAPSHOT,
};
use crate::error::{EngineError, Result};
use crate::exec;
use crate::governor::Governor;
use crate::index::{ConflictSummary, Index};
use crate::plan::{CteTrace, ExecOptions, Plan, Planner};
use crate::schema::DataType;
use crate::stats::TableStats;
use crate::table::{Row, Rows, Table};
use crate::value::Value;

/// Recover a lock even if a previous holder panicked: the catalog maps are
/// valid after any interrupted operation (worst case a stale scan cache
/// entry, which is overwritten on next use).
fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// One declared secondary index: the key column names, plus the built
/// postings once the lazy build has run. `built` always refers to a batch
/// the scan cache handed out; `Arc::ptr_eq` against the current cached
/// batch is the validity check (exactly the scan-cache revalidation
/// idiom).
struct IndexSlot {
    cols: Vec<String>,
    built: Option<Arc<Index>>,
}

/// The base tables one planning pass read, each with the
/// [version](Database::table_version) it was read at. The planner records
/// an entry at its single base-table resolution point, which also sees
/// tables referenced only inside CTE bodies and subqueries — those are
/// executed at plan time and leave no trace in the finished [`Plan`]. A
/// plan (with the snapshots and CTE results it embeds) is current exactly
/// while [`Database::first_moved`] finds none of its reads moved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableReads(Vec<(String, u64)>);

impl TableReads {
    /// Record one resolved table reference. A table referenced twice at
    /// the same version is kept once; two versions of one table (a write
    /// raced the planning pass) are both kept, so the plan is already
    /// stale — which is the truth.
    pub(crate) fn record(&mut self, table: &str, version: u64) {
        if !self.0.iter().any(|(t, v)| t == table && *v == version) {
            self.0.push((table.to_string(), version));
        }
    }

    /// `(table, version)` in first-reference order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.0.iter().map(|(t, v)| (t.as_str(), *v))
    }
}

/// An in-memory database: thread-safe catalog of tables.
///
/// Reads (queries) take a read lock only long enough to snapshot `Arc`s to
/// the tables they touch, so concurrent query execution over a shared
/// `&Database` is cheap. Scan-ready row batches are cached per table and
/// invalidated on registration, so repeated references to a table (within
/// one query or across queries) share a single `Arc<Rows>`.
///
/// The database is `Send + Sync` and designed to be shared as
/// `Arc<Database>` across many session threads (the read-mostly contract
/// `conquer-serve` relies on): all interior mutability is behind the
/// `RwLock`ed catalog maps plus the epoch atomic that
/// [table versions](Database::table_version) are drawn from, queries never
/// hold a lock across execution, and writers
/// (`register`/`drop_table`) swap whole `Arc<Table>`s, so in-flight queries
/// keep the snapshot they planned against.
///
/// Statement-level mutations (`CREATE TABLE`'s existence check, `INSERT`'s
/// clone-push-register) are read-modify-write sequences, not single swaps;
/// they serialize on the dedicated `mutation` mutex so concurrent scripts
/// from different sessions can neither lose rows nor both "create" the
/// same table.
#[derive(Default)]
pub struct Database {
    tables: RwLock<BTreeMap<String, Arc<Table>>>,
    scan_cache: RwLock<BTreeMap<String, Arc<ColBatch>>>,
    /// Declared secondary indexes per table. Declarations are catalog
    /// state (durable, epoch-bumping); the built postings are a cache,
    /// (re)materialized lazily by [`Database::indexes_by_scan`] and
    /// maintained incrementally by `INSERT`.
    indexes: RwLock<BTreeMap<String, Vec<IndexSlot>>>,
    /// Per-table statistics for the cost-based planner, collected eagerly
    /// on every `register` (so they are never stale relative to the data).
    table_stats: RwLock<BTreeMap<String, Arc<TableStats>>>,
    /// Serializes read-modify-write catalog mutations (`insert`, `CREATE
    /// TABLE`). Plain `register`/`drop_table` are single atomic swaps and
    /// don't need it.
    mutation: Mutex<()>,
    /// Bumped on every catalog mutation (`register`, `drop_table`,
    /// `create_index`). Each bump's value becomes the mutated table's
    /// version, so versions are unique across tables and never reused.
    epoch: AtomicU64,
    /// The version each live table was last mutated at (see
    /// [`Database::table_version`]). Written *last* in every mutation,
    /// after the table swap, the scan-cache clear and the index unbuild.
    versions: RwLock<BTreeMap<String, u64>>,
    /// The durable half, when this database was opened with
    /// [`Database::open`]: every catalog mutation is logged to the WAL
    /// before it is applied, and checkpoints snapshot the catalog into
    /// immutable segments. `None` for plain in-memory databases.
    durability: Option<Durability>,
}

/// The shared-session contract: queries run against `&Database` from many
/// threads concurrently.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
};

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    /// Open a durable database rooted at `dir`: recover the catalog from
    /// the manifest, segments, and WAL tail, then log every subsequent
    /// mutation write-ahead. Recovery tolerates a torn or truncated final
    /// WAL record (the unsynced tail is dropped, never half-applied) and
    /// is idempotent — a crash during recovery or checkpointing recovers
    /// cleanly on the next open.
    pub fn open(dir: &Path, options: DurabilityOptions) -> Result<Database> {
        durable::install_fault_hook();
        let (store, recovered) =
            Store::open(dir, StoreOptions { sync: options.sync }).map_err(durable::storage_err)?;
        let mut db = Database::new();
        // Segments first: each is a full-table snapshot with its stats
        // restored verbatim (annotations are stored columns, so they come
        // back with the rows — nothing is recomputed).
        // Index *declarations* ride along in each snapshot; the postings
        // are deliberately not persisted. Declarations come back unbuilt
        // and the first query that plans against the table rebuilds them
        // lazily, so cold-boot recovery time does not depend on indexes.
        for seg in &recovered.segments {
            let (table, stats, indexes) = durable::decode_snapshot(&seg.payload)?;
            let name = table.name().to_string();
            db.apply_register(table, Arc::new(stats));
            for cols in indexes {
                db.apply_create_index(&name, cols);
            }
        }
        // The epoch as of the checkpoint, so the counter is continuous
        // across restarts. `fetch_max` because the segment loads above
        // already drew versions from it and none may ever be reissued.
        // Other keys (manifests written before table versions carry a
        // `stats_epoch`) are ignored.
        for (key, value) in &recovered.meta {
            if key == "catalog_epoch" {
                db.epoch.fetch_max(*value, Ordering::AcqRel);
            }
        }
        // Then the WAL tail. Each record replays as exactly one apply (one
        // epoch bump), mirroring the original mutation, so the recovered
        // epochs land exactly where they were before the crash.
        // Replayed inserts carry their table's statistics over unchanged;
        // the tables they touched (`stale`) are collected once each when
        // the tail ends, not once per record.
        let mut stale = BTreeSet::new();
        for record in &recovered.wal_records {
            db.apply_wal_record(record, &mut stale)?;
        }
        for name in stale {
            // A later record may have dropped the table.
            if let Ok(table) = db.table(&name) {
                let stats = Arc::new(TableStats::collect(table.cols()));
                write_lock(&db.table_stats).insert(name, stats);
            }
        }
        db.durability = Some(Durability {
            store,
            checkpoint_wal_bytes: options.checkpoint_wal_bytes,
        });
        Ok(db)
    }

    /// Whether this database persists mutations (opened via
    /// [`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// WAL/checkpoint progress for status endpoints; `None` when not
    /// durable.
    pub fn storage_status(&self) -> Option<StoreStatus> {
        self.durability.as_ref().map(|d| d.store.status())
    }

    /// Register (or replace) a table. Bumps the table's version; on a
    /// durable database the full table is logged (as a snapshot record)
    /// before the in-memory swap, so annotation recomputes and bulk loads
    /// survive a crash.
    pub fn register(&self, table: Table) -> Result<()> {
        let _mutation = self.mutation_lock();
        self.register_locked(table)
    }

    /// [`Database::register`] with the mutation mutex already held (the
    /// `INSERT`/`CREATE` paths and recovery hold it across their whole
    /// read-modify-write sequence).
    fn register_locked(&self, table: Table) -> Result<()> {
        let stats = Arc::new(TableStats::collect(table.cols()));
        if self.durability.is_some() {
            let decls = self.declared_indexes(table.name());
            self.log(
                KIND_SNAPSHOT,
                &durable::encode_snapshot(&table, &stats, &decls),
            )?;
        }
        self.apply_register(table, stats);
        self.maybe_auto_checkpoint()
    }

    /// Remove a table; returns it if present. Bumps the catalog epoch and
    /// retires the table's version when the table existed; logged
    /// write-ahead on durable databases.
    pub fn drop_table(&self, name: &str) -> Result<Option<Arc<Table>>> {
        let _mutation = self.mutation_lock();
        if !read_lock(&self.tables).contains_key(name) {
            return Ok(None);
        }
        if self.durability.is_some() {
            self.log(KIND_DROP, &durable::encode_drop(name))?;
        }
        let dropped = self.apply_drop(name);
        self.maybe_auto_checkpoint()?;
        Ok(dropped)
    }

    /// Apply a table swap to the in-memory catalog (no logging — callers
    /// log first).
    ///
    /// Ordering matters: the table swap happens *before* the scan-cache
    /// clear. A concurrent [`Database::table_cols`] miss that read the old
    /// `Arc<Table>` either inserts its rows before the clear (and the clear
    /// wipes them) or revalidates after the swap (and sees the table
    /// changed, so it skips the insert — see `table_cols`). Either way no
    /// pre-swap rows can sit in the scan cache once the table's new
    /// version is observable, which is what lets plan caches trust the
    /// version check. Stats are installed before the version for the same
    /// reason: a plan that recorded the new version was costed against the
    /// new statistics.
    fn apply_register(&self, table: Table, stats: Arc<TableStats>) {
        let name = table.name().to_string();
        write_lock(&self.tables).insert(name.clone(), Arc::new(table));
        write_lock(&self.table_stats).insert(name.clone(), stats);
        write_lock(&self.scan_cache).remove(&name);
        // Unbuild (not undeclare) the table's indexes — their postings
        // describe the replaced data. This must follow the scan-cache
        // clear: a concurrent lazy build revalidates against the cache
        // under the indexes lock, so clearing first guarantees any build
        // it stores afterwards is either over the new batch or wiped here.
        if let Some(slots) = write_lock(&self.indexes).get_mut(&name) {
            for slot in slots.iter_mut() {
                slot.built = None;
            }
        }
        self.bump_version(&name);
    }

    /// Publish a mutation of `table`: draw the next value of the epoch
    /// counter and make it the table's version. Every mutation calls this
    /// last, so a reader that observes the new version also observes
    /// everything the mutation wrote.
    fn bump_version(&self, table: &str) {
        let version = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        write_lock(&self.versions).insert(table.to_string(), version);
    }

    /// Apply a drop to the in-memory catalog. Same swap-then-clear
    /// ordering as [`Database::apply_register`].
    fn apply_drop(&self, name: &str) -> Option<Arc<Table>> {
        let dropped = write_lock(&self.tables).remove(name);
        write_lock(&self.table_stats).remove(name);
        write_lock(&self.scan_cache).remove(name);
        // Dropping a table drops its index declarations with it.
        write_lock(&self.indexes).remove(name);
        if dropped.is_some() {
            self.epoch.fetch_add(1, Ordering::AcqRel);
            write_lock(&self.versions).remove(name);
        }
        dropped
    }

    /// Replay one recovered WAL record against the in-memory catalog.
    /// An insert adds its table to `stale`: the statistics it leaves
    /// installed predate the rows it replayed.
    fn apply_wal_record(&self, record: &WalRecord, stale: &mut BTreeSet<String>) -> Result<()> {
        match record.kind {
            KIND_CREATE => {
                let (name, schema) = durable::decode_create(&record.payload)?;
                let cols = ColBatch::from_schema(&schema);
                let table = Table::from_parts(name, schema, cols);
                let stats = Arc::new(TableStats::collect(table.cols()));
                self.apply_register(table, stats);
                Ok(())
            }
            KIND_INSERT => {
                let (name, rows) = durable::decode_insert(&record.payload)?;
                let current = self.table(&name).map_err(|_| {
                    EngineError::Storage(format!(
                        "WAL insert into unknown table `{name}` (seq {})",
                        record.seq
                    ))
                })?;
                let mut table = (*current).clone();
                for row in rows {
                    table.push(row)?;
                }
                let stats = self.table_stats(&name).ok_or_else(|| {
                    EngineError::Storage(format!("table `{name}` has no statistics"))
                })?;
                self.apply_register(table, stats);
                stale.insert(name);
                Ok(())
            }
            KIND_SNAPSHOT => {
                let (table, stats, indexes) = durable::decode_snapshot(&record.payload)?;
                let name = table.name().to_string();
                self.apply_register(table, Arc::new(stats));
                for cols in indexes {
                    self.apply_create_index(&name, cols);
                }
                Ok(())
            }
            KIND_DROP => {
                let name = durable::decode_drop(&record.payload)?;
                self.apply_drop(&name);
                Ok(())
            }
            KIND_INDEX => {
                let (name, cols) = durable::decode_index(&record.payload)?;
                self.apply_create_index(&name, cols);
                Ok(())
            }
            other => Err(EngineError::Storage(format!(
                "unknown WAL record kind {other} (seq {})",
                record.seq
            ))),
        }
    }

    /// Append a record to the WAL (before the matching in-memory apply).
    fn log(&self, kind: u8, payload: &[u8]) -> Result<()> {
        if let Some(d) = &self.durability {
            d.store
                .append(kind, payload)
                .map_err(durable::storage_err)?;
        }
        Ok(())
    }

    /// Checkpoint inline when the WAL has outgrown the configured
    /// threshold. Called with the mutation mutex held, so no mutation can
    /// sit between its WAL append and its in-memory apply while the
    /// checkpoint snapshots the catalog.
    fn maybe_auto_checkpoint(&self) -> Result<()> {
        if let Some(d) = &self.durability {
            if d.checkpoint_wal_bytes > 0 && d.store.wal_bytes() >= d.checkpoint_wal_bytes {
                self.checkpoint_locked()?;
            }
        }
        Ok(())
    }

    /// Write a checkpoint now: every table (with its annotations — they
    /// are stored columns — and its stats) becomes an immutable segment, a
    /// new manifest commits the set atomically, and the WAL restarts
    /// empty. Returns `Ok(false)` on a non-durable database.
    pub fn checkpoint(&self) -> Result<bool> {
        if self.durability.is_none() {
            return Ok(false);
        }
        let _mutation = self.mutation_lock();
        self.checkpoint_locked()?;
        Ok(true)
    }

    /// Checkpoint only if the WAL holds records (the background
    /// checkpointer's cheap periodic call). Returns whether a checkpoint
    /// was written.
    pub fn checkpoint_if_dirty(&self) -> Result<bool> {
        let Some(d) = &self.durability else {
            return Ok(false);
        };
        // 8 bytes = the WAL file magic; anything beyond it is a record.
        if d.store.wal_bytes() <= 8 {
            return Ok(false);
        }
        let _mutation = self.mutation_lock();
        if d.store.wal_bytes() <= 8 {
            return Ok(false);
        }
        self.checkpoint_locked()?;
        Ok(true)
    }

    fn checkpoint_locked(&self) -> Result<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        let tables: Vec<(String, Arc<Table>)> = read_lock(&self.tables)
            .iter()
            .map(|(name, t)| (name.clone(), Arc::clone(t)))
            .collect();
        let stats = read_lock(&self.table_stats).clone();
        let payloads: Vec<(String, Vec<u8>)> = tables
            .iter()
            .map(|(name, table)| {
                let table_stats = stats
                    .get(name)
                    .map(Arc::as_ref)
                    .cloned()
                    .unwrap_or_else(|| TableStats::collect(table.cols()));
                let decls = self.declared_indexes(name);
                (
                    name.clone(),
                    durable::encode_snapshot(table, &table_stats, &decls),
                )
            })
            .collect();
        let meta = [("catalog_epoch".to_string(), self.catalog_epoch())];
        d.store
            .checkpoint(&payloads, &meta)
            .map_err(durable::storage_err)
    }

    /// fsync the WAL regardless of sync policy (graceful shutdown). No-op
    /// on non-durable databases.
    pub fn flush(&self) -> Result<()> {
        if let Some(d) = &self.durability {
            d.store.sync().map_err(durable::storage_err)?;
        }
        Ok(())
    }

    /// Tick the `interval_ms` sync policy (the background checkpointer
    /// calls this so the interval holds even without appends).
    pub fn flush_if_due(&self) -> Result<()> {
        if let Some(d) = &self.durability {
            d.store.maybe_sync().map_err(durable::storage_err)?;
        }
        Ok(())
    }

    /// The catalog epoch: a counter bumped on every catalog mutation, of
    /// any table. A coarse "did anything change" signal for status
    /// endpoints; plan caches validate per table with
    /// [`Database::first_moved`] instead.
    pub fn catalog_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The version of a table: the value the epoch counter took at the
    /// table's last mutation (`register`/`INSERT`, `CREATE INDEX`), `None`
    /// when no such table exists. Versions are never reused, so a table
    /// dropped and re-created under the same name has a strictly greater
    /// version than it ever had before. Statistics are collected inside
    /// `register`, so the version covers them too.
    pub fn table_version(&self, name: &str) -> Option<u64> {
        read_lock(&self.versions).get(name).copied()
    }

    /// The first table in `reads` whose version is no longer the recorded
    /// one (mutated, dropped, or dropped and re-created), `None` when
    /// every plan built from those reads is still current. One lock
    /// acquisition however many tables were read.
    pub fn first_moved<'r>(&self, reads: &'r TableReads) -> Option<&'r str> {
        let versions = read_lock(&self.versions);
        reads
            .0
            .iter()
            .find(|(name, version)| versions.get(name) != Some(version))
            .map(|(name, _)| name.as_str())
    }

    /// One base-table read for the planner: the table, its scan-ready
    /// batch, and a version that is never newer than either. The version
    /// is read *first* and mutations publish theirs *last*, so a racing
    /// mutation can only make the recorded version older than the data
    /// planned against — the plan is then rebuilt once more than needed,
    /// never served stale.
    pub(crate) fn scan_snapshot(&self, name: &str) -> Result<(Arc<Table>, Arc<ColBatch>, u64)> {
        let version = self
            .table_version(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        let table = self.table(name)?;
        let cols = self.table_cols(name)?;
        Ok((table, cols, version))
    }

    /// Statistics for a table, as collected at its last registration.
    /// `None` for unknown tables.
    pub fn table_stats(&self, name: &str) -> Option<Arc<TableStats>> {
        read_lock(&self.table_stats).get(name).cloned()
    }

    /// Snapshot mapping each cached scan batch (by `Arc<ColBatch>` pointer
    /// identity) to its table's statistics. Plans hold the same `Arc`s the
    /// scan cache handed out, so the cost estimator can recover base-table
    /// stats from a bare `Plan::Scan` node. Tables whose rows were never
    /// scanned have no entry (nothing can reference them from a plan).
    pub(crate) fn stats_by_scan(&self) -> std::collections::HashMap<usize, Arc<TableStats>> {
        let cache = read_lock(&self.scan_cache);
        let stats = read_lock(&self.table_stats);
        cache
            .iter()
            .filter_map(|(name, cols)| {
                stats
                    .get(name)
                    .map(|s| (Arc::as_ptr(cols) as *const () as usize, Arc::clone(s)))
            })
            .collect()
    }

    /// Declare a secondary index on `table` over `cols` (column order
    /// matters: multi-column probes present values in index order).
    /// Returns `Ok(false)` when an identical declaration already exists —
    /// re-declaring is a no-op that bumps nothing.
    ///
    /// The postings are *not* built here. The first query that plans
    /// against the table builds them lazily (see
    /// [`Database::indexes_by_scan`]); the declaration itself is a
    /// durable catalog mutation that bumps the table's version like any
    /// other DDL, so cached plans that read the table are rebuilt and get
    /// to consider the new access path.
    pub fn create_index(&self, table: &str, cols: &[&str]) -> Result<bool> {
        let col_names: Vec<String> = cols.iter().map(|c| (*c).to_string()).collect();
        let declared = || {
            read_lock(&self.indexes)
                .get(table)
                .is_some_and(|slots| slots.iter().any(|s| s.cols == col_names))
        };
        // Read paths re-declare on every call (`consistent_answers*`):
        // answer them without queueing behind a writer.
        if declared() {
            return Ok(false);
        }
        let _mutation = self.mutation_lock();
        let t = self.table(table)?;
        for c in cols {
            t.column_index(c)?;
        }
        if declared() {
            return Ok(false);
        }
        if self.durability.is_some() {
            self.log(KIND_INDEX, &durable::encode_index(table, &col_names))?;
        }
        self.apply_create_index(table, col_names);
        self.maybe_auto_checkpoint()?;
        Ok(true)
    }

    /// Install an index declaration (no logging — callers log first).
    /// Idempotent: an already-declared column list changes nothing and
    /// bumps nothing.
    fn apply_create_index(&self, table: &str, cols: Vec<String>) {
        {
            let mut map = write_lock(&self.indexes);
            let slots = map.entry(table.to_string()).or_default();
            if slots.iter().any(|s| s.cols == cols) {
                return;
            }
            slots.push(IndexSlot { cols, built: None });
        }
        self.bump_version(table);
    }

    /// Declared index key-column lists for a table, built or not.
    pub fn declared_indexes(&self, table: &str) -> Vec<Vec<String>> {
        read_lock(&self.indexes)
            .get(table)
            .map(|slots| slots.iter().map(|s| s.cols.clone()).collect())
            .unwrap_or_default()
    }

    /// One row per declared index: `(table, key columns, built)`. `built`
    /// reports whether postings over the table's *current* scan snapshot
    /// exist — after crash recovery this is `false` for every index until
    /// a query plans against the table and triggers the lazy rebuild.
    pub fn index_status(&self) -> Vec<(String, Vec<String>, bool)> {
        let cache = read_lock(&self.scan_cache).clone();
        read_lock(&self.indexes)
            .iter()
            .flat_map(|(table, slots)| {
                slots
                    .iter()
                    .map(|s| {
                        let current = cache.get(table).is_some_and(|b| {
                            s.built.as_ref().is_some_and(|i| Arc::ptr_eq(i.batch(), b))
                        });
                        (table.clone(), s.cols.clone(), current)
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// The index declared on `table` over `cols`, if it is built over the
    /// table's current scan snapshot — what `index_status` reports as
    /// `built`. Never builds one.
    pub fn built_index(&self, table: &str, cols: &[String]) -> Option<Arc<Index>> {
        let current = read_lock(&self.scan_cache).get(table).cloned()?;
        read_lock(&self.indexes)
            .get(table)?
            .iter()
            .find(|s| s.cols == cols)?
            .built
            .clone()
            .filter(|i| Arc::ptr_eq(i.batch(), &current))
    }

    /// How inconsistent `table` is under the key its (first) declared index
    /// is over: violated keys, the tuples in their groups and the
    /// group-size histogram, read off the index's conflict list — which
    /// `INSERT` keeps current, so this costs a lookup, not a scan. Builds
    /// the index if no query has planned against the table's current
    /// contents yet. `None` for a table without a declared index.
    pub fn conflict_summary(&self, table: &str) -> Option<ConflictSummary> {
        let batch = self.table_cols(table).ok()?;
        Some(self.index_over(table, &batch)?.conflict_summary())
    }

    /// Snapshot mapping each cached scan batch (by `Arc<ColBatch>` pointer
    /// identity, exactly like [`Database::stats_by_scan`]) to a built
    /// index over that exact batch. Declared-but-unbuilt indexes are built
    /// here — this is the lazy (re)build point that keeps crash recovery
    /// and `INSERT` cheap. A failed build (`index_build_fail` fault, a
    /// re-registered table that lost the key column) is not an error: the
    /// table simply plans as a sequential scan.
    pub(crate) fn indexes_by_scan(&self) -> std::collections::HashMap<usize, Arc<Index>> {
        let names: Vec<String> = {
            let idxs = read_lock(&self.indexes);
            if idxs.is_empty() {
                return std::collections::HashMap::new();
            }
            idxs.keys().cloned().collect()
        };
        let targets: Vec<(String, Arc<ColBatch>)> = {
            let cache = read_lock(&self.scan_cache);
            names
                .into_iter()
                .filter_map(|n| cache.get(&n).map(|b| (n, Arc::clone(b))))
                .collect()
        };
        let mut out = std::collections::HashMap::new();
        for (name, batch) in targets {
            if let Some(idx) = self.index_over(&name, &batch) {
                out.insert(Arc::as_ptr(&batch) as *const () as usize, idx);
            }
        }
        out
    }

    /// A built index over exactly `batch`: the already-built slot when its
    /// postings match this batch, otherwise the first declaration that
    /// builds successfully. Build time lands in the `index.build.us`
    /// histogram; a failed build bumps `index.fallback` and the caller
    /// falls back to a sequential scan.
    fn index_over(&self, name: &str, batch: &Arc<ColBatch>) -> Option<Arc<Index>> {
        let decls: Vec<(Vec<String>, Option<Arc<Index>>)> = read_lock(&self.indexes)
            .get(name)?
            .iter()
            .map(|s| (s.cols.clone(), s.built.clone()))
            .collect();
        for (_, built) in &decls {
            if let Some(b) = built {
                if Arc::ptr_eq(b.batch(), batch) {
                    return Some(Arc::clone(b));
                }
            }
        }
        let table = self.table(name).ok()?;
        for (cols, _) in decls {
            let Ok(positions) = cols
                .iter()
                .map(|c| table.column_index(c))
                .collect::<Result<Vec<_>>>()
            else {
                continue;
            };
            let start = std::time::Instant::now();
            match Index::build(name, &cols, positions, batch) {
                Ok(idx) => {
                    conquer_obs::registry()
                        .histogram("index.build.us")
                        .record(start.elapsed().as_micros() as u64);
                    conquer_obs::registry().counter("index.build").inc();
                    let idx = Arc::new(idx);
                    // Cache the build only while this batch is still the
                    // table's scan snapshot (the scan-cache revalidation
                    // idiom); either way the caller gets the index for the
                    // plan it is building right now, which holds `batch`.
                    // `apply_register` clears the scan cache *before*
                    // unbuilding slots, so a store that passes this check
                    // and then loses the race is wiped by the unbuild.
                    let mut map = write_lock(&self.indexes);
                    let still_current = read_lock(&self.scan_cache)
                        .get(name)
                        .is_some_and(|cur| Arc::ptr_eq(cur, batch));
                    if still_current {
                        if let Some(slot) = map
                            .get_mut(name)
                            .and_then(|slots| slots.iter_mut().find(|s| s.cols == cols))
                        {
                            slot.built = Some(Arc::clone(&idx));
                        }
                    }
                    return Some(idx);
                }
                Err(_) => {
                    conquer_obs::registry().counter("index.fallback").inc();
                }
            }
        }
        None
    }

    /// Shared handle to a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        read_lock(&self.tables)
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Names of all registered tables.
    pub fn table_names(&self) -> Vec<String> {
        read_lock(&self.tables).keys().cloned().collect()
    }

    /// The columns of a table as a shared, scan-ready batch (cached until
    /// the table is re-registered). The batch shares the table's column
    /// chunks — mutation on the table copy-on-writes them, so the handle
    /// is a stable snapshot.
    pub(crate) fn table_cols(&self, name: &str) -> Result<Arc<ColBatch>> {
        if let Some(cached) = read_lock(&self.scan_cache).get(name) {
            return Ok(Arc::clone(cached));
        }
        let table = self.table(name)?;
        let cols = Arc::new(table.batch());
        // Cache only after revalidating, under the cache write lock, that
        // `table` is still the registered Arc. Without this, a `register`
        // racing between our miss and our insert could clear the cache and
        // then have the old rows re-inserted *after* the clear, leaving
        // stale rows live under the new epoch. The check-and-insert is one
        // critical section, so it fully precedes or fully follows
        // `register`'s clear: before, the clear wipes it; after, the table
        // swap (ordered before the clear) is visible and the ptr_eq check
        // fails. Nesting the tables read lock inside the cache write lock
        // is deadlock-free — no writer holds both locks at once.
        let mut cache = write_lock(&self.scan_cache);
        let still_current = read_lock(&self.tables)
            .get(name)
            .is_some_and(|current| Arc::ptr_eq(current, &table));
        if still_current {
            cache.insert(name.to_string(), Arc::clone(&cols));
        }
        Ok(cols)
    }

    /// Run a SQL query string with default options.
    pub fn query(&self, sql: &str) -> Result<Rows> {
        self.query_with(sql, &ExecOptions::default())
    }

    /// Run a SQL query string with explicit options. One governor covers
    /// parse → plan (CTE materialization included) → execute, so the
    /// wall-clock budget in [`ResourceLimits`](crate::ResourceLimits) is
    /// end-to-end.
    pub fn query_with(&self, sql: &str, options: &ExecOptions) -> Result<Rows> {
        let _trace = options.trace.as_ref().map(|t| t.install());
        let gov = Governor::for_options(options);
        let query = {
            let _span = conquer_obs::span("parse").field("bytes", sql.len());
            parse_query(sql)?
        };
        self.execute_query_opts(&query, options, gov.as_ref())
    }

    /// Run a parsed query with default options.
    pub fn execute_query(&self, query: &Query) -> Result<Rows> {
        self.execute_query_with(query, &ExecOptions::default())
    }

    /// Run a parsed query with explicit options.
    pub fn execute_query_with(&self, query: &Query, options: &ExecOptions) -> Result<Rows> {
        let _trace = options.trace.as_ref().map(|t| t.install());
        let gov = Governor::for_options(options);
        self.execute_query_opts(query, options, gov.as_ref())
    }

    fn execute_query_opts(
        &self,
        query: &Query,
        options: &ExecOptions,
        gov: Option<&Governor>,
    ) -> Result<Rows> {
        let (plan, _) = self.plan_governed(query, options, gov)?;
        run_plan(&plan, options, gov, None)
    }

    /// Run a parsed query, collecting per-operator runtime stats
    /// (`EXPLAIN ANALYZE` without the formatting).
    pub fn execute_query_traced(
        &self,
        query: &Query,
        options: &ExecOptions,
    ) -> Result<(Rows, Plan, crate::stats::NodeStats)> {
        let (rows, plan, stats, _) = self.run_traced(query, options, false)?;
        Ok((rows, plan, stats))
    }

    /// [`Database::execute_query_traced`], with the CTEs traced too: one
    /// [`CteTrace`] per materialized CTE, in the order they ran (at plan
    /// time — so for a rewriting this is where the work shows).
    pub fn execute_query_traced_with_ctes(
        &self,
        query: &Query,
        options: &ExecOptions,
    ) -> Result<(Rows, Plan, crate::stats::NodeStats, Vec<CteTrace>)> {
        self.run_traced(query, options, true)
    }

    fn run_traced(
        &self,
        query: &Query,
        options: &ExecOptions,
        trace_ctes: bool,
    ) -> Result<(Rows, Plan, crate::stats::NodeStats, Vec<CteTrace>)> {
        let _trace = options.trace.as_ref().map(|t| t.install());
        let gov = Governor::for_options(options);
        let mut planner = Planner::with_governor(self, options, gov.as_ref());
        if trace_ctes {
            planner = planner.tracing_ctes();
        }
        let plan = plan_and_optimize(&planner, query, options)?;
        let mut stats = crate::stats::NodeStats::for_plan(&plan);
        let rows = run_plan(&plan, options, gov.as_ref(), Some(&mut stats))?;
        crate::cost::annotate(&self.estimator(), &plan, &mut stats);
        Ok((rows, plan, stats, planner.take_cte_traces()))
    }

    /// Plan a query without executing it (CTEs are still materialized, under
    /// the options' resource budget).
    pub fn plan(&self, query: &Query, options: &ExecOptions) -> Result<Plan> {
        Ok(self.plan_with_reads(query, options)?.0)
    }

    /// [`Database::plan`], also returning the tables the planner read and
    /// the version of each — what a plan cache needs to decide later
    /// whether the plan is still current ([`Database::first_moved`]).
    pub fn plan_with_reads(
        &self,
        query: &Query,
        options: &ExecOptions,
    ) -> Result<(Plan, TableReads)> {
        let _trace = options.trace.as_ref().map(|t| t.install());
        let gov = Governor::for_options(options);
        self.plan_governed(query, options, gov.as_ref())
    }

    /// Execute an already-built plan under the given options. This is the
    /// entry point for plan caches (`conquer-serve`): the plan embeds the
    /// table snapshots (and CTE results) it was built against, so callers
    /// reusing a plan must first check, with [`Database::first_moved`],
    /// that none of the [`TableReads`] it was planned from has moved. The
    /// options' resource budget and cancellation token cover execution
    /// only — parse and plan time were paid when the plan was built.
    pub fn execute_plan_with(&self, plan: &Plan, options: &ExecOptions) -> Result<Rows> {
        let _trace = options.trace.as_ref().map(|t| t.install());
        let gov = Governor::for_options(options);
        run_plan(plan, options, gov.as_ref(), None)
    }

    fn plan_governed(
        &self,
        query: &Query,
        options: &ExecOptions,
        gov: Option<&Governor>,
    ) -> Result<(Plan, TableReads)> {
        let planner = Planner::with_governor(self, options, gov);
        let plan = plan_and_optimize(&planner, query, options)?;
        Ok((plan, planner.into_reads()))
    }

    /// The cost estimator for one planning pass: catalog statistics, with
    /// the built secondary indexes as access-path candidates.
    pub(crate) fn estimator(&self) -> crate::cost::Estimator<'_> {
        crate::cost::Estimator::from_db_with_indexes(self)
    }

    /// The operator tree a SQL query plans to, as an indented listing.
    ///
    /// CTEs are materialized during planning (as at execution time), so the
    /// printed tree is exactly what [`Database::query`] would run.
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.explain_with(sql, &ExecOptions::default())
    }

    /// [`Database::explain`] under explicit options.
    pub fn explain_with(&self, sql: &str, options: &ExecOptions) -> Result<String> {
        let query = parse_query(sql)?;
        let plan = self.plan(&query, options)?;
        let mut stats = crate::stats::NodeStats::for_plan(&plan);
        crate::cost::annotate(&self.estimator(), &plan, &mut stats);
        Ok(crate::explain::explain_estimated(&plan, &stats))
    }

    /// Run a SQL query and return its rows together with the plan listing
    /// annotated with measured per-operator stats: one `CTE <name>` block
    /// per materialized CTE, in the order they ran, then the body.
    pub fn explain_analyze(&self, sql: &str) -> Result<(Rows, String)> {
        self.explain_analyze_with(sql, &ExecOptions::default())
    }

    /// [`Database::explain_analyze`] under explicit options.
    pub fn explain_analyze_with(&self, sql: &str, options: &ExecOptions) -> Result<(Rows, String)> {
        let query = {
            let _span = conquer_obs::span("parse").field("bytes", sql.len());
            parse_query(sql)?
        };
        let (rows, plan, stats, ctes) = self.execute_query_traced_with_ctes(&query, options)?;
        let text = crate::explain::explain_analyze_ctes(&ctes, &plan, &stats);
        Ok((rows, text))
    }

    /// Execute a `;`-separated script of statements (`CREATE TABLE`,
    /// `INSERT`, `DROP TABLE`, `CREATE INDEX`, queries). Returns the
    /// result of the last query, if any.
    pub fn run_script(&self, sql: &str) -> Result<Option<Rows>> {
        let mut last = None;
        for stmt in parse_statements(sql)? {
            last = self.run_statement(&stmt)?;
        }
        Ok(last)
    }

    /// Execute one parsed statement.
    pub fn run_statement(&self, stmt: &Statement) -> Result<Option<Rows>> {
        match stmt {
            Statement::Query(q) => Ok(Some(self.execute_query(q)?)),
            Statement::CreateTable { name, columns } => {
                let _mutation = self.mutation_lock();
                if read_lock(&self.tables).contains_key(name) {
                    return Err(EngineError::Catalog(format!(
                        "table `{name}` already exists"
                    )));
                }
                let cols: Vec<(&str, DataType)> = columns
                    .iter()
                    .map(|c| (c.name.as_str(), DataType::from(c.ty)))
                    .collect();
                let table = Table::new(name.clone(), cols);
                if self.durability.is_some() {
                    self.log(KIND_CREATE, &durable::encode_create(name, table.schema()))?;
                }
                let stats = Arc::new(TableStats::collect(table.cols()));
                self.apply_register(table, stats);
                self.maybe_auto_checkpoint()?;
                Ok(None)
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                self.insert(table, columns, rows)?;
                Ok(None)
            }
            Statement::DropTable { name } => {
                self.drop_table(name)?;
                Ok(None)
            }
            Statement::CreateIndex { table, columns } => {
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                self.create_index(table, &cols)?;
                Ok(None)
            }
        }
    }

    fn mutation_lock(&self) -> std::sync::MutexGuard<'_, ()> {
        self.mutation.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn insert(&self, name: &str, columns: &[String], rows: &[Vec<Expr>]) -> Result<()> {
        // INSERT is clone-push-register; hold the mutation mutex across the
        // whole sequence so a concurrent INSERT can't clone the same base
        // table and silently drop this one's rows on register.
        let _mutation = self.mutation_lock();
        let current = self.table(name)?;
        let mut new_table = (*current).clone();
        let n_cols = new_table.schema().len();
        // Map provided columns to positions (all columns when unspecified).
        let positions: Vec<usize> = if columns.is_empty() {
            (0..n_cols).collect()
        } else {
            columns
                .iter()
                .map(|c| new_table.column_index(c))
                .collect::<Result<Vec<_>>>()?
        };
        for exprs in rows {
            if exprs.len() != positions.len() {
                return Err(EngineError::Catalog(format!(
                    "INSERT expects {} values, got {}",
                    positions.len(),
                    exprs.len()
                )));
            }
            let mut row: Row = vec![Value::Null; n_cols];
            for (pos, expr) in positions.iter().zip(exprs) {
                row[*pos] = eval_const(expr)?;
            }
            new_table.push(row)?;
        }
        if self.durability.is_some() {
            // Log only the newly appended rows, not the whole table: the
            // base rows are already covered by earlier records/segments.
            let appended: Vec<Row> = (current.len()..new_table.len())
                .map(|i| new_table.row_at(i))
                .collect();
            self.log(KIND_INSERT, &durable::encode_insert(name, &appended))?;
        }
        let stats = Arc::new(TableStats::collect(new_table.cols()));
        // Built indexes describe the pre-insert batch; capture them before
        // the register unbuilds the slots so they can be extended (rather
        // than rebuilt) over the appended rows. Sound because the mutation
        // mutex is held: the new table is exactly the old rows plus the
        // appended suffix, which is `Index::extended`'s contract.
        let old_built: Vec<Arc<Index>> = read_lock(&self.indexes)
            .get(name)
            .map(|slots| slots.iter().filter_map(|s| s.built.clone()).collect())
            .unwrap_or_default();
        self.apply_register(new_table, stats);
        if !old_built.is_empty() {
            if let Ok(new_batch) = self.table_cols(name) {
                let mut map = write_lock(&self.indexes);
                if let Some(slots) = map.get_mut(name) {
                    for slot in slots.iter_mut() {
                        if let Some(ext) = old_built
                            .iter()
                            .find(|i| i.col_names() == slot.cols.as_slice())
                            .and_then(|i| i.extended(&new_batch))
                        {
                            slot.built = Some(Arc::new(ext));
                        }
                    }
                }
            }
        }
        self.maybe_auto_checkpoint()?;
        Ok(())
    }
}

/// Plan a query on `planner` (materializing its CTEs) and optimize the
/// body, each under its span.
fn plan_and_optimize(planner: &Planner<'_>, query: &Query, options: &ExecOptions) -> Result<Plan> {
    let plan = {
        let _span = conquer_obs::span("plan")
            .field("materialize_ctes", options.materialize_ctes)
            .field("optimize", options.optimize);
        planner.plan_query(query)?
    };
    let _span = conquer_obs::span("optimize");
    Ok(planner.optimize(plan))
}

/// Execute `plan` to owned rows under an `execute` span, filling `stats`
/// (shaped by [`NodeStats::for_plan`](crate::stats::NodeStats::for_plan))
/// when present.
fn run_plan(
    plan: &Plan,
    options: &ExecOptions,
    gov: Option<&Governor>,
    stats: Option<&mut crate::stats::NodeStats>,
) -> Result<Rows> {
    let mut span = conquer_obs::span("execute").field("threads", options.threads);
    let rows = exec::execute_plan(plan, None, gov, options.threads, stats)?.into_rows();
    span.record("rows", rows.rows.len());
    Ok(rows)
}

/// Evaluate a constant expression (INSERT values).
fn eval_const(expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Literal(l) => Ok(Value::from(l)),
        Expr::UnaryOp {
            op: conquer_sql::UnaryOp::Neg,
            expr,
        } => match eval_const(expr)? {
            Value::Int(v) => {
                Ok(Value::Int(v.checked_neg().ok_or_else(|| {
                    EngineError::Eval("integer overflow in negation".into())
                })?))
            }
            Value::Float(v) => Ok(Value::Float(-v)),
            other => Err(EngineError::TypeError(format!(
                "cannot negate {}",
                other.type_name()
            ))),
        },
        _ => Err(EngineError::Unsupported(
            "INSERT values must be literal constants".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_insert_select_roundtrip() {
        let db = Database::new();
        db.run_script(
            "create table t (a integer, b text);
             insert into t values (1, 'x'), (2, 'y');",
        )
        .unwrap();
        let rows = db.query("select a from t where b = 'y'").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn duplicate_create_fails() {
        let db = Database::new();
        db.run_script("create table t (a integer)").unwrap();
        assert!(db.run_script("create table t (a integer)").is_err());
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let db = Database::new();
        db.run_script("create table t (a integer, b integer)")
            .unwrap();
        db.run_script("insert into t (b) values (7)").unwrap();
        let rows = db.query("select a, b from t").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Null, Value::Int(7)]]);
    }

    #[test]
    fn unknown_table_error() {
        let db = Database::new();
        let err = db.query("select * from nope").unwrap_err();
        assert!(matches!(err, EngineError::UnknownTable(_)));
    }

    #[test]
    fn catalog_epoch_tracks_mutations() {
        let db = Database::new();
        let e0 = db.catalog_epoch();
        db.run_script("create table t (a integer)").unwrap();
        let e1 = db.catalog_epoch();
        assert!(e1 > e0);
        // INSERT re-registers the table, so it bumps the epoch too.
        db.run_script("insert into t values (1)").unwrap();
        let e2 = db.catalog_epoch();
        assert!(e2 > e1);
        // Dropping a missing table is not a mutation.
        assert!(db.drop_table("nope").unwrap().is_none());
        assert_eq!(db.catalog_epoch(), e2);
        db.drop_table("t").unwrap();
        assert!(db.catalog_epoch() > e2);
    }

    #[test]
    fn cached_plan_reexecutes() {
        let db = Database::new();
        db.run_script("create table t (a integer); insert into t values (1), (2)")
            .unwrap();
        let query = conquer_sql::parse_query("select a from t where a > 1").unwrap();
        let options = ExecOptions::default();
        let plan = db.plan(&query, &options).unwrap();
        let first = db.execute_plan_with(&plan, &options).unwrap();
        let second = db.execute_plan_with(&plan, &options).unwrap();
        assert_eq!(first.rows, vec![vec![Value::Int(2)]]);
        assert_eq!(first, second);
    }

    #[test]
    fn concurrent_inserts_do_not_lose_rows() {
        let db = Database::new();
        db.run_script("create table t (a integer)").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        db.run_script("insert into t values (1)").unwrap();
                    }
                });
            }
        });
        let rows = db.query("select count(*) from t").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(200)]]);
    }

    #[test]
    fn concurrent_create_table_has_one_winner() {
        let db = Database::new();
        let successes: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| db.run_script("create table t (a integer)").is_ok()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|ok| *ok)
                .count()
        });
        assert_eq!(successes, 1, "exactly one CREATE must win");
        assert_eq!(db.table_names(), vec!["t".to_string()]);
    }

    #[test]
    fn table_versions_move_only_with_their_table() {
        let db = Database::new();
        assert_eq!(db.table_version("t"), None);
        db.run_script("create table t (a integer); create table u (a integer)")
            .unwrap();
        let (t0, u0) = (
            db.table_version("t").unwrap(),
            db.table_version("u").unwrap(),
        );
        assert_ne!(t0, u0, "versions come from one counter");

        db.run_script("insert into u values (1)").unwrap();
        assert_eq!(db.table_version("t"), Some(t0), "a write to u leaves t");
        let u1 = db.table_version("u").unwrap();
        assert!(u1 > u0);

        // CREATE INDEX is a mutation of its table; re-declaring is not.
        assert!(db.create_index("t", &["a"]).unwrap());
        let t1 = db.table_version("t").unwrap();
        assert!(t1 > t0);
        assert!(!db.create_index("t", &["a"]).unwrap());
        assert_eq!(db.table_version("t"), Some(t1), "re-declare bumps nothing");
        assert_eq!(db.table_version("u"), Some(u1));
    }

    #[test]
    fn recreated_table_never_reuses_a_version() {
        let db = Database::new();
        db.run_script("create table t (a integer); insert into t values (1)")
            .unwrap();
        let query = conquer_sql::parse_query("select a from t").unwrap();
        let (_, reads) = db.plan_with_reads(&query, &ExecOptions::default()).unwrap();
        let old = db.table_version("t").unwrap();
        assert_eq!(reads.iter().collect::<Vec<_>>(), vec![("t", old)]);
        assert_eq!(db.first_moved(&reads), None);

        db.drop_table("t").unwrap();
        assert_eq!(db.table_version("t"), None);
        assert_eq!(db.first_moved(&reads), Some("t"), "dropped");
        db.run_script("create table t (a integer)").unwrap();
        assert!(db.table_version("t").unwrap() > old);
        assert_eq!(db.first_moved(&reads), Some("t"), "same name, new table");
    }

    #[test]
    fn reads_cover_tables_that_leave_no_scan_in_the_plan() {
        let db = Database::new();
        db.run_script(
            "create table t (a integer); create table in_cte (a integer);
             create table in_exists (a integer); create table untouched (a integer);",
        )
        .unwrap();
        let query = conquer_sql::parse_query(
            "with c as (select a from in_cte) \
             select t.a from t, c where t.a = c.a \
             and exists (select * from in_exists e where e.a = t.a)",
        )
        .unwrap();
        let (_, reads) = db.plan_with_reads(&query, &ExecOptions::default()).unwrap();
        let mut tables: Vec<&str> = reads.iter().map(|(t, _)| t).collect();
        tables.sort_unstable();
        assert_eq!(tables, vec!["in_cte", "in_exists", "t"]);
    }

    /// Stress the `register` vs `scan_snapshot` race: the rows a planner
    /// is handed must never be older than the version it records beside
    /// them (a stale scan-cache entry surviving a `register` would violate
    /// this and make version-checked plan caches serve old data). Newer is
    /// fine: that plan fails its next version check and is rebuilt.
    #[test]
    fn scan_snapshot_never_lags_its_version() {
        const VERSIONS: u64 = 1000;
        let db = Database::new();
        db.run_script("create table t (a integer); insert into t values (0)")
            .unwrap();
        let v0 = db.table_version("t").unwrap(); // row value 0 is current at v0
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 1..=VERSIONS {
                    let mut table = Table::new("t".to_string(), vec![("a", DataType::Integer)]);
                    table.push(vec![Value::Int(i as i64)]).unwrap();
                    db.register(table).unwrap();
                }
            });
            scope.spawn(|| loop {
                let (_, rows, version) = db.scan_snapshot("t").unwrap();
                // `t` is the only table mutated, so its versions are
                // consecutive: value i was registered at version v0 + i.
                let expect = (version - v0) as i64;
                let got = match rows.rows()[0][0] {
                    Value::Int(v) => v,
                    ref other => panic!("unexpected value {other:?}"),
                };
                assert!(
                    got >= expect,
                    "scan snapshot holds value {got} beside version {version} \
                     (expected at least {expect})"
                );
                if version >= v0 + VERSIONS {
                    return;
                }
            });
        });
    }

    #[test]
    fn insert_negative_values() {
        let db = Database::new();
        db.run_script("create table t (a integer); insert into t values (-5)")
            .unwrap();
        let rows = db.query("select a from t").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(-5)]]);
    }
}
