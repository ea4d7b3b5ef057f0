//! The database: a catalog of named tables plus the query entry points.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use std::sync::{Mutex, OnceLock, RwLock};

use std::path::Path;

use conquer_sql::ast::{Expr, Query, Statement};
use conquer_sql::{parse_query, parse_statements};
use conquer_storage::{Store, StoreOptions, StoreStatus, WalRecord};

use crate::col::ColBatch;
use crate::durable::{
    self, Durability, DurabilityOptions, Snapshot, KIND_CREATE, KIND_DROP, KIND_INDEX, KIND_INSERT,
    KIND_ROW_SNAPSHOT, KIND_SNAPSHOT, SEGMENT_FORMAT, SEGMENT_FORMAT_COLUMNAR,
};
use crate::error::{EngineError, Result};
use crate::exec;
use crate::expr::Env;
use crate::governor::Governor;
use crate::index::{ConflictSummary, Index};
use crate::plan::{CteTrace, ExecOptions, Plan, Planner};
use crate::schema::DataType;
use crate::stats::TableStats;
use crate::table::{Row, Rows, Table};
use crate::value::Value;

/// Recover a lock even if a previous holder panicked: the catalog is valid
/// after any interrupted operation, because every mutation publishes a
/// whole entry with one insert.
fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// One declared secondary index of a catalog entry: the key column names,
/// and the postings over the entry's batch once a planning pass has built
/// them. Only a successful build fills `built`, so a failed one is retried
/// by the next pass.
#[derive(Clone)]
struct Declared {
    cols: Vec<String>,
    built: OnceLock<Arc<Index>>,
}

impl Declared {
    fn new(cols: Vec<String>, built: Option<Index>) -> Declared {
        let slot = OnceLock::new();
        if let Some(index) = built {
            let _ = slot.set(Arc::new(index));
        }
        Declared { cols, built: slot }
    }
}

/// Everything the catalog holds for one table, published as one value: a
/// reader that takes the `Arc<Entry>` gets a table, the batch every plan
/// scans, its statistics, its version and its indexes that belong
/// together. Nothing in a published entry changes, except that its
/// statistics and a declared index's postings are filled in once, over the
/// entry's own batch.
#[derive(Clone)]
pub(crate) struct Entry {
    table: Arc<Table>,
    batch: Arc<ColBatch>,
    /// Filled by the first reader ([`Entry::stats`]).
    stats: OnceLock<Arc<TableStats>>,
    /// Drawn by [`Database::publish`].
    version: u64,
    slots: Vec<Declared>,
}

impl Entry {
    fn new(table: Table, slots: Vec<Declared>) -> Entry {
        Entry {
            batch: Arc::new(table.batch()),
            table: Arc::new(table),
            stats: OnceLock::new(),
            version: 0,
            slots,
        }
    }

    /// Declared index key-column lists, built or not.
    fn declared(&self) -> Vec<Vec<String>> {
        self.slots.iter().map(|d| d.cols.clone()).collect()
    }

    /// The declarations, every one unbuilt: what a table's replacement
    /// data starts with.
    fn unbuilt(&self) -> Vec<Declared> {
        let cols = self.slots.iter().map(|d| d.cols.clone());
        cols.map(|c| Declared::new(c, None)).collect()
    }

    pub(crate) fn batch(&self) -> &Arc<ColBatch> {
        &self.batch
    }

    /// The version's statistics, collected here by the first reader that
    /// needs them (a plan's estimator, [`Database::table_stats`]) — no
    /// write collects them, and no record stores them. Concurrent first
    /// readers wait for one collection. It runs outside any query
    /// governor, as a lazy index build does; its time lands in the
    /// `stats.collect.us` histogram.
    pub(crate) fn stats(&self) -> &Arc<TableStats> {
        self.stats.get_or_init(|| {
            let _span = conquer_obs::span("stats.collect")
                .field("table", self.table.name())
                .field("rows", self.batch.len())
                .field("columns", self.batch.width());
            let start = std::time::Instant::now();
            let stats = TableStats::collect(&self.batch);
            conquer_obs::registry()
                .histogram("stats.collect.us")
                .record(start.elapsed().as_micros() as u64);
            conquer_obs::registry().counter("stats.collect").inc();
            Arc::new(stats)
        })
    }

    /// Every declared index that is built or builds now, in declaration
    /// order. This is the lazy build point that keeps crash recovery and
    /// `INSERT` cheap. Build time lands in the `index.build.us` histogram.
    /// A failed build (`index_build_fail` fault, a re-registered table that
    /// lost the key column) is not an error: the index is left out, the
    /// table plans as a sequential scan, and the next call tries again.
    pub(crate) fn indexes(&self) -> Vec<Arc<Index>> {
        self.slots.iter().filter_map(|d| self.build(d)).collect()
    }

    fn build(&self, declared: &Declared) -> Option<Arc<Index>> {
        if let Some(index) = declared.built.get() {
            return Some(Arc::clone(index));
        }
        let positions = declared
            .cols
            .iter()
            .map(|c| self.table.column_index(c))
            .collect::<Result<Vec<_>>>()
            .ok()?;
        let start = std::time::Instant::now();
        let Ok(index) = Index::build(self.table.name(), &declared.cols, positions, &self.batch)
        else {
            conquer_obs::registry().counter("index.fallback").inc();
            return None;
        };
        conquer_obs::registry()
            .histogram("index.build.us")
            .record(start.elapsed().as_micros() as u64);
        conquer_obs::registry().counter("index.build").inc();
        // A racing build of the same slot may have won; both are over this
        // batch, and every caller gets the one stored.
        Some(Arc::clone(declared.built.get_or_init(|| Arc::new(index))))
    }
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
/// The catalog is one map from table name to an `Arc<Entry>`: the table,
/// the one `Arc<ColBatch>` every plan scans (so repeated references to a
/// table, within one query or across queries, share it), its statistics,
/// its version and its declared indexes. Reads take the read lock only
/// long enough to clone an entry's `Arc`, so concurrent query execution
/// over a shared `&Database` is cheap.
///
/// The database is `Send + Sync` and designed to be shared as
/// `Arc<Database>` across many session threads (the read-mostly contract
/// `conquer-serve` relies on): all interior mutability is behind the
/// `RwLock`ed catalog plus the epoch atomic that
/// [table versions](Database::table_version) are drawn from, queries never
/// hold a lock across execution, and every mutation builds a new entry from
/// the old one and publishes it with a single insert, so in-flight queries
/// keep the snapshot they planned against.
///
/// Mutations (`register`, `INSERT`'s clone-push, `CREATE TABLE`'s existence
/// check, `CREATE INDEX`, `DROP`) are read-modify-write sequences; they
/// serialize on the dedicated `mutation` mutex so concurrent scripts from
/// different sessions can neither lose rows nor both "create" the same
/// table.
#[derive(Default)]
pub struct Database {
    catalog: RwLock<BTreeMap<String, Arc<Entry>>>,
    /// Serializes catalog mutations: each reads an entry, builds its
    /// successor and publishes it.
    mutation: Mutex<()>,
    /// Bumped on every catalog mutation (`register`, `drop_table`,
    /// `create_index`). Each bump's value becomes the mutated table's
    /// version, so versions are unique across tables and never reused.
    epoch: AtomicU64,
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
        let meta = |wanted: &str| {
            let mut entries = recovered.meta.iter();
            entries.find(|(key, _)| key == wanted).map(|(_, v)| *v)
        };
        // Segments first: each is a full-table snapshot (annotations are
        // stored columns, so they come back with the rows — nothing is
        // recomputed, and statistics wait for their first reader). A
        // manifest without the format key has row-shaped segments.
        // Index *declarations* ride along in each snapshot; the postings
        // are deliberately not persisted. Declarations come back unbuilt
        // and the first query that plans against the table rebuilds them
        // lazily, so cold-boot recovery time does not depend on indexes.
        let decode = match meta(SEGMENT_FORMAT) {
            None => durable::decode_row_snapshot,
            Some(SEGMENT_FORMAT_COLUMNAR) => durable::decode_snapshot,
            Some(other) => {
                return Err(EngineError::Storage(format!(
                    "unknown segment format {other}"
                )))
            }
        };
        for seg in &recovered.segments {
            db.apply_snapshot(decode(&seg.payload)?);
        }
        // The epoch as of the checkpoint, so the counter is continuous
        // across restarts. `fetch_max` because the segment loads above
        // already drew versions from it and none may ever be reissued.
        // Other keys (manifests written before table versions carry a
        // `stats_epoch`) are ignored.
        if let Some(epoch) = meta("catalog_epoch") {
            db.epoch.fetch_max(epoch, Ordering::AcqRel);
        }
        // Then the WAL tail. Each record replays as exactly one apply (one
        // epoch bump), mirroring the original mutation, so the recovered
        // epochs land exactly where they were before the crash. A table a
        // Create or Insert record leaves behind has no statistics until
        // its first reader collects them, once, over the recovered rows.
        for record in &recovered.wal_records {
            db.apply_wal_record(record)?;
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
        let entry = self.successor(table);
        if self.durability.is_some() {
            let snapshot = durable::encode_snapshot(&entry.table, &entry.declared());
            self.log(KIND_SNAPSHOT, &snapshot)?;
        }
        self.publish(entry);
        self.maybe_auto_checkpoint()
    }

    /// Remove a table; returns it if present. Bumps the catalog epoch and
    /// retires the table's version when the table existed; logged
    /// write-ahead on durable databases.
    pub fn drop_table(&self, name: &str) -> Result<Option<Arc<Table>>> {
        let _mutation = self.mutation_lock();
        if self.entry(name).is_none() {
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
    /// log first): [`Database::successor`], published at a new version.
    fn apply_register(&self, table: Table) {
        self.publish(self.successor(table));
    }

    /// Apply a decoded snapshot (no logging): its table, then its index
    /// declarations.
    fn apply_snapshot(&self, (table, indexes): Snapshot) {
        let name = table.name().to_string();
        self.apply_register(table);
        for cols in indexes {
            self.apply_create_index(&name, cols);
        }
    }

    /// The entry that replaces `table`'s, not yet published: the table's
    /// index declarations unbuilt — their postings would describe the
    /// replaced data — and its statistics left to the first reader.
    fn successor(&self, table: Table) -> Entry {
        let slots = self
            .entry(table.name())
            .map(|old| old.unbuilt())
            .unwrap_or_default();
        Entry::new(table, slots)
    }

    /// Draw the next value of the epoch counter: the version of the entry a
    /// mutation is about to publish.
    fn next_version(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Make `entry` its table's catalog entry, at a new version. One
    /// insert, so a reader sees all of it or none of it; callers hold the
    /// mutation mutex (or are recovery, which runs alone).
    fn publish(&self, entry: Entry) {
        let entry = Entry {
            version: self.next_version(),
            ..entry
        };
        let name = entry.table.name().to_string();
        write_lock(&self.catalog).insert(name, Arc::new(entry));
    }

    /// Apply a drop to the in-memory catalog; the table's index
    /// declarations go with its entry. The drop bumps the epoch like any
    /// mutation, though no entry holds the version it draws.
    fn apply_drop(&self, name: &str) -> Option<Arc<Table>> {
        let dropped = write_lock(&self.catalog).remove(name)?;
        self.next_version();
        Some(Arc::clone(&dropped.table))
    }

    /// Replay one recovered WAL record against the in-memory catalog.
    fn apply_wal_record(&self, record: &WalRecord) -> Result<()> {
        match record.kind {
            KIND_CREATE => {
                let (name, schema) = durable::decode_create(&record.payload)?;
                let cols = ColBatch::from_schema(&schema);
                self.apply_register(Table::from_parts(name, schema, cols));
                Ok(())
            }
            KIND_INSERT => {
                let (name, rows) = durable::decode_insert(&record.payload)?;
                let current = self.entry(&name).ok_or_else(|| {
                    EngineError::Storage(format!(
                        "WAL insert into unknown table `{name}` (seq {})",
                        record.seq
                    ))
                })?;
                let mut table = (*current.table).clone();
                for row in rows {
                    table.push(row)?;
                }
                self.apply_register(table);
                Ok(())
            }
            KIND_SNAPSHOT => {
                self.apply_snapshot(durable::decode_snapshot(&record.payload)?);
                Ok(())
            }
            KIND_ROW_SNAPSHOT => {
                self.apply_snapshot(durable::decode_row_snapshot(&record.payload)?);
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
    /// are stored columns) becomes an immutable columnar segment, a
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
        let entries = read_lock(&self.catalog).clone();
        let payloads: Vec<(String, Vec<u8>)> = entries
            .into_iter()
            .map(|(name, entry)| {
                let snapshot = durable::encode_snapshot(&entry.table, &entry.declared());
                (name, snapshot)
            })
            .collect();
        let meta = [
            ("catalog_epoch".to_string(), self.catalog_epoch()),
            (SEGMENT_FORMAT.to_string(), SEGMENT_FORMAT_COLUMNAR),
        ];
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
    /// version than it ever had before. A version's statistics are a
    /// function of its rows, whenever they are collected, so the version
    /// covers them too.
    pub fn table_version(&self, name: &str) -> Option<u64> {
        self.entry(name).map(|e| e.version)
    }

    /// The first table in `reads` whose version is no longer the recorded
    /// one (mutated, dropped, or dropped and re-created), `None` when
    /// every plan built from those reads is still current. One lock
    /// acquisition however many tables were read.
    pub fn first_moved<'r>(&self, reads: &'r TableReads) -> Option<&'r str> {
        let catalog = read_lock(&self.catalog);
        reads
            .0
            .iter()
            .find(|(name, version)| catalog.get(name).map(|e| e.version) != Some(*version))
            .map(|(name, _)| name.as_str())
    }

    /// One base-table read for the planner: the table, its scan-ready
    /// batch and its version, all from one entry — the rows are exactly
    /// the version's.
    pub(crate) fn scan_snapshot(&self, name: &str) -> Result<(Arc<Table>, Arc<ColBatch>, u64)> {
        let entry = self.known(name)?;
        Ok((
            Arc::clone(&entry.table),
            Arc::clone(&entry.batch),
            entry.version,
        ))
    }

    /// Statistics for a table's current version, collected now if no
    /// reader has needed them yet. `None` for unknown tables.
    pub fn table_stats(&self, name: &str) -> Option<Arc<TableStats>> {
        self.entry(name).map(|e| Arc::clone(e.stats()))
    }

    /// Declare a secondary index on `table` over `cols` (column order
    /// matters: multi-column probes present values in index order).
    /// Returns `Ok(false)` when an identical declaration already exists —
    /// re-declaring is a no-op that bumps nothing.
    ///
    /// The postings are *not* built here. The first query that plans
    /// against the table builds them lazily (see [`Entry::indexes`]); the
    /// declaration itself is a durable catalog mutation that bumps the
    /// table's version like any other DDL, so cached plans that read the
    /// table are rebuilt and get to consider the new access path.
    pub fn create_index(&self, table: &str, cols: &[&str]) -> Result<bool> {
        let col_names: Vec<String> = cols.iter().map(|c| (*c).to_string()).collect();
        let declared = || self.declared_indexes(table).contains(&col_names);
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

    /// Install an index declaration (no logging — callers log first): a new
    /// entry at a new version, the table's built indexes carried over.
    /// Idempotent: an already-declared column list changes nothing and
    /// bumps nothing.
    fn apply_create_index(&self, table: &str, cols: Vec<String>) {
        let Some(old) = self.entry(table) else {
            return;
        };
        if old.slots.iter().any(|d| d.cols == cols) {
            return;
        }
        let mut slots = old.slots.clone();
        slots.push(Declared::new(cols, None));
        self.publish(Entry {
            slots,
            ..(*old).clone()
        });
    }

    /// Declared index key-column lists for a table, built or not.
    pub fn declared_indexes(&self, table: &str) -> Vec<Vec<String>> {
        self.entry(table).map(|e| e.declared()).unwrap_or_default()
    }

    /// One row per declared index: `(table, key columns, built)`. `built`
    /// reports whether postings over the table's current entry exist —
    /// after crash recovery this is `false` for every index until a query
    /// plans against the table and triggers the lazy rebuild.
    pub fn index_status(&self) -> Vec<(String, Vec<String>, bool)> {
        let catalog = read_lock(&self.catalog);
        let declared = catalog.iter().flat_map(|(table, entry)| {
            let slots = entry.slots.iter();
            slots.map(|d| (table.clone(), d.cols.clone(), d.built.get().is_some()))
        });
        declared.collect()
    }

    /// The index declared on `table` over `cols`, if it is built over the
    /// table's current entry — what `index_status` reports as `built`.
    /// Never builds one.
    pub fn built_index(&self, table: &str, cols: &[String]) -> Option<Arc<Index>> {
        let entry = self.entry(table)?;
        let declared = entry.slots.iter().find(|d| d.cols == cols)?;
        declared.built.get().cloned()
    }

    /// How inconsistent `table` is under the key its first declared index
    /// is over: violated keys, the tuples in their groups and the
    /// group-size histogram, read off the index's conflict list — which
    /// `INSERT` keeps current, so this costs a lookup, not a scan. Builds
    /// the index if no query has planned against the table's current
    /// contents yet. `None` for a table without a declared index.
    pub fn conflict_summary(&self, table: &str) -> Option<ConflictSummary> {
        let entry = self.entry(table)?;
        let index = entry.slots.iter().find_map(|d| entry.build(d))?;
        Some(index.conflict_summary())
    }

    /// Every table's current entry: what the cost estimator looks a plan's
    /// scan batches up in.
    pub(crate) fn entries(&self) -> Vec<Arc<Entry>> {
        read_lock(&self.catalog).values().cloned().collect()
    }

    fn entry(&self, name: &str) -> Option<Arc<Entry>> {
        read_lock(&self.catalog).get(name).cloned()
    }

    /// [`Database::entry`], with an unknown table an error.
    fn known(&self, name: &str) -> Result<Arc<Entry>> {
        self.entry(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Shared handle to a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        Ok(Arc::clone(&self.known(name)?.table))
    }

    /// Names of all registered tables.
    pub fn table_names(&self) -> Vec<String> {
        read_lock(&self.catalog).keys().cloned().collect()
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
    /// the declared secondary indexes (built on first lookup) as
    /// access-path candidates.
    pub(crate) fn estimator(&self) -> crate::cost::Estimator {
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
                if self.entry(name).is_some() {
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
                self.apply_register(table);
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
        let current = self.known(name)?;
        let mut new_table = (*current.table).clone();
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
                row[*pos] = Planner::bind_constant(self, expr)?.eval(&Env::root(&[]))?;
            }
            new_table.push(row)?;
        }
        if self.durability.is_some() {
            // Log only the newly appended rows, not the whole table: the
            // base rows are already covered by earlier records/segments.
            let appended: Vec<Row> = (current.table.len()..new_table.len())
                .map(|i| new_table.row_at(i))
                .collect();
            self.log(KIND_INSERT, &durable::encode_insert(name, &appended))?;
        }
        // The old entry's built indexes are extended (rather than rebuilt)
        // over the appended rows. Sound because the mutation mutex is
        // held: the new table is exactly the old rows plus the appended
        // suffix, which is `Index::extended`'s contract.
        let entry = Entry::new(new_table, Vec::new());
        let slots = current.slots.iter().map(|d| {
            let extended = d.built.get().and_then(|i| i.extended(&entry.batch));
            Declared::new(d.cols.clone(), extended)
        });
        self.publish(Entry {
            slots: slots.collect(),
            ..entry
        });
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

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

    /// Race `scan_snapshot` against every mutation of its table —
    /// `register`, `INSERT`, `CREATE INDEX` and `DROP`. The rows a planner
    /// is handed must be exactly the rows of the version it records beside
    /// them (a version-checked plan cache would otherwise serve another
    /// version's rows), and every index an index-aware estimator offers
    /// for the scan must be over that scan's own batch.
    #[test]
    fn scan_snapshot_never_lags_its_version() {
        const ROUNDS: i64 = 60;
        let db = Database::new();
        // Column `a` of every version's rows, recorded by the writer after
        // each of its mutations (it is the only writer, so the table's
        // version is then that mutation's).
        let published = Mutex::new(BTreeMap::new());
        // The writer waits for a reader observation after every round, so
        // the two interleave however the threads are scheduled.
        let (reads, done) = (AtomicUsize::new(0), AtomicBool::new(false));
        let observed = std::thread::scope(|scope| {
            scope.spawn(|| {
                let record = |a: &[i64]| {
                    let version = db.table_version("t").unwrap();
                    published.lock().unwrap().insert(version, a.to_vec());
                };
                for round in 0..ROUNDS {
                    db.drop_table("t").unwrap();
                    let first = round * 10;
                    let mut table = Table::new(
                        "t",
                        vec![("a", DataType::Integer), ("b", DataType::Integer)],
                    );
                    table
                        .push(vec![Value::Int(first), Value::Int(first)])
                        .unwrap();
                    db.register(table).unwrap();
                    let mut a = vec![first];
                    record(&a);
                    for (n, cols) in [&["a"][..], &["b"], &["b", "a"]].into_iter().enumerate() {
                        let value = first + n as i64 + 1;
                        db.run_script(&format!("insert into t values ({value}, {value})"))
                            .unwrap();
                        a.push(value);
                        record(&a);
                        assert!(db.create_index("t", cols).unwrap());
                        record(&a);
                    }
                    let seen = reads.load(Ordering::Acquire);
                    while reads.load(Ordering::Acquire) == seen {
                        std::thread::yield_now();
                    }
                }
                done.store(true, Ordering::Release);
            });
            let reader = scope.spawn(|| {
                let mut observed = Vec::new();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    // An error is the window between a drop and a register.
                    if let Ok((table, batch, version)) = db.scan_snapshot("t") {
                        assert_eq!(table.rows(), batch.rows(), "one entry's table and batch");
                        let est = crate::cost::Estimator::from_db_with_indexes(&db);
                        for index in est.indexes_for(&batch) {
                            assert!(Arc::ptr_eq(index.batch(), &batch), "{index:?}");
                        }
                        let a = batch.rows().iter().map(|row| match row[0] {
                            Value::Int(v) => v,
                            ref other => panic!("unexpected value {other:?}"),
                        });
                        observed.push((version, a.collect::<Vec<_>>()));
                        reads.fetch_add(1, Ordering::AcqRel);
                    }
                    if finished {
                        return observed;
                    }
                }
            });
            reader.join().unwrap()
        });
        let published = published.into_inner().unwrap();
        for (version, a) in observed {
            assert_eq!(
                published.get(&version),
                Some(&a),
                "scan snapshot holds {a:?} beside version {version}"
            );
        }
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
