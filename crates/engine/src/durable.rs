//! Durability wiring: the binary encoding of catalog mutations for the
//! write-ahead log and checkpoint segments, plus the background
//! [`Checkpointer`].
//!
//! The storage layer (`conquer-storage`) moves opaque bytes; this module
//! owns what the bytes mean. Five record kinds cover every catalog
//! mutation:
//!
//! | kind | record | logged by |
//! |------|--------|-----------|
//! | 1 | `Create(name, schema)`              | `CREATE TABLE` |
//! | 2 | `Insert(name, rows)`                | `INSERT` (the new rows only) |
//! | 3 | `Snapshot(name, schema, stats, rows, indexes)` | `Database::register` (annotation recompute, bulk loads) |
//! | 4 | `Drop(name)`                        | `Database::drop_table` |
//! | 5 | `Index(name, key columns)`          | `Database::create_index` |
//!
//! Checkpoint segments reuse the `Snapshot` payload encoding, so the same
//! decoder serves WAL replay and segment loading. `TableStats` are stored
//! in snapshots (the encode collects them if no reader has yet) and
//! recovered verbatim — annotations and statistics are first-class durable
//! data, not recomputed on boot; a table that `Create` / `Insert` records
//! rebuilt has none until its first reader collects them. Index
//! *declarations* are durable too (a snapshot carries its table's declared
//! indexes); the built postings are not — recovery reinstalls declarations
//! unbuilt, and the first query that plans against the table rebuilds
//! lazily, keeping cold-boot recovery time independent of index count.
//!
//! Every decoder is bounds-checked and returns [`EngineError::Storage`] on
//! malformed input; nothing here can panic on a corrupt file.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use conquer_storage::Store;

use crate::error::{EngineError, Result};
use crate::schema::{Column, DataType, Schema};
use crate::stats::{ColumnStats, TableStats};
use crate::table::{Row, Table};
use crate::value::Value;
use crate::Database;

pub(crate) const KIND_CREATE: u8 = 1;
pub(crate) const KIND_INSERT: u8 = 2;
pub(crate) const KIND_SNAPSHOT: u8 = 3;
pub(crate) const KIND_DROP: u8 = 4;
pub(crate) const KIND_INDEX: u8 = 5;

/// How a durable [`Database`](crate::Database) is opened — see
/// [`Database::open`](crate::Database::open).
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// WAL fsync policy.
    pub sync: conquer_storage::SyncPolicy,
    /// Checkpoint inline when the WAL reaches this many bytes (`0`
    /// disables the size trigger; the background checkpointer and explicit
    /// [`Database::checkpoint`](crate::Database::checkpoint) calls still
    /// work).
    pub checkpoint_wal_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> DurabilityOptions {
        DurabilityOptions {
            sync: conquer_storage::SyncPolicy::Always,
            checkpoint_wal_bytes: 64 << 20,
        }
    }
}

/// The durable half of a [`Database`](crate::Database): the store plus the
/// auto-checkpoint threshold.
pub(crate) struct Durability {
    pub store: Store,
    pub checkpoint_wal_bytes: u64,
}

pub(crate) fn storage_err(e: std::io::Error) -> EngineError {
    EngineError::Storage(e.to_string())
}

/// Bridge `conquer_storage::fault` to the engine's deterministic fault
/// schedule. Installed once per process on the first durable open; a no-op
/// bridge without the `fault-injection` feature (`faults::trip` compiles
/// to `Ok(())`).
pub(crate) fn install_fault_hook() {
    fn hook(point: &'static str) -> std::io::Result<()> {
        crate::faults::trip(point).map_err(|e| std::io::Error::other(e.to_string()))
    }
    conquer_storage::fault::set_hook(hook);
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(3);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s);
        }
        Value::Date(d) => {
            buf.push(5);
            buf.extend_from_slice(&d.to_le_bytes());
        }
    }
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Integer => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Date => 3,
        DataType::Boolean => 4,
        DataType::Any => 5,
    }
}

fn type_of_tag(tag: u8) -> Option<DataType> {
    Some(match tag {
        0 => DataType::Integer,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Date,
        4 => DataType::Boolean,
        5 => DataType::Any,
        _ => return None,
    })
}

fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    buf.extend_from_slice(&(schema.columns.len() as u32).to_le_bytes());
    for col in &schema.columns {
        match &col.qualifier {
            Some(q) => {
                buf.push(1);
                put_str(buf, q);
            }
            None => buf.push(0),
        }
        put_str(buf, &col.name);
        buf.push(type_tag(col.ty));
    }
}

fn put_stats(buf: &mut Vec<u8>, stats: &TableStats) {
    buf.extend_from_slice(&stats.row_count.to_le_bytes());
    buf.extend_from_slice(&(stats.columns.len() as u32).to_le_bytes());
    for col in &stats.columns {
        buf.extend_from_slice(&col.ndv.to_le_bytes());
        buf.extend_from_slice(&col.null_count.to_le_bytes());
        for bound in [col.min, col.max] {
            match bound {
                Some(v) => {
                    buf.push(1);
                    buf.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                None => buf.push(0),
            }
        }
    }
}

fn put_rows(buf: &mut Vec<u8>, rows: &[Row]) {
    buf.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for row in rows {
        buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for v in row {
            put_value(buf, v);
        }
    }
}

/// `Create` record: table name + schema.
pub(crate) fn encode_create(name: &str, schema: &Schema) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, name);
    put_schema(&mut buf, schema);
    buf
}

/// `Insert` record: table name + the newly appended rows only.
pub(crate) fn encode_insert(name: &str, rows: &[Row]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, name);
    put_rows(&mut buf, rows);
    buf
}

/// `Drop` record: just the table name.
pub(crate) fn encode_drop(name: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, name);
    buf
}

/// `Index` record: table name + key column names in index order.
pub(crate) fn encode_index(name: &str, cols: &[String]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, name);
    buf.extend_from_slice(&(cols.len() as u32).to_le_bytes());
    for col in cols {
        put_str(&mut buf, col);
    }
    buf
}

/// `Snapshot` record / checkpoint segment payload: the full table (name,
/// schema, stats, rows) plus its declared index key-column lists. The
/// index section is not optional — every snapshot carries it (possibly
/// empty), so the decoder rejects truncation anywhere in the payload.
pub(crate) fn encode_snapshot(
    table: &Table,
    stats: &TableStats,
    indexes: &[Vec<String>],
) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, table.name());
    put_schema(&mut buf, table.schema());
    put_stats(&mut buf, stats);
    // Stream row-at-a-time out of the columnar batch rather than calling
    // `table.rows()`, which would materialize (and keep) a full pivot.
    buf.extend_from_slice(&(table.len() as u64).to_le_bytes());
    for i in 0..table.len() {
        let row = table.row_at(i);
        buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for v in &row {
            put_value(&mut buf, v);
        }
    }
    buf.extend_from_slice(&(indexes.len() as u32).to_le_bytes());
    for cols in indexes {
        buf.extend_from_slice(&(cols.len() as u32).to_le_bytes());
        for col in cols {
            put_str(&mut buf, col);
        }
    }
    buf
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let slice = self
            .bytes
            .get(self.at..self.at.saturating_add(n))
            .ok_or_else(|| EngineError::Storage("truncated durable record".into()))?;
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| EngineError::Storage("invalid UTF-8 in durable record".into()))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.u64()? as i64),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::Str(Arc::from(self.str()?.as_str())),
            5 => {
                let b = self.take(4)?;
                Value::Date(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            }
            tag => {
                return Err(EngineError::Storage(format!(
                    "unknown value tag {tag} in durable record"
                )))
            }
        })
    }

    fn schema(&mut self) -> Result<Schema> {
        let n = self.u32()? as usize;
        let mut columns = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let qualifier = match self.u8()? {
                0 => None,
                _ => Some(self.str()?),
            };
            let name = self.str()?;
            let tag = self.u8()?;
            let ty = type_of_tag(tag).ok_or_else(|| {
                EngineError::Storage(format!("unknown type tag {tag} in durable record"))
            })?;
            columns.push(Column {
                qualifier,
                name,
                ty,
            });
        }
        Ok(Schema::new(columns))
    }

    fn stats(&mut self) -> Result<TableStats> {
        let row_count = self.u64()?;
        let n = self.u32()? as usize;
        let mut columns = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let ndv = self.u64()?;
            let null_count = self.u64()?;
            let mut bounds = [None, None];
            for bound in &mut bounds {
                if self.u8()? != 0 {
                    *bound = Some(f64::from_bits(self.u64()?));
                }
            }
            columns.push(ColumnStats {
                ndv,
                null_count,
                min: bounds[0],
                max: bounds[1],
            });
        }
        Ok(TableStats { row_count, columns })
    }

    fn rows(&mut self) -> Result<Vec<Row>> {
        let n = self.u64()? as usize;
        let mut rows = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let width = self.u32()? as usize;
            let mut row = Vec::with_capacity(width.min(1 << 12));
            for _ in 0..width {
                row.push(self.value()?);
            }
            rows.push(row);
        }
        Ok(rows)
    }

    fn index_decl(&mut self) -> Result<Vec<String>> {
        let n = self.u32()? as usize;
        let mut cols = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            cols.push(self.str()?);
        }
        Ok(cols)
    }

    fn finish(self) -> Result<()> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(EngineError::Storage(
                "trailing bytes in durable record".into(),
            ))
        }
    }
}

pub(crate) fn decode_create(payload: &[u8]) -> Result<(String, Schema)> {
    let mut cur = Cursor::new(payload);
    let name = cur.str()?;
    let schema = cur.schema()?;
    cur.finish()?;
    Ok((name, schema))
}

pub(crate) fn decode_insert(payload: &[u8]) -> Result<(String, Vec<Row>)> {
    let mut cur = Cursor::new(payload);
    let name = cur.str()?;
    let rows = cur.rows()?;
    cur.finish()?;
    Ok((name, rows))
}

pub(crate) fn decode_drop(payload: &[u8]) -> Result<String> {
    let mut cur = Cursor::new(payload);
    let name = cur.str()?;
    cur.finish()?;
    Ok(name)
}

pub(crate) fn decode_index(payload: &[u8]) -> Result<(String, Vec<String>)> {
    let mut cur = Cursor::new(payload);
    let name = cur.str()?;
    let cols = cur.index_decl()?;
    cur.finish()?;
    Ok((name, cols))
}

pub(crate) fn decode_snapshot(payload: &[u8]) -> Result<(Table, TableStats, Vec<Vec<String>>)> {
    let mut cur = Cursor::new(payload);
    let name = cur.str()?;
    let schema = cur.schema()?;
    let stats = cur.stats()?;
    // Stream decoded rows straight into column chunks — recovery never
    // builds an intermediate `Vec<Vec<Value>>` of the whole segment.
    let mut cols = crate::col::ColBatch::from_schema(&schema);
    let n = cur.u64()? as usize;
    for _ in 0..n {
        let width = cur.u32()? as usize;
        if width != schema.len() {
            return Err(EngineError::Storage(format!(
                "snapshot row arity {width} does not match schema width {}",
                schema.len()
            )));
        }
        let mut row = Vec::with_capacity(width.min(1 << 12));
        for _ in 0..width {
            row.push(cur.value()?);
        }
        cols.push_row(row);
    }
    let n_indexes = cur.u32()? as usize;
    let mut indexes = Vec::with_capacity(n_indexes.min(1 << 10));
    for _ in 0..n_indexes {
        indexes.push(cur.index_decl()?);
    }
    cur.finish()?;
    Ok((Table::from_parts(name, schema, cols), stats, indexes))
}

// ---------------------------------------------------------------------------
// Background checkpointer
// ---------------------------------------------------------------------------

/// A background thread that periodically checkpoints a durable database
/// and ticks the interval fsync policy. Stops (and joins) on drop or
/// [`Checkpointer::stop`].
pub struct Checkpointer {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
    errors: Arc<AtomicU64>,
}

impl Checkpointer {
    /// Spawn the checkpointer: every `interval` the database is
    /// checkpointed if its WAL holds any records; between checkpoints the
    /// WAL's `interval_ms` sync policy is ticked so it holds even when no
    /// appends arrive.
    pub fn spawn(db: Arc<Database>, interval: Duration) -> Checkpointer {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let errors = Arc::new(AtomicU64::new(0));
        let thread_stop = Arc::clone(&stop);
        let thread_errors = Arc::clone(&errors);
        let tick = interval
            .min(Duration::from_millis(200))
            .max(Duration::from_millis(10));
        let handle = std::thread::Builder::new()
            .name("conquer-checkpointer".into())
            .spawn(move || {
                let (lock, cvar) = &*thread_stop;
                let mut last_checkpoint = Instant::now();
                let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if *stopped {
                        return;
                    }
                    let (guard, _) = cvar
                        .wait_timeout(stopped, tick)
                        .unwrap_or_else(|e| e.into_inner());
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    if db.flush_if_due().is_err() {
                        thread_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    if last_checkpoint.elapsed() >= interval {
                        last_checkpoint = Instant::now();
                        match db.checkpoint_if_dirty() {
                            Ok(_) => {}
                            Err(_) => {
                                thread_errors.fetch_add(1, Ordering::Relaxed);
                                conquer_obs::registry()
                                    .counter("storage.checkpoint.errors")
                                    .inc();
                            }
                        }
                    }
                }
            })
            .ok();
        Checkpointer {
            stop,
            handle,
            errors,
        }
    }

    /// Background errors observed so far (also counted in
    /// `storage.checkpoint.errors`).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Signal the thread to stop and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cvar.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_encodings_roundtrip() {
        let schema = Schema::new(vec![
            Column::bare("a", DataType::Integer),
            Column::new(Some("t"), "b", DataType::Text),
        ]);
        let (name, decoded) = decode_create(&encode_create("t", &schema)).unwrap();
        assert_eq!(name, "t");
        assert_eq!(decoded, schema);

        let rows = vec![
            vec![Value::Int(-7), Value::str("x")],
            vec![Value::Null, Value::Float(2.5)],
            vec![Value::Bool(true), Value::Date(19000)],
        ];
        let (name, decoded) = decode_insert(&encode_insert("t", &rows)).unwrap();
        assert_eq!(name, "t");
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0][0], Value::Int(-7));
        assert!(matches!(decoded[2][1], Value::Date(19000)));

        assert_eq!(decode_drop(&encode_drop("orders")).unwrap(), "orders");

        let cols = vec!["custkey".to_string(), "nationkey".to_string()];
        let (name, decoded) = decode_index(&encode_index("customer", &cols)).unwrap();
        assert_eq!(name, "customer");
        assert_eq!(decoded, cols);
    }

    #[test]
    fn snapshot_roundtrips_table_and_stats() {
        let mut table = Table::new("t", vec![("a", DataType::Integer), ("b", DataType::Text)]);
        table.push(vec![Value::Int(1), Value::str("x")]).unwrap();
        table.push(vec![Value::Int(2), Value::Null]).unwrap();
        let stats = TableStats::collect(table.cols());
        let decls = vec![vec!["a".to_string()]];
        let payload = encode_snapshot(&table, &stats, &decls);
        let (decoded, decoded_stats, decoded_decls) = decode_snapshot(&payload).unwrap();
        assert_eq!(decoded.name(), "t");
        assert_eq!(decoded.schema(), table.schema());
        assert_eq!(decoded.rows()[1][0], Value::Int(2));
        assert_eq!(decoded_stats.row_count, 2);
        assert_eq!(decoded_stats.columns[1].null_count, 1);
        assert_eq!(decoded_stats.columns[0].min, stats.columns[0].min);
        assert_eq!(decoded_decls, decls);
    }

    #[test]
    fn decoders_reject_corruption_without_panicking() {
        let mut table = Table::new("t", vec![("a", DataType::Integer)]);
        table.push(vec![Value::Int(1)]).unwrap();
        let stats = TableStats::collect(table.cols());
        let payload = encode_snapshot(&table, &stats, &[vec!["a".to_string()]]);
        for cut in 0..payload.len() {
            assert!(decode_snapshot(&payload[..cut]).is_err());
        }
        let mut extended = payload.clone();
        extended.push(0xAB);
        assert!(decode_snapshot(&extended).is_err());
    }
}
